// Command menshen-bench regenerates the paper's evaluation artifacts.
//
// Usage:
//
//	menshen-bench -exp all          # every table and figure
//	menshen-bench -exp fig11        # one experiment
//	menshen-bench -list             # available experiment IDs
//
// It renders the paper's tables and figures from the platform models.
// Measured performance of this implementation is bench/'s job: see
// bench/README.md and `bash bench/run.sh`.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment ID to run (or 'all')")
	list := flag.Bool("list", false, "list experiment IDs")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
		return
	}

	if *exp == "all" {
		for _, r := range experiments.All() {
			fmt.Println(r)
		}
		return
	}
	r, err := experiments.ByID(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(r)
}
