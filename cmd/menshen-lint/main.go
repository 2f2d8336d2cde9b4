// Command menshen-lint machine-enforces the repo's load-bearing
// invariants with three custom analyzers:
//
//	hotpathalloc  //menshen:hotpath functions must not allocate
//	atomicfield   no mixed atomic/plain access to the same field
//	countederr    counted-fate API errors must not be discarded
//
// It runs under the go command, which also feeds it the test units:
//
//	go install ./cmd/menshen-lint
//	go vet -vettool=$(which menshen-lint) ./...
//
// Individual analyzers are selected with -hotpathalloc, -atomicfield,
// -countederr; with no selection all three run. See each analyzer's
// package documentation under internal/analysis for the precise rules
// and the //menshen:allocok / //menshen:guarded-by escape hatches.
package main

import (
	"repro/internal/analysis/atomicfield"
	"repro/internal/analysis/countederr"
	"repro/internal/analysis/driver"
	"repro/internal/analysis/framework"
	"repro/internal/analysis/hotpathalloc"
)

func main() {
	driver.Main([]*framework.Analyzer{
		hotpathalloc.Analyzer,
		atomicfield.Analyzer,
		countederr.Analyzer,
	})
}
