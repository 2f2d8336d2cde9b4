#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the given arguments. Run it from the root:
#
#   bash bench/run.sh --workload calc64_sat --seed 1 --seconds 12 --trace 0
#
# Everything the build writes (binary, Go build cache) stays under
# .bench_build/, so the run reads and writes only inside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/bench/go.mod" || ! -f "$root/BENCHMARK.json" ]]; then
  echo "bench/run.sh: run from the repository root (needs go.mod, bench/go.mod and BENCHMARK.json here)" >&2
  exit 2
fi

out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOFLAGS=-modcacherw
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0

# `go build` is a no-op when the binary is up to date, so every run pays
# for the build check only; the first run in a checkout compiles.
(cd "$root/bench" && go build -o "$out/menshen-bench" .)
exec "$out/menshen-bench" "$@"
