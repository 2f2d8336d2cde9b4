// The benchmark is its own module so it builds from its own build file
// and stays out of the main module's `go build ./...`, `go test ./...`
// and lint runs. The import path keeps the `repro/` prefix, which is
// what lets it import repro/internal/...
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
