//go:build !race

package main

// Smoke-test loads, sized for the non-race build.
const (
	mgmtSmokeFrames      = 50000
	ingressSmokeFrames   = 200000
	ingressSmokeInFlight = 8192 // frames sent ahead of the scraped receive counter
)
