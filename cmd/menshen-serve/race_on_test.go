//go:build race

package main

// Smoke-test loads, sized for the race detector: the engine runs in the
// test process, instrumented, so its RX loop drains the UDP socket
// several times slower.
const (
	mgmtSmokeFrames    = 50000
	ingressSmokeFrames = 50000
)
