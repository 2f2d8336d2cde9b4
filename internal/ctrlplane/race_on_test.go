//go:build race

package ctrlplane

// raceEnabled reports that the race detector is active: its
// instrumentation allocates, so the strict allocation pins run in the
// non-race pass only.
const raceEnabled = true
