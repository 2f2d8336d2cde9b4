//go:build !race

package ctrlplane

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
