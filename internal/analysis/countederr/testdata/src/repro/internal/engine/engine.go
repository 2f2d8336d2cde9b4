// Package engine is a fixture stand-in for the real engine package:
// counted-fate APIs whose trailing error must never be discarded.
package engine

type Engine struct{}

func (e *Engine) ForwardBatch(frames [][]byte, ingress uint8, metas []uint64) (int, error) {
	return len(frames), nil
}

func (e *Engine) SubmitBatchOwned(frames [][]byte) (int, error) { return len(frames), nil }

// Rebuild is NOT a counted-fate API: discarding its error is someone
// else's problem, not this analyzer's.
func (e *Engine) Rebuild() error { return nil }
