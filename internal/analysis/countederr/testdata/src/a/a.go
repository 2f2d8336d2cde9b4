// Package a exercises the countederr analyzer: every discard shape for
// a counted-fate call, plus the handled control cases.
package a

import (
	"repro/internal/engine"
	"repro/internal/ingress"
)

func bad(e *engine.Engine, frames [][]byte) {
	e.ForwardBatch(frames, 0, nil)         // want "result discarded from counted-fate API ForwardBatch"
	n, _ := e.ForwardBatch(frames, 0, nil) // want "error assigned to _"
	_ = n
	_, _ = e.SubmitBatchOwned(frames)    // want "error assigned to _"
	go e.ForwardBatch(frames, 0, nil)    // want "discarded by go statement"
	defer e.ForwardBatch(frames, 0, nil) // want "discarded by defer"
}

func badIngress(s *ingress.Source, c *ingress.LoadClient, frames [][]byte) {
	go s.Serve()               // want "discarded by go statement"
	c.SendBatch(frames)        // want "result discarded from counted-fate API SendBatch"
	_, _ = c.SendBatch(frames) // want "error assigned to _"
}

func good(e *engine.Engine, frames [][]byte) error {
	acc, err := e.ForwardBatch(frames, 0, nil)
	_ = acc
	if _, err := e.SubmitBatchOwned(frames); err != nil {
		return err
	}
	e.Rebuild() // not a counted-fate API: fine
	return err
}

func goodIngress(s *ingress.Source, c *ingress.LoadClient, frames [][]byte) error {
	if err := s.Serve(); err != nil {
		return err
	}
	sent, err := c.SendBatch(frames)
	_ = sent
	return err
}
