package ingress

import "repro/internal/mmsg"

// UsePortableFill swaps a datagram source's fill for the one-Read
// portable form, so a linux test can push the same traffic through
// both fills of the one RX loop. Call it before Serve.
func UsePortableFill(src Source) error {
	s := src.(*dgramSource)
	mc, err := mmsg.New(s.conn)
	if err != nil {
		return err
	}
	s.fill = mc.RecvOne
	return nil
}
