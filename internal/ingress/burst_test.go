// Burst RX battery: the datagram RX loop moves a burst per syscall
// where the platform has recvmmsg and a burst of one elsewhere. These
// tests pin what must not depend on which: counted fates and engine
// outputs (parity), latency at low rate (a burst never waits to fill),
// and the ownership of the buffers the loop keeps on loan (shutdown).
package ingress_test

import (
	"bytes"
	"context"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	menshen "repro"
	"repro/internal/engine"
	"repro/internal/ingress"
	"repro/internal/p4progs"
	"repro/internal/reconfig"
	"repro/internal/tables"
	"repro/internal/trafficgen"
)

// dgramTransports are the two transports that share the burst RX loop.
var dgramTransports = []string{"udp", "unixgram"}

// listenDgram binds a fresh datagram source of the given transport.
func listenDgram(t *testing.T, transport string) ingress.Source {
	t.Helper()
	var src ingress.Source
	var err error
	if transport == "udp" {
		src, err = ingress.ListenUDP("127.0.0.1:0", ingress.Config{ReadBuffer: 1 << 22})
	} else {
		src, err = ingress.ListenUnixgram(filepath.Join(t.TempDir(), "b.sock"), ingress.Config{ReadBuffer: 1 << 20})
	}
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// captureEngine starts a single-worker engine — one shard, so
// submission order IS processing order — with the named programs loaded
// as tenants 1..n. Its OnBatch concatenates each tenant's post-pipeline
// output bytes into the returned map (a 0xDD marker where a frame
// died); read the map after Drain.
func captureEngine(t *testing.T, programs ...string) (*menshen.Engine, map[uint16][]byte) {
	t.Helper()
	dev := menshen.NewDevice()
	for i, name := range programs {
		p, err := p4progs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dev.LoadModule(p.Source(), uint16(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	out := map[uint16][]byte{}
	eng, err := dev.NewEngine(menshen.EngineConfig{
		Workers:    1,
		BatchSize:  16,
		QueueDepth: 4096,
		OnBatch: func(_ int, tenant uint16, results []menshen.EngineResult) {
			mu.Lock()
			defer mu.Unlock()
			for _, r := range results {
				if r.Dropped {
					out[tenant] = append(out[tenant], 0xDD)
					continue
				}
				out[tenant] = append(out[tenant], r.Data...)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	return eng, out
}

// seededMix builds the parity traffic: CALC and Firewall frames of
// mixed sizes for two loaded tenants and one unloaded, with runts,
// frames of exactly MaxFrame, datagrams of MaxFrame+1 and beyond, and
// one reconfiguration-port frame (a key-mask write for the idle tenant
// 3, which the shard's packet filter drops as data) at seeded
// positions.
func seededMix(t *testing.T, seed uint64, n int) [][]byte {
	t.Helper()
	rng := trafficgen.NewPRNG(seed)
	fw := trafficgen.DefaultGen("Firewall", 2, 0, 8, trafficgen.NewPRNG(seed+1))
	var mask tables.Key
	rc, err := reconfig.AppendPacket(nil, 3, reconfig.Command{
		Resource: reconfig.MakeResourceID(0, reconfig.KindKeyMask),
		Index:    3,
		Payload:  mask[:],
	})
	if err != nil {
		t.Fatal(err)
	}
	frames := make([][]byte, n)
	for i := range frames {
		op, a, b := uint16(1+rng.Intn(2)), uint32(rng.Intn(1000)), uint32(rng.Intn(1000))
		switch k := rng.Intn(16); {
		case k == 0:
			frames[i] = make([]byte, 1+rng.Intn(ingress.DefaultMinFrame-1)) // short
		case k == 1:
			frames[i] = make([]byte, ingress.DefaultMaxFrame+1) // one byte over
		case k == 2:
			frames[i] = make([]byte, ingress.DefaultMaxFrame+1+rng.Intn(2000)) // well over
		case k == 3:
			frames[i] = trafficgen.CalcPacket(1, op, a, b, ingress.DefaultMaxFrame) // exactly the maximum
		case k == 4:
			frames[i] = trafficgen.CalcPacket(9, op, a, b, 64) // no such tenant
		case k < 10:
			frames[i] = fw(i)
		default:
			frames[i] = trafficgen.CalcPacket(1, op, a, b, 64+rng.Intn(1200))
		}
	}
	frames[n/2] = rc
	return frames
}

// mixRun is what one pass of the mix through a source leaves behind.
type mixRun struct {
	stats engine.IngressStats
	out   map[uint16][]byte // per-tenant concatenated outputs, 0xDD where a frame died
	drops map[uint16]uint64 // per-tenant PipelineDrops
}

// runMix pushes frames through a fresh source of the given transport —
// filled by the platform's burst fill, or by the portable one-Read fill
// when portable — into a fresh single-worker engine.
func runMix(t *testing.T, transport string, portable bool, frames [][]byte) mixRun {
	t.Helper()
	eng, out := captureEngine(t, "CALC", "Firewall", "NetCache")
	src := listenDgram(t, transport)
	if portable {
		if err := ingress.UsePortableFill(src); err != nil {
			t.Fatal(err)
		}
	}
	ing := startSource(t, eng, src)
	conn, err := net.Dial(transport, src.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i, f := range frames {
		if _, err := conn.Write(f); err != nil {
			t.Fatal(err)
		}
		if i%64 == 63 { // stay far inside the UDP receive buffer
			waitUntil(t, "receiver to keep pace", func() bool { return settled(snap(src))+64 > uint64(i) })
		}
	}
	waitUntil(t, "every datagram to meet its fate", func() bool { return settled(snap(src)) == uint64(len(frames)) })
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	eng.Drain()
	drops := map[uint16]uint64{}
	for id, ts := range eng.Stats().Tenants {
		drops[id] = ts.PipelineDrops
	}
	return mixRun{stats: snap(src), out: out, drops: drops}
}

// TestBurstFillParity pushes one seeded mix through the recvmmsg fill
// and through the portable one-read fill: every counted fate bar Reads,
// and every tenant's output bytes, must be identical. (On a platform
// without recvmmsg both runs take the portable fill and the test is a
// determinism check.)
func TestBurstFillParity(t *testing.T) {
	for _, transport := range dgramTransports {
		t.Run(transport, func(t *testing.T) {
			frames := seededMix(t, 41, 1200)
			burst := runMix(t, transport, false, frames)
			one := runMix(t, transport, true, frames)

			if one.stats.Reads != uint64(len(frames)) {
				t.Errorf("portable fill: %d reads for %d datagrams, want one each", one.stats.Reads, len(frames))
			}
			if burst.stats.Reads == 0 || burst.stats.Reads > uint64(len(frames)) {
				t.Errorf("burst fill: %d reads for %d datagrams", burst.stats.Reads, len(frames))
			}
			t.Logf("burst fill: %d datagrams in %d reads", len(frames), burst.stats.Reads)
			bs, ps := burst.stats, one.stats
			bs.Reads, ps.Reads = 0, 0
			bs.Listen, ps.Listen = "", "" // fresh socket per run
			if bs != ps {
				t.Errorf("counted fates diverge:\n burst    %+v\n portable %+v", bs, ps)
			}
			if bs.ShortDropped == 0 || bs.OversizeDropped == 0 || bs.Received == 0 {
				t.Errorf("mix did not reach every fate: %+v", bs)
			}
			if burst.drops[3] != 1 || one.drops[3] != 1 {
				t.Errorf("reconfiguration frame: tenant 3 PipelineDrops burst %d, portable %d, want 1 each (filtered as data)", burst.drops[3], one.drops[3])
			}
			for tenant, n := range one.drops {
				if burst.drops[tenant] != n {
					t.Errorf("tenant %d: PipelineDrops burst %d, portable %d", tenant, burst.drops[tenant], n)
				}
			}
			if len(burst.out) != len(one.out) {
				t.Fatalf("burst run produced %d tenants, portable run %d", len(burst.out), len(one.out))
			}
			for tenant, want := range one.out {
				if got := burst.out[tenant]; !bytes.Equal(got, want) {
					t.Errorf("tenant %d: burst output (%d bytes) diverges from portable (%d bytes)", tenant, len(got), len(want))
				}
			}
		})
	}
}

// TestBurstNeverWaits sends datagrams one at a time, each only after
// the last met its fate: every one must come back from its own read —
// Reads == the frames settled — because the fill
// returns what is queued instead of waiting for a burst to fill.
func TestBurstNeverWaits(t *testing.T) {
	for _, transport := range dgramTransports {
		t.Run(transport, func(t *testing.T) {
			eng := newEngine(t, 1)
			src := listenDgram(t, transport)
			startSource(t, eng, src)
			conn, err := net.Dial(transport, src.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			frames := calcFrames(100, 3)
			frames[10] = make([]byte, 4)                         // short
			frames[20] = make([]byte, ingress.DefaultMaxFrame+9) // oversize
			for i, f := range frames {
				if _, err := conn.Write(f); err != nil {
					t.Fatal(err)
				}
				waitUntil(t, "the datagram to meet its fate", func() bool { return settled(snap(src)) == uint64(i+1) })
			}
			is := snap(src)
			if is.ShortDropped != 1 || is.OversizeDropped != 1 || is.Received != 98 {
				t.Fatalf("fates: short %d oversize %d received %d, want 1/1/98", is.ShortDropped, is.OversizeDropped, is.Received)
			}
			if is.Reads != 100 {
				t.Errorf("%d reads for 100 datagrams sent one at a time, want 100", is.Reads)
			}
		})
	}
}

// ledgerSink is an ingress.Sink that only keeps the buffer ledger: how
// many buffers went out on loan and how many came back, released or
// submitted.
type ledgerSink struct {
	borrowed, released, submitted atomic.Int64
}

func (s *ledgerSink) Borrow(n int) []byte { s.borrowed.Add(1); return make([]byte, n) }
func (s *ledgerSink) Release([]byte)      { s.released.Add(1) }
func (s *ledgerSink) SubmitBatchOwned(frames [][]byte) (int, error) {
	s.submitted.Add(int64(len(frames)))
	return len(frames), nil
}

// TestBurstShutdownReturnsBuffers parks the RX loop on an empty socket
// with its standing borrow outstanding, then stops it — by Close and by
// context: Serve must return promptly and cleanly, and every buffer it
// ever borrowed must have been submitted or released.
func TestBurstShutdownReturnsBuffers(t *testing.T) {
	for _, transport := range dgramTransports {
		for _, how := range []string{"close", "cancel"} {
			t.Run(transport+"/"+how, func(t *testing.T) {
				src := listenDgram(t, transport)
				defer src.Close()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var sink ledgerSink
				done := make(chan error, 1)
				go func() { done <- src.Serve(ctx, &sink) }()

				conn, err := net.Dial(transport, src.Addr())
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				frames := calcFrames(40, 8)
				frames[5] = make([]byte, 3) // a short one: its buffer stays on loan
				for _, f := range frames {
					if _, err := conn.Write(f); err != nil {
						t.Fatal(err)
					}
				}
				waitUntil(t, "all datagrams read", func() bool { return settled(snap(src)) == uint64(len(frames)) })
				// The loop is now parked in (or on its way into) the
				// empty socket, holding a full burst of buffers.
				if how == "close" {
					if err := src.Close(); err != nil {
						t.Fatal(err)
					}
				} else {
					cancel()
				}
				select {
				case err := <-done:
					if err != nil {
						t.Fatalf("Serve returned %v on shutdown, want nil", err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("Serve did not return after shutdown")
				}
				b, r, s := sink.borrowed.Load(), sink.released.Load(), sink.submitted.Load()
				if s != int64(len(frames)-1) {
					t.Errorf("submitted %d frames, want %d", s, len(frames)-1)
				}
				if b != r+s {
					t.Errorf("buffer ledger open: borrowed %d != released %d + submitted %d", b, r, s)
				}
			})
		}
	}
}
