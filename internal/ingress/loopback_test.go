// Loopback integration battery: end-to-end ingress over real sockets.
// A live engine sits behind each transport and every test closes the
// books exactly — client-sent frames equal delivered frames plus every
// counted drop class, on both the transport's counters and the
// engine's per-tenant telemetry. The external test package breaks the
// engine <- ingress <- facade import cycle.
package ingress_test

import (
	"net"
	"path/filepath"
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

// newEngine returns a started facade engine with CALC loaded as tenant
// 1 — the sink every loopback test submits into.
func newEngine(t *testing.T, workers int) *menshen.Engine {
	t.Helper()
	dev := menshen.NewDevice()
	p, err := p4progs.ByName("CALC")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.LoadModule(p.Source(), 1); err != nil {
		t.Fatal(err)
	}
	eng, err := dev.NewEngine(menshen.EngineConfig{Workers: workers, BatchSize: 32, QueueDepth: 2048})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	return eng
}

// calcFrames generates n well-formed CALC frames for tenant 1.
func calcFrames(n int, seed uint64) [][]byte {
	gen := trafficgen.DefaultGen("CALC", 1, 0, 16, trafficgen.NewPRNG(seed))
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = gen(i)
	}
	return frames
}

// waitUntil polls cond to true within a generous deadline.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// startSource serves src into eng under a Listeners aggregate wired to
// the engine's stats surface, and returns the aggregate.
func startSource(t *testing.T, eng *menshen.Engine, src ingress.Source) *ingress.Listeners {
	t.Helper()
	ing := ingress.NewListeners(src)
	ing.Start(eng)
	eng.RegisterIngress(ing.Fill)
	t.Cleanup(func() { _ = ing.Close() })
	return ing
}

// snap returns src's current counters.
func snap(src ingress.Source) engine.IngressStats {
	var st engine.IngressStats
	src.StatsInto(&st)
	return st
}

// settled is the number of frames a transport has read and settled:
// its ingress fates summed.
func settled(is engine.IngressStats) uint64 {
	var n uint64
	for _, v := range is.Fates() {
		n += v
	}
	return n
}

// assertConservation waits until the transport has read every sent
// frame, stops the listeners, drains the engine and closes the books
// for the single-source run: the transport's fates sum to what was
// sent, the engine saw exactly the frames it received, and both ledgers
// balance. It returns the transport's final counters.
func assertConservation(t *testing.T, eng *menshen.Engine, ing *ingress.Listeners, src ingress.Source, sent uint64) engine.IngressStats {
	t.Helper()
	waitUntil(t, "all frames received", func() bool { return snap(src).Received == sent })
	if err := ing.Close(); err != nil {
		t.Fatalf("close listeners: %v", err)
	}
	eng.Drain()
	is := snap(src)
	if got := settled(is); got != sent {
		t.Errorf("transport ledger: fates %v sum to %d, want %d sent", is.Fates(), got, sent)
	}
	st := eng.Stats()
	if err := st.Conserved(); err != nil {
		t.Error(err)
	}
	if tot := st.Totals(); tot.Submitted != is.Received {
		t.Errorf("engine saw %d frames, transport received %d", tot.Submitted, is.Received)
	}
	// The registered filler surfaces the same counters through the
	// engine snapshot (and so through /metrics).
	if len(st.Ingress) != 1 || st.Ingress[0].Received != is.Received {
		t.Errorf("EngineStats.Ingress = %+v, want one entry with Received %d", st.Ingress, is.Received)
	}
	return is
}

// sendPaced pushes frames through client, pacing against the source's
// receive counter so a lossy datagram socket never overruns its kernel
// buffer (window << ReadBuffer).
func sendPaced(t *testing.T, client *trafficgen.LoadClient, src ingress.Source, frames [][]byte, window int) {
	t.Helper()
	sent := 0
	for sent < len(frames) {
		end := sent + 128
		if end > len(frames) {
			end = len(frames)
		}
		n, err := client.SendBatch(frames[sent:end])
		if err != nil {
			t.Fatal(err)
		}
		sent += n
		waitUntil(t, "receiver to keep pace", func() bool {
			return snap(src).Received+uint64(window) >= uint64(sent)
		})
	}
}

func TestUDPLoopbackConservation(t *testing.T) {
	eng := newEngine(t, 2)
	src, err := ingress.ListenUDP("127.0.0.1:0", ingress.Config{ReadBuffer: 1 << 22})
	if err != nil {
		t.Fatal(err)
	}
	ing := startSource(t, eng, src)

	client, err := trafficgen.DialLoad("udp", src.Addr(), ingress.Backoff{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const total = 20000
	sendPaced(t, client, src, calcFrames(total, 9), 2048)
	if client.Sent() != total || client.Dropped() != 0 {
		t.Fatalf("client sent %d dropped %d, want %d/0", client.Sent(), client.Dropped(), total)
	}
	assertConservation(t, eng, ing, src, total)
}

func TestTCPLoopbackConservation(t *testing.T) {
	eng := newEngine(t, 2)
	src, err := ingress.ListenTCP("127.0.0.1:0", ingress.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ing := startSource(t, eng, src)

	// Two concurrent clients share the listener; TCP's own delivery
	// guarantees make the conservation exact with no pacing at all.
	const perClient = 10000
	errs := make(chan error, 2)
	for c := 0; c < 2; c++ {
		c := c
		go func() {
			client, err := trafficgen.DialLoad("tcp", src.Addr(), ingress.Backoff{})
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			frames := calcFrames(perClient, uint64(100+c))
			for sent := 0; sent < perClient; {
				n, err := client.SendBatch(frames[sent:min(sent+256, perClient)])
				if err != nil {
					errs <- err
					return
				}
				sent += n
			}
			errs <- nil
		}()
	}
	for c := 0; c < 2; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	is := assertConservation(t, eng, ing, src, 2*perClient)
	if is.ConnsAccepted != 2 || is.ConnResets != 0 || is.DecodeErrors != 0 {
		t.Errorf("conns %d resets %d decode-errs %d, want 2/0/0", is.ConnsAccepted, is.ConnResets, is.DecodeErrors)
	}
}

func TestUnixgramLoopbackConservation(t *testing.T) {
	eng := newEngine(t, 2)
	path := filepath.Join(t.TempDir(), "ing.sock")
	src, err := ingress.ListenUnixgram(path, ingress.Config{ReadBuffer: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ing := startSource(t, eng, src)

	client, err := trafficgen.DialLoad("unixgram", path, ingress.Backoff{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// The kernel blocks a unixgram sender at a full receive queue, so
	// the transport is lossless end to end with no pacing.
	const total = 10000
	frames := calcFrames(total, 5)
	for sent := 0; sent < total; {
		n, err := client.SendBatch(frames[sent:min(sent+256, total)])
		if err != nil {
			t.Fatal(err)
		}
		sent += n
	}
	assertConservation(t, eng, ing, src, total)
}

// TestUDPDropClasses drives one datagram into each counted fate: a
// runt below the tenant-attribution minimum, an oversize datagram, and
// a well-formed frame — each lands in exactly one counter.
func TestUDPDropClasses(t *testing.T) {
	eng := newEngine(t, 1)
	src, err := ingress.ListenUDP("127.0.0.1:0", ingress.Config{})
	if err != nil {
		t.Fatal(err)
	}
	startSource(t, eng, src)

	conn, err := net.Dial("udp", src.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	writes := [][]byte{
		make([]byte, 8), // short: cannot carry a VLAN tenant tag
		make([]byte, ingress.DefaultMaxFrame+500), // oversize: exceeds the pool class
		calcFrames(1, 77)[0],                      // well-formed
	}
	for _, w := range writes {
		if _, err := conn.Write(w); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "all fates counted", func() bool {
		return settled(snap(src)) == 3
	})
	is := snap(src)
	if is.ShortDropped != 1 || is.OversizeDropped != 1 || is.Received != 1 {
		t.Fatalf("fates: short %d oversize %d received %d, want 1/1/1", is.ShortDropped, is.OversizeDropped, is.Received)
	}
}

// TestUDPReconfigFrameDropped: socket ingress is untrusted. A
// well-formed Figure 7 key-mask frame arriving on a UDP socket is
// submitted like any datagram, steered to its VLAN tenant and dropped
// by the shard's packet filter — one PipelineDrops for tenant 1, and
// every shard's key mask and module checksum unchanged.
func TestUDPReconfigFrameDropped(t *testing.T) {
	eng := newEngine(t, 2)
	src, err := ingress.ListenUDP("127.0.0.1:0", ingress.Config{})
	if err != nil {
		t.Fatal(err)
	}
	startSource(t, eng, src)

	const stg = 2
	var mask tables.Key
	for i := range mask {
		mask[i] = 0x3C
	}
	frame, err := reconfig.AppendPacket(nil, 1, reconfig.Command{
		Resource: reconfig.MakeResourceID(stg, reconfig.KindKeyMask),
		Index:    1,
		Payload:  mask[:],
	})
	if err != nil {
		t.Fatal(err)
	}
	type shardState struct {
		mask tables.Key
		sum  uint64
	}
	shards := func() []shardState {
		out := make([]shardState, eng.Workers())
		for w := range out {
			pipe, err := eng.ShardPipeline(w)
			if err != nil {
				t.Fatal(err)
			}
			out[w].mask, _ = pipe.Stages[stg].Mask.Lookup(1)
			out[w].sum = pipe.ModuleChecksum(1)
		}
		return out
	}
	before := shards()

	conn, err := net.Dial("udp", src.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the frame to be submitted", func() bool { return snap(src).Submitted == 1 })
	eng.Drain()

	st := eng.Stats()
	if got := st.Tenants[1].PipelineDrops; got != 1 {
		t.Errorf("tenant 1 PipelineDrops = %d, want 1", got)
	}
	if st.ReconfigIssued != 0 || st.ReconfigApplied != 0 {
		t.Errorf("reconfiguration issued %d, applied %d; want none", st.ReconfigIssued, st.ReconfigApplied)
	}
	for w, got := range shards() {
		if got != before[w] {
			t.Errorf("shard %d: key mask %x checksum %#x, want %x %#x", w, got.mask, got.sum, before[w].mask, before[w].sum)
		}
	}
}

// TestTCPDecodeFates drives the stream transport's counted fates: a
// framing violation closes the connection under DecodeErrors, while a
// valid-length-but-short frame is counted and the stream keeps
// carrying frames.
func TestTCPDecodeFates(t *testing.T) {
	eng := newEngine(t, 1)
	src, err := ingress.ListenTCP("127.0.0.1:0", ingress.Config{})
	if err != nil {
		t.Fatal(err)
	}
	startSource(t, eng, src)
	valid := calcFrames(2, 31)

	t.Run("framing-violation-closes-conn", func(t *testing.T) {
		for _, hdr := range [][]byte{{0x00, 0x00}, {0xff, 0xff, 0x01}} {
			before := snap(src).DecodeErrors
			conn, err := net.Dial("tcp", src.Addr())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write(hdr); err != nil {
				t.Fatal(err)
			}
			// The server must close the connection: our read drains to EOF
			// (or a reset) rather than blocking on a stalled stream.
			_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			if _, err := conn.Read(make([]byte, 1)); err == nil {
				t.Fatal("server kept the connection open after a framing violation")
			}
			conn.Close()
			waitUntil(t, "decode error counted", func() bool { return snap(src).DecodeErrors == before+1 })
		}
	})

	t.Run("short-frame-keeps-stream", func(t *testing.T) {
		conn, err := net.Dial("tcp", src.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		wire := []byte{0x00, 0x05, 1, 2, 3, 4, 5} // valid length, below min
		for _, f := range valid {
			if wire, err = ingress.AppendFrame(wire, f); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, "short counted and stream alive", func() bool {
			is := snap(src)
			return is.ShortDropped == 1 && is.Received == uint64(len(valid))
		})
	})
}
