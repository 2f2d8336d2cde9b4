// Redial/backoff chaos battery: a flapping TCP listener and seeded
// connection resets. The contracts under test: the load client
// reconnects under the capped-backoff schedule, every in-flight loss
// is counted (client Dropped / server ConnResets) rather than hung on,
// frames that did arrive stay exactly conserved into the engine, and
// no goroutine outlives its source.
package ingress_test

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	menshen "repro"
	"repro/internal/faultinject"
	"repro/internal/ingress"
	"repro/internal/trafficgen"
)

// engineSubmitted checks a drained engine's ledger and returns the
// frames its tenants saw.
func engineSubmitted(t *testing.T, eng *menshen.Engine) uint64 {
	t.Helper()
	st := eng.Stats()
	if err := st.Conserved(); err != nil {
		t.Error(err)
	}
	return st.Totals().Submitted
}

// TestTCPRedialAcrossListenerFlaps kills and rebinds the listener
// under a continuously sending client: the client must ride every flap
// with capped-backoff redials, never hang, and every frame the servers
// read must be conserved into the engine.
func TestTCPRedialAcrossListenerFlaps(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()
	eng := newEngine(t, 1)

	src, err := ingress.ListenTCP("127.0.0.1:0", ingress.Config{})
	if err != nil {
		t.Fatal(err)
	}
	addr := src.Addr() // fixed for every rebind, so redials find the revived listener
	serve := func(s *ingress.TCPSource) chan error {
		done := make(chan error, 1)
		go func() { done <- s.Serve(context.Background(), eng) }()
		return done
	}
	done := serve(src)

	client, err := trafficgen.DialLoad("tcp", addr, ingress.Backoff{Base: time.Millisecond, Max: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	client.RedialAttempts = 500 // generous budget: downtime windows must never exhaust it
	defer client.Close()

	// The sender hammers continuously, including straight through every
	// downtime window — that is what forces the redial path.
	stop := make(chan struct{})
	var senderErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		frames := calcFrames(64, 21)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := client.SendBatch(frames); err != nil {
				senderErr = err
				return
			}
		}
	}()

	const rounds = 3
	var received, conns uint64 // summed over the retired listeners
	retire := func() {
		is := snap(src)
		received, conns = received+is.Received, conns+is.ConnsAccepted
	}
	for round := 0; round < rounds; round++ {
		waitUntil(t, "progress on the live listener", func() bool { return snap(src).Received >= 1000 })
		if round == rounds-1 {
			break
		}
		// Flap: tear the listener down mid-stream, leave a downtime
		// window with the client still sending, then rebind on the same
		// address.
		if err := src.Close(); err != nil {
			t.Fatal(err)
		}
		<-done
		retire()
		time.Sleep(20 * time.Millisecond)
		if src, err = ingress.ListenTCP(addr, ingress.Config{}); err != nil {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		done = serve(src)
	}
	close(stop)
	wg.Wait()
	if senderErr != nil {
		t.Fatalf("sender gave up: %v", senderErr)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	retire()
	eng.Drain()

	if client.Redials() < rounds-1 {
		t.Errorf("client redialed %d times across %d flaps, want >= %d", client.Redials(), rounds-1, rounds-1)
	}
	// In-flight loss is allowed (frames written into a dying socket)
	// but must stay an inequality, never an excess: the servers cannot
	// have read more than the client durably wrote.
	if received > client.Sent() {
		t.Errorf("servers received %d frames, client only sent %d", received, client.Sent())
	}
	if conns < rounds {
		t.Errorf("accepted %d connections across %d rounds, want >= %d", conns, rounds, rounds)
	}
	// Whatever did arrive is exactly conserved into the engine.
	if got := engineSubmitted(t, eng); got != received {
		t.Errorf("engine saw %d frames, transports received %d", got, received)
	}
	// No goroutine outlives its source: the accept loops, per-conn RX
	// loops, and sender are all gone once closed (settle-polled — the
	// runtime needs a moment to retire exiting goroutines).
	waitUntil(t, "goroutines to settle", func() bool {
		runtime.Gosched()
		return runtime.NumGoroutine() <= goroutinesBefore+3
	})
}

// TestTCPSeededConnectionResets runs the fault-injection plane against
// the stream transport: a seeded injector sentences ~2% of frames to a
// connection reset. The client must redial through every reset and
// finish the workload; resets and losses land in counters, and the
// received side remains exactly conserved.
func TestTCPSeededConnectionResets(t *testing.T) {
	eng := newEngine(t, 1)
	inj := faultinject.New(faultinject.Plan{Seed: 11, Drop: 0.02})
	src, err := ingress.ListenTCP("127.0.0.1:0", ingress.Config{Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	ing := startSource(t, eng, src)

	client, err := trafficgen.DialLoad("tcp", src.Addr(), ingress.Backoff{Base: time.Millisecond, Max: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	client.RedialAttempts = 500
	defer client.Close()

	// Keep pumping until the client has both delivered a full workload
	// AND ridden out at least one reset. The second condition matters: a
	// small workload can fit entirely in kernel socket buffers, letting
	// the client finish writing before the server's RST ever reaches it.
	const total = 4000
	frames := calcFrames(64, 13)
	sent := 0
	for sent < total || client.Redials() == 0 {
		if sent > 200*total {
			t.Fatalf("no reset reached the client in %d frames (server resets: %d)", sent, snap(src).ConnResets)
		}
		n, err := client.SendBatch(frames)
		if err != nil {
			t.Fatalf("client gave up mid-chaos: %v", err)
		}
		sent += n
	}
	// Quiesce: the receive counter stops moving once the last surviving
	// connection has drained everything the client managed to deliver.
	var last uint64
	waitUntil(t, "receive counter to quiesce", func() bool {
		cur := snap(src).Received
		settled := cur == last && cur > 0
		last = cur
		if !settled {
			time.Sleep(20 * time.Millisecond)
		}
		return settled
	})
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	eng.Drain()

	is := snap(src)
	if is.ConnResets == 0 {
		t.Error("seeded injector (2% over 4000 frames) caused no connection resets")
	}
	if client.Redials() == 0 {
		t.Error("client rode out resets without a single redial")
	}
	if is.Received > client.Sent() {
		t.Errorf("received %d > client sent %d", is.Received, client.Sent())
	}
	if client.Sent()+client.Dropped() != uint64(sent) {
		t.Errorf("client ledger: sent %d + dropped %d != %d offered", client.Sent(), client.Dropped(), sent)
	}
	if got := engineSubmitted(t, eng); got != is.Received {
		t.Errorf("engine saw %d frames, transport received %d", got, is.Received)
	}
}

// TestBackoffSchedule pins the capped-exponential contract: doubling
// from Base, clamped at Max, overflow-safe at absurd attempt counts,
// and defaulted from the zero value.
func TestBackoffSchedule(t *testing.T) {
	b := ingress.Backoff{Base: time.Millisecond, Max: 100 * time.Millisecond}
	want := []time.Duration{
		1 * time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond, 8 * time.Millisecond,
		16 * time.Millisecond, 32 * time.Millisecond, 64 * time.Millisecond, 100 * time.Millisecond,
	}
	for attempt, w := range want {
		if got := b.Delay(attempt); got != w {
			t.Errorf("Delay(%d) = %v, want %v", attempt, got, w)
		}
	}
	if got := b.Delay(100000); got != b.Max {
		t.Errorf("Delay(100000) = %v, want clamp at %v", got, b.Max)
	}
	var zero ingress.Backoff
	if got := zero.Delay(0); got != ingress.DefaultBackoff.Base {
		t.Errorf("zero-value Delay(0) = %v, want %v", got, ingress.DefaultBackoff.Base)
	}
	if got := zero.Delay(64); got != ingress.DefaultBackoff.Max {
		t.Errorf("zero-value Delay(64) = %v, want %v", got, ingress.DefaultBackoff.Max)
	}
}
