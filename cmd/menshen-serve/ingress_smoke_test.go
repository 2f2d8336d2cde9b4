// Smoke test of the socket ingress plane end to end through run, in
// process: menshen-serve as a pure serving daemon (-packets 0,
// -listen-udp, management API mounted), frames pushed at the UDP
// listener with the trafficgen load client, /metrics scraped mid-run,
// and exact conservation asserted from the scraped fate ledger — every
// client-sent frame has exactly one fate — and again by run's own
// ledger check on exit. CI runs this as its ingress smoke step.
package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/ingress"
	"repro/internal/trafficgen"
)

// ingressSmokeInFlight bounds the frames sent ahead of the scraped
// receive counter, in both builds. The kernel charges about 1 KiB per
// small datagram against the 8 MiB it grants for the daemon's 4 MiB
// SO_RCVBUF: 8 192 in flight plus the next 512-frame batch nearly fill
// it, and a datagram the kernel drops there reaches no counter of ours.
// 2 048 plus a batch stays under a third of it.
const ingressSmokeInFlight = 2048

func TestIngressUDPSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("serves a UDP load through a live daemon; skipped in -short")
	}
	// -packets 0 plus -mgmt-linger runs as a serving daemon: no
	// generated load, sockets and engine alive until the test cancels.
	s := startServe(t,
		"-listen-udp", "127.0.0.1:0",
		"-packets", "0",
		"-queue", "8192",
		"-mgmt-addr", "127.0.0.1:0",
		"-mgmt-linger", "300s")
	// Both bound addresses are printed before serving.
	base := s.await(t, "mgmt: listening on ")
	udpAddr := s.await(t, "ingress: udp listening on ")

	client, err := trafficgen.DialLoad("udp", udpAddr, ingress.Backoff{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Push the frames, paced against the scraped receive counter so the
	// kernel socket buffer (4 MiB in the serve binary) never overruns —
	// UDP loss upstream of the socket would break the exact
	// conservation this test exists to prove.
	const total = ingressSmokeFrames
	const window = ingressSmokeInFlight
	gen := trafficgen.DefaultGen("CALC", 1, 0, 16, trafficgen.NewPRNG(29))
	frames := make([][]byte, 512)
	for i := range frames {
		frames[i] = gen(i)
	}
	received := func() float64 {
		return metricValue(t, httpGet(t, base+"/metrics"), "menshen_ingress_received_frames_total")
	}
	sent := 0
	var midRun float64
	for sent < total {
		n := min(len(frames), total-sent)
		got, err := client.SendBatch(frames[:n])
		if err != nil {
			t.Fatal(err)
		}
		sent += got
		if sent%window == 0 || sent == total {
			deadline := time.Now().Add(30 * time.Second)
			for {
				midRun = received()
				if midRun+window >= float64(sent) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("receiver stalled: ingress received %v of %d client-sent frames", midRun, sent)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}
	if midRun <= 0 || midRun > total {
		t.Fatalf("mid-run scrape saw %v received frames, want within (0, %d]", midRun, total)
	}

	// Wait until every frame has a terminal fate, then close the books
	// entirely from that scrape: transport ledger, engine hand-off, and
	// per-tenant fates.
	doc := awaitFates(t, base, total)
	get := func(name string) float64 { return metricValue(t, doc, name) }

	if got := get("menshen_ingress_received_frames_total"); got != total {
		t.Errorf("ingress received %v frames, client sent %d", got, total)
	}
	for fate, want := range map[string]float64{"submitted": total, "rejected": 0, "short": 0, "oversize": 0} {
		series := `menshen_ingress_frames_total{transport="udp",listen="` + udpAddr + `",fate="` + fate + `"}`
		if got := get(series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
	// Engine side: tenant 1 saw exactly the submitted frames, and
	// awaitFates found exactly that many frames with a fate.
	if sub := get("menshen_tenant_submitted_frames_total"); sub != total {
		t.Errorf("tenant submitted %v, want %d", sub, total)
	}
	if client.Dropped() != 0 {
		t.Errorf("load client dropped %d frames on a healthy socket", client.Dropped())
	}

	// The exit report closes the same books from the engine's side: run
	// fails if a tenant's or a transport's ledger does not balance.
	out, err := s.stop()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	if !strings.Contains(out, "--- ingress ---") {
		t.Errorf("exit report has no ingress section:\n%s", out)
	}
}
