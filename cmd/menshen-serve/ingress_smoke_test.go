// Smoke test of the socket ingress plane end to end through the real
// binary: build menshen-serve, run it as a pure serving daemon
// (-packets 0, -listen-udp, management API mounted), push 200k frames
// at the UDP listener with the trafficgen load client, scrape /metrics
// mid-run, and assert exact conservation from the scraped counters —
// every client-sent frame is either forwarded or sitting in a named
// drop counter. CI runs this as its ingress smoke step.
package main

import (
	"bufio"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/ingress"
	"repro/internal/trafficgen"
)

func TestIngressUDPSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "menshen-serve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	// -packets 0 plus -mgmt-linger runs the binary as a serving daemon:
	// no generated load, sockets and engine alive until the test kills
	// the process.
	cmd := exec.Command(bin,
		"-listen-udp", "127.0.0.1:0",
		"-packets", "0",
		"-queue", "8192",
		"-mgmt-addr", "127.0.0.1:0",
		"-mgmt-linger", "300s")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()

	// The CLI prints both bound addresses before serving.
	mgmtCh := make(chan string, 1)
	udpCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "mgmt: listening on "); ok {
				mgmtCh <- strings.TrimSpace(rest)
			}
			if rest, ok := strings.CutPrefix(line, "ingress: udp listening on "); ok {
				udpCh <- strings.TrimSpace(rest)
			}
		}
	}()
	var base, udpAddr string
	for i := 0; i < 2; i++ {
		select {
		case base = <-mgmtCh:
		case udpAddr = <-udpCh:
		case <-time.After(30 * time.Second):
			t.Fatalf("bind lines never appeared (mgmt %q, udp %q)", base, udpAddr)
		}
	}

	client, err := trafficgen.DialLoad("udp", udpAddr, ingress.Backoff{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Push 200k frames, paced against the scraped receive counter so
	// the kernel socket buffer (4 MiB in the serve binary) never
	// overruns — UDP loss upstream of the socket would break the exact
	// conservation this test exists to prove.
	const total = 200000
	const window = 8192
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
		n := len(frames)
		if rem := total - sent; n > rem {
			n = rem
		}
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
					t.Fatalf("receiver stalled: scraped %v received of %d sent", midRun, sent)
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
	for name, want := range map[string]float64{
		"menshen_ingress_short_frames_total":    0,
		"menshen_ingress_oversize_frames_total": 0,
		"menshen_ingress_rejected_frames_total": 0,
	} {
		if got := get(name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if sub := get("menshen_ingress_submitted_frames_total"); sub != total {
		t.Errorf("ingress submitted %v, want %d", sub, total)
	}
	// Engine side: tenant 1 saw exactly the submitted frames, and every
	// frame is forwarded or in a named drop counter.
	tenantSub := get("menshen_tenant_submitted_frames_total")
	if tenantSub != total {
		t.Errorf("tenant submitted %v, want %d", tenantSub, total)
	}
	forwarded := get("menshen_tenant_forwarded_frames_total")
	dropped := get("menshen_tenant_dropped_frames_total")
	if forwarded+dropped != tenantSub {
		t.Errorf("conservation: forwarded %v + dropped %v != submitted %v", forwarded, dropped, tenantSub)
	}
	if client.Dropped() != 0 {
		t.Errorf("load client dropped %d frames on a healthy socket", client.Dropped())
	}
}
