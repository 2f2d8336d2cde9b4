package netdev

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(got, want, tolPct float64) bool {
	if want == 0 {
		return got == 0
	}
	return math.Abs(got-want)/want*100 <= tolPct
}

func TestLatencyCyclesMatchPaper(t *testing.T) {
	// §5.2: 64 B -> 79 cycles (NetFPGA), 106 (Corundum); MTU -> ~146-150
	// and ~129 cycles.
	nf := NetFPGA()
	if c := nf.LatencyCycles(64); c != 79 {
		t.Errorf("NetFPGA 64B = %d cycles, want 79", c)
	}
	if c := nf.LatencyCycles(1500); c < 140 || c > 152 {
		t.Errorf("NetFPGA 1500B = %d cycles, want ~146-150", c)
	}
	co := CorundumOptimized()
	if c := co.LatencyCycles(64); c != 106 {
		t.Errorf("Corundum 64B = %d cycles, want 106", c)
	}
	if c := co.LatencyCycles(1500); c != 129 {
		t.Errorf("Corundum 1500B = %d cycles, want 129", c)
	}
}

func TestLatencyNsMatchPaper(t *testing.T) {
	// 505.6 ns and 424 ns at 64 B; 960 ns and 516 ns at 1500 B.
	nf, co := NetFPGA(), CorundumOptimized()
	if ns := nf.LatencyNs(64); !approx(ns, 505.6, 1) {
		t.Errorf("NetFPGA 64B = %.1f ns, want ~505.6", ns)
	}
	if ns := co.LatencyNs(64); !approx(ns, 424, 1) {
		t.Errorf("Corundum 64B = %.1f ns, want ~424", ns)
	}
	if ns := nf.LatencyNs(1500); !approx(ns, 960, 4) {
		t.Errorf("NetFPGA 1500B = %.1f ns, want ~960", ns)
	}
	if ns := co.LatencyNs(1500); !approx(ns, 516, 1) {
		t.Errorf("Corundum 1500B = %.1f ns, want ~516", ns)
	}
}

func TestNetFPGAThroughputShape(t *testing.T) {
	// Figure 11a: line rate (10 G L1) across the sweep; L2 grows with
	// frame size.
	nf := NetFPGA()
	for _, size := range []int{64, 96, 128, 256, 512} {
		tp := nf.ThroughputAt(size)
		if !approx(tp.L1Gbps, 10, 1) {
			t.Errorf("NetFPGA %dB L1 = %.2f, want ~10", size, tp.L1Gbps)
		}
	}
	if nf.ThroughputAt(64).L2Gbps >= nf.ThroughputAt(512).L2Gbps {
		t.Error("L2 throughput should grow with frame size")
	}
	// 64 B line rate is 14.88 Mpps.
	if mpps := nf.ThroughputAt(64).Mpps; !approx(mpps, 14.88, 1) {
		t.Errorf("64B packet rate = %.2f Mpps, want ~14.88", mpps)
	}
}

func TestCorundumOptimizedReachesLineRateAt256(t *testing.T) {
	// Figure 11b: optimized Menshen achieves 100 Gbit/s at 256 bytes.
	co := CorundumOptimized()
	if tp := co.ThroughputAt(256); !approx(tp.L1Gbps, 100, 1) {
		t.Errorf("256B L1 = %.1f, want ~100", tp.L1Gbps)
	}
	// Below 256 B it is pipeline-limited (< 90 G).
	if tp := co.ThroughputAt(128); tp.L1Gbps > 90 {
		t.Errorf("128B L1 = %.1f, should be below line rate", tp.L1Gbps)
	}
	for _, size := range []int{512, 1024, 1500} {
		if tp := co.ThroughputAt(size); !approx(tp.L1Gbps, 100, 1) {
			t.Errorf("%dB L1 = %.1f, want ~100", size, tp.L1Gbps)
		}
	}
}

func TestCorundumUnoptimizedCapsAt80G(t *testing.T) {
	// Figure 11c: unoptimized Menshen only reaches ~80 Gbit/s at MTU.
	cu := CorundumUnoptimized()
	tp := cu.ThroughputAt(1500)
	if tp.L1Gbps < 75 || tp.L1Gbps > 85 {
		t.Errorf("MTU L1 = %.1f, want ~80", tp.L1Gbps)
	}
	// Optimizations matter: optimized beats unoptimized at every size.
	co := CorundumOptimized()
	for _, size := range CorundumSweep() {
		if co.ThroughputAt(size).L1Gbps < cu.ThroughputAt(size).L1Gbps {
			t.Errorf("optimized slower than unoptimized at %dB", size)
		}
	}
}

// CorundumSweep mirrors the Figure 11 x-axis for tests.
func CorundumSweep() []int { return []int{70, 128, 256, 512, 768, 1024, 1500} }

func TestFullRateLatencyShape(t *testing.T) {
	// Figure 11d: ~1.0-1.25 us, increasing with frame size.
	co := CorundumOptimized()
	prev := 0.0
	for _, size := range CorundumSweep() {
		us := co.FullRateLatencyUs(size)
		if us < 0.9 || us > 1.3 {
			t.Errorf("%dB full-rate latency = %.2f us, want in [0.9,1.3]", size, us)
		}
		if us < prev {
			t.Errorf("latency not monotonic at %dB", size)
		}
		prev = us
	}
}

func TestWords(t *testing.T) {
	nf := NetFPGA() // 32-byte words
	if nf.Words(64) != 2 || nf.Words(65) != 3 || nf.Words(1500) != 47 {
		t.Errorf("NetFPGA words: %d %d %d", nf.Words(64), nf.Words(65), nf.Words(1500))
	}
	co := CorundumOptimized() // 64-byte words
	if co.Words(64) != 1 || co.Words(1500) != 24 {
		t.Errorf("Corundum words: %d %d", co.Words(64), co.Words(1500))
	}
}

func TestLinePPS(t *testing.T) {
	nf := NetFPGA()
	// 10G at 64B+20B overhead = 14.88 Mpps.
	if pps := nf.LinePPS(64); !approx(pps/1e6, 14.88, 1) {
		t.Errorf("LinePPS(64) = %.2f Mpps", pps/1e6)
	}
}

func TestPlatformStringIncludesSpecs(t *testing.T) {
	s := CorundumOptimized().String()
	if s == "" || len(s) < 10 {
		t.Errorf("String = %q", s)
	}
}

// Property: modeled throughput never exceeds line rate or the raw bus
// rate.
func TestQuickThroughputBounded(t *testing.T) {
	f := func(sizeRaw uint16) bool {
		size := 60 + int(sizeRaw)%1441
		for _, p := range Platforms() {
			tp := p.ThroughputAt(size)
			if tp.L1Gbps > p.LineRateGbps*1.001 {
				return false
			}
			bus := p.ClockMHz * 1e6 * float64(p.BusBits) / 1e9
			if tp.L2Gbps > bus {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: latency is monotonically nondecreasing in frame size.
func TestQuickLatencyMonotonic(t *testing.T) {
	f := func(aRaw, bRaw uint16) bool {
		a := 60 + int(aRaw)%1441
		b := 60 + int(bRaw)%1441
		if a > b {
			a, b = b, a
		}
		for _, p := range Platforms() {
			if p.LatencyCycles(a) > p.LatencyCycles(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
