package fpga

import (
	"testing"
)

func TestMenshenLUTDeltaIsSmall(t *testing.T) {
	// Table 4: Menshen adds only a few hundred LUTs over RMT (+160 on
	// NetFPGA, +217 on Corundum) — well under 1%.
	for _, build := range []func(bool) Config{NetFPGAConfig, CorundumConfig} {
		lutPct, _ := Delta(build)
		if lutPct <= 0 {
			t.Errorf("Menshen should cost more LUTs than RMT (got %+.3f%%)", lutPct)
		}
		if lutPct > 1.0 {
			t.Errorf("LUT overhead = %.3f%%, want < 1%% (lightweight)", lutPct)
		}
	}
}

func TestMenshenBRAMDeltaIsZero(t *testing.T) {
	// Table 4: identical BRAM counts for Menshen and RMT on both boards —
	// the overlay tables fit in the BRAMs the design already allocates.
	for _, build := range []func(bool) Config{NetFPGAConfig, CorundumConfig} {
		_, bramDelta := Delta(build)
		if bramDelta != 0 {
			t.Errorf("BRAM delta = %.1f, want 0", bramDelta)
		}
	}
}

func TestEstimatesInPublishedBallpark(t *testing.T) {
	// The modeled totals should land within ~25% of the published rows
	// (the model omits vendor IP internals).
	cases := []struct {
		build   func(bool) Config
		menshen bool
		luts    int
		brams   float64
	}{
		{NetFPGAConfig, false, 200573, 641},
		{NetFPGAConfig, true, 200733, 641},
		{CorundumConfig, false, 235686, 316},
		{CorundumConfig, true, 235903, 316},
	}
	for _, tc := range cases {
		got := tc.build(tc.menshen).Estimate()
		lo, hi := float64(tc.luts)*0.75, float64(tc.luts)*1.25
		if float64(got.LUTs) < lo || float64(got.LUTs) > hi {
			t.Errorf("%s (menshen=%v): LUTs = %d, published %d",
				got.Design, tc.menshen, got.LUTs, tc.luts)
		}
		if got.BRAMs < tc.brams*0.5 || got.BRAMs > tc.brams*1.5 {
			t.Errorf("%s (menshen=%v): BRAMs = %.1f, published %.1f",
				got.Design, tc.menshen, got.BRAMs, tc.brams)
		}
	}
}

func TestPipelinesDwarfReferenceDesigns(t *testing.T) {
	// Table 4 shape: RMT/Menshen use far more logic than the reference
	// switch alone (42k LUTs) because of the SRL CAMs.
	rmt := NetFPGAConfig(false).Estimate()
	if rmt.LUTs < 3*42325 {
		t.Errorf("RMT on NetFPGA = %d LUTs; expected several times the reference switch", rmt.LUTs)
	}
}

func TestPublishedTableIntegrity(t *testing.T) {
	if len(Published) != 6 {
		t.Fatalf("published rows = %d", len(Published))
	}
	// Menshen rows always >= their RMT rows in LUTs, equal BRAMs.
	if Published[2].LUTs <= Published[1].LUTs || Published[2].BRAMs != Published[1].BRAMs {
		t.Error("NetFPGA published rows inconsistent")
	}
	if Published[5].LUTs <= Published[4].LUTs || Published[5].BRAMs != Published[4].BRAMs {
		t.Error("Corundum published rows inconsistent")
	}
}
