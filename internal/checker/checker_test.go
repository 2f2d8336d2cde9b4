package checker

import (
	"errors"
	"testing"

	"repro/internal/core"
)

func capacity() Capacity {
	return CapacityOf(core.DefaultGeometry())
}

// demandModule builds a config with one used stage holding n rules and w
// stateful words.
func demandModule(id uint16, stg, n int, w uint8) *core.ModuleConfig {
	m := &core.ModuleConfig{
		ModuleID: id,
		Name:     "demand",
		Stages:   make([]core.StageConfig, core.NumStages),
	}
	m.Stages[stg] = core.StageConfig{
		Used:         true,
		Rules:        make([]core.Rule, n),
		SegmentWords: w,
	}
	return m
}

func TestAdmitAllocatesContiguously(t *testing.T) {
	a := NewAllocator(capacity(), nil)
	pl1, err := a.Admit(demandModule(1, 1, 6, 10))
	if err != nil {
		t.Fatal(err)
	}
	if pl1.CAMBase[1] != 0 || pl1.SegBase[1] != 0 {
		t.Errorf("first placement = %+v", pl1)
	}
	pl2, err := a.Admit(demandModule(2, 1, 6, 10))
	if err != nil {
		t.Fatal(err)
	}
	if pl2.CAMBase[1] != 6 || pl2.SegBase[1] != 10 {
		t.Errorf("second placement = %+v", pl2)
	}
}

func TestAdmitRejectsOverflow(t *testing.T) {
	a := NewAllocator(capacity(), nil)
	if _, err := a.Admit(demandModule(1, 1, 10, 0)); err != nil {
		t.Fatal(err)
	}
	_, err := a.Admit(demandModule(2, 1, 10, 0)) // 20 > 16 CAM depth
	if !errors.Is(err, ErrAdmission) {
		t.Errorf("err = %v", err)
	}
}

func TestAdmitDuplicateRejected(t *testing.T) {
	a := NewAllocator(capacity(), nil)
	if _, err := a.Admit(demandModule(1, 1, 1, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Admit(demandModule(1, 2, 1, 0)); !errors.Is(err, ErrDuplicate) {
		t.Errorf("err = %v", err)
	}
}

func TestAdmitModuleIDRange(t *testing.T) {
	a := NewAllocator(capacity(), nil)
	if _, err := a.Admit(demandModule(32, 1, 1, 0)); !errors.Is(err, ErrAdmission) {
		t.Errorf("err = %v", err)
	}
}

func TestReleaseReusesSpace(t *testing.T) {
	a := NewAllocator(capacity(), nil)
	if _, err := a.Admit(demandModule(1, 1, 16, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Admit(demandModule(2, 1, 1, 0)); err == nil {
		t.Fatal("stage full; admission should fail")
	}
	if err := a.Release(1); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Admit(demandModule(2, 1, 16, 0)); err != nil {
		t.Errorf("after release: %v", err)
	}
	if err := a.Release(9); !errors.Is(err, ErrNotLoaded) {
		t.Errorf("release unknown: %v", err)
	}
}

func TestFirstFitFillsGaps(t *testing.T) {
	a := NewAllocator(capacity(), nil)
	if _, err := a.Admit(demandModule(1, 1, 4, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Admit(demandModule(2, 1, 4, 0)); err != nil {
		t.Fatal(err)
	}
	if err := a.Release(1); err != nil {
		t.Fatal(err)
	}
	pl, err := a.Admit(demandModule(3, 1, 3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if pl.CAMBase[1] != 0 {
		t.Errorf("gap not reused: base = %d", pl.CAMBase[1])
	}
}

func TestModuleSlotsBounded(t *testing.T) {
	cap := capacity()
	cap.Modules = 2
	a := NewAllocator(cap, nil)
	if _, err := a.Admit(demandModule(0, 1, 1, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Admit(demandModule(1, 2, 1, 0)); err != nil {
		t.Fatal(err)
	}
	// Third module: no slot (also no valid ID < 2, but slots checked too).
	if _, err := a.Admit(demandModule(1, 3, 1, 0)); err == nil {
		t.Error("third module admitted into 2-slot device")
	}
}

func TestDRFPolicy(t *testing.T) {
	cap := capacity() // 5 stages x 16 CAM = 80 entries total
	drf := DRF{MaxShare: 0.25}
	a := NewAllocator(cap, drf)
	// Dominant share here: stages 1/5 = 0.2 <= 0.25 admits.
	if _, err := a.Admit(demandModule(1, 1, 10, 0)); err != nil {
		t.Fatalf("small module rejected: %v", err)
	}
	// A module hogging 2 stages (0.4 dominant share) is rejected.
	big := demandModule(2, 1, 8, 0)
	big.Stages[2] = core.StageConfig{Used: true, Rules: make([]core.Rule, 8)}
	if _, err := a.Admit(big); !errors.Is(err, ErrAdmission) {
		t.Errorf("big module: %v", err)
	}
}

func TestDominantShare(t *testing.T) {
	cap := capacity()
	d := demandModule(1, 1, 16, 0).Demand()
	s := DominantShare(cap, d)
	// 16 of 80 CAM entries = 0.2; 1 of 5 stages = 0.2.
	if s != 0.2 {
		t.Errorf("dominant share = %v, want 0.2", s)
	}
}

func TestUtilization(t *testing.T) {
	a := NewAllocator(capacity(), nil)
	if _, err := a.Admit(demandModule(1, 1, 8, 128)); err != nil {
		t.Fatal(err)
	}
	u := a.Utilization()
	if u["cam"] != 8.0/80 {
		t.Errorf("cam = %v", u["cam"])
	}
	if u["memory"] != 128.0/(256*5) {
		t.Errorf("memory = %v", u["memory"])
	}
	if u["modules"] != 1.0/32 {
		t.Errorf("modules = %v", u["modules"])
	}
}

func TestLoadedOrder(t *testing.T) {
	a := NewAllocator(capacity(), nil)
	for _, id := range []uint16{5, 1, 3} {
		if _, err := a.Admit(demandModule(id, 1, 1, 0)); err != nil {
			t.Fatal(err)
		}
	}
	got := a.Loaded()
	want := []uint16{1, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Loaded = %v", got)
		}
	}
}

func TestCheckLoopFree(t *testing.T) {
	// Linear chain: ok.
	ok := []Hop{
		{Dev: "s1", VIP: 0x0a000001, Next: "s2"},
		{Dev: "s2", VIP: 0x0a000001, Next: "s3"},
	}
	if err := CheckLoopFree(ok); err != nil {
		t.Errorf("linear chain: %v", err)
	}
	// Cycle: s1 -> s2 -> s1.
	loop := []Hop{
		{Dev: "s1", VIP: 0x0a000001, Next: "s2"},
		{Dev: "s2", VIP: 0x0a000001, Next: "s1"},
	}
	if err := CheckLoopFree(loop); !errors.Is(err, ErrRouteLoop) {
		t.Errorf("loop: %v", err)
	}
	// Self loop.
	self := []Hop{{Dev: "s1", VIP: 1, Next: "s1"}}
	if err := CheckLoopFree(self); !errors.Is(err, ErrRouteLoop) {
		t.Errorf("self loop: %v", err)
	}
	// Conflicting duplicate routes.
	dup := []Hop{
		{Dev: "s1", VIP: 1, Next: "s2"},
		{Dev: "s1", VIP: 1, Next: "s3"},
	}
	if err := CheckLoopFree(dup); err == nil {
		t.Error("conflicting routes accepted")
	}
	// Different VIPs may loop across different paths without error.
	multi := []Hop{
		{Dev: "s1", VIP: 1, Next: "s2"},
		{Dev: "s2", VIP: 2, Next: "s1"},
	}
	if err := CheckLoopFree(multi); err != nil {
		t.Errorf("disjoint VIPs: %v", err)
	}
}

func TestZeroDemandModuleAdmits(t *testing.T) {
	a := NewAllocator(capacity(), nil)
	m := &core.ModuleConfig{ModuleID: 1, Stages: make([]core.StageConfig, core.NumStages)}
	if _, err := a.Admit(m); err != nil {
		t.Errorf("empty module: %v", err)
	}
}

// TestPlaceReloadTreatsOwnSpansAsFree: a loaded module's reload is
// placed as if its old spans were gone — at the same first-fit base,
// and with room to grow into them — while Admit still refuses the
// loaded ID.
func TestPlaceReloadTreatsOwnSpansAsFree(t *testing.T) {
	a := NewAllocator(capacity(), nil)
	if _, err := a.Admit(demandModule(1, 1, 10, 100)); err != nil {
		t.Fatal(err)
	}
	pl, err := a.Place(demandModule(1, 1, 16, 200)) // the whole CAM, grown memory
	if err != nil {
		t.Fatalf("reload placement: %v", err)
	}
	if pl.CAMBase[1] != 0 || pl.SegBase[1] != 0 {
		t.Errorf("reload placement = %+v, want the freed bases 0", pl)
	}
	if _, err := a.Place(demandModule(2, 1, 16, 0)); !errors.Is(err, ErrAdmission) {
		t.Errorf("a neighbour's placement over the loaded spans: err = %v, want ErrAdmission", err)
	}
	if _, err := a.Admit(demandModule(1, 1, 10, 100)); !errors.Is(err, ErrDuplicate) {
		t.Errorf("Admit of the loaded ID: err = %v, want ErrDuplicate", err)
	}
}

// TestPlaceRecordsNothing: Place is side-effect free — Loaded, the
// utilization and a neighbour's next Admit are as if it never ran.
func TestPlaceRecordsNothing(t *testing.T) {
	a := NewAllocator(capacity(), nil)
	if _, err := a.Admit(demandModule(1, 1, 6, 10)); err != nil {
		t.Fatal(err)
	}
	before := a.Utilization()
	placed, err := a.Place(demandModule(2, 1, 4, 8))
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Loaded(); len(got) != 1 || got[0] != 1 {
		t.Errorf("Loaded after Place = %v, want [1]", got)
	}
	for k, v := range a.Utilization() {
		if v != before[k] {
			t.Errorf("utilization %s moved %v -> %v after Place", k, before[k], v)
		}
	}
	pl, err := a.Admit(demandModule(3, 1, 4, 8))
	if err != nil {
		t.Fatal(err)
	}
	if pl.CAMBase[1] != placed.CAMBase[1] || pl.SegBase[1] != placed.SegBase[1] {
		t.Errorf("neighbour admitted at %+v, want the unrecorded placement %+v", pl, placed)
	}
}
