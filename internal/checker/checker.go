// Package checker implements the Menshen resource checker (§3.4): static
// admission control that verifies each module's resource allocation
// complies with an operator-specified sharing policy, allocates the
// space-partitioned resources (CAM address ranges, stateful-memory
// segments), and performs the control-plane loop-freedom check over
// module routing tables.
//
// Allocation is static: reassigning resources from one module to another
// disrupts both, so a module whose requirements cannot be met is simply
// not admitted.
package checker

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
)

// Errors.
var (
	ErrAdmission = errors.New("checker: module not admitted")
	ErrNotLoaded = errors.New("checker: module not loaded")
	ErrDuplicate = errors.New("checker: module already loaded")
	ErrRouteLoop = errors.New("checker: routing loop detected")
)

// Capacity describes the pipeline resources available for partitioning.
type Capacity struct {
	Modules     int // overlay depth
	Stages      int
	CAMPerStage int
	MemPerStage int
}

// CapacityOf derives the capacity from a pipeline geometry.
func CapacityOf(g core.Geometry) Capacity {
	return Capacity{
		Modules:     g.MaxModules,
		Stages:      g.Stages,
		CAMPerStage: g.CAMDepth,
		MemPerStage: g.MemoryWords,
	}
}

// Policy decides whether a module's demand may be admitted given the
// demands of already loaded modules. Implementations correspond to the
// operator resource-sharing policies the paper names (DRF, utility).
type Policy interface {
	// Admit returns nil to accept. existing holds the demands of loaded
	// modules; cand is the candidate's demand.
	Admit(cap Capacity, existing []core.ResourceDemand, cand core.ResourceDemand) error
	// Name identifies the policy in diagnostics.
	Name() string
}

// FirstFit admits any module that physically fits; fairness is not
// enforced. It is the paper's default behaviour (admission control only).
type FirstFit struct{}

// Name implements Policy.
func (FirstFit) Name() string { return "first-fit" }

// Admit implements Policy.
func (FirstFit) Admit(Capacity, []core.ResourceDemand, core.ResourceDemand) error { return nil }

// DRF enforces dominant-resource fairness: no module may take a dominant
// share (its largest fraction of any single resource) above MaxShare.
type DRF struct {
	// MaxShare is the cap on a module's dominant share, e.g. 0.25 to
	// guarantee room for at least four modules.
	MaxShare float64
}

// Name implements Policy.
func (d DRF) Name() string { return fmt.Sprintf("drf(max=%.2f)", d.MaxShare) }

// DominantShare computes a demand's dominant share under a capacity.
func DominantShare(cap Capacity, d core.ResourceDemand) float64 {
	share := func(used, total int) float64 {
		if total == 0 {
			return 0
		}
		return float64(used) / float64(total)
	}
	s := share(d.CAMEntries, cap.CAMPerStage*cap.Stages)
	if v := share(d.MemoryWords, cap.MemPerStage*cap.Stages); v > s {
		s = v
	}
	if v := share(d.StagesUsed, cap.Stages); v > s {
		s = v
	}
	if v := share(d.ParserActions, 10); v > s {
		s = v
	}
	return s
}

// Admit implements Policy.
func (d DRF) Admit(cap Capacity, _ []core.ResourceDemand, cand core.ResourceDemand) error {
	if s := DominantShare(cap, cand); s > d.MaxShare {
		return fmt.Errorf("%w: dominant share %.3f exceeds policy cap %.3f", ErrAdmission, s, d.MaxShare)
	}
	return nil
}

// span is a half-open allocated range.
type span struct {
	mod    uint16
	lo, hi int
}

// stageAlloc tracks one stage's partitioned resources. Each span list is
// kept sorted by lo, so placement scans it without copying or sorting.
type stageAlloc struct {
	camSpans []span
	memSpans []span
}

// firstFit finds the lowest free offset for size units below limit in
// spans sorted by lo, treating the spans of module skip as free.
func firstFit(spans []span, skip uint16, size, limit int) (int, bool) {
	if size == 0 {
		return 0, true
	}
	at := 0
	for _, sp := range spans {
		if sp.mod == skip {
			continue
		}
		if at+size <= sp.lo {
			return at, true
		}
		if sp.hi > at {
			at = sp.hi
		}
	}
	if at+size <= limit {
		return at, true
	}
	return 0, false
}

// Allocator performs admission control and placement for one pipeline.
type Allocator struct {
	cap    Capacity
	policy Policy
	stages []stageAlloc
	loaded map[uint16]core.ResourceDemand
}

// NewAllocator returns an allocator over the capacity with the policy
// (FirstFit when nil).
func NewAllocator(cap Capacity, policy Policy) *Allocator {
	if policy == nil {
		policy = FirstFit{}
	}
	return &Allocator{
		cap:    cap,
		policy: policy,
		stages: make([]stageAlloc, cap.Stages),
		loaded: make(map[uint16]core.ResourceDemand),
	}
}

// Loaded returns the loaded module IDs in ascending order.
func (a *Allocator) Loaded() []uint16 {
	out := make([]uint16, 0, len(a.loaded))
	for id := range a.loaded {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Admit places a module that is not loaded yet and records it: Place,
// then Record.
func (a *Allocator) Admit(m *core.ModuleConfig) (core.Placement, error) {
	if _, dup := a.loaded[m.ModuleID]; dup {
		return core.Placement{}, fmt.Errorf("%w: id %d", ErrDuplicate, m.ModuleID)
	}
	pl, err := a.Place(m)
	if err == nil {
		a.Record(m, pl)
	}
	return pl, err
}

// Place checks the module against capacity and policy and finds its
// placement, recording nothing. The module's own loaded resources, if
// any, count as free: a reload is placed as if the old program were
// gone, which it will be when the reload commits (Release, then
// Record).
func (a *Allocator) Place(m *core.ModuleConfig) (core.Placement, error) {
	var pl core.Placement
	if int(m.ModuleID) >= a.cap.Modules {
		return pl, fmt.Errorf("%w: module ID %d exceeds the %d-module overlay depth",
			ErrAdmission, m.ModuleID, a.cap.Modules)
	}
	existing := make([]core.ResourceDemand, 0, len(a.loaded))
	for id, d := range a.loaded {
		if id != m.ModuleID {
			existing = append(existing, d)
		}
	}
	if len(existing) >= a.cap.Modules {
		return pl, fmt.Errorf("%w: all %d module slots in use", ErrAdmission, a.cap.Modules)
	}
	if len(m.Stages) > a.cap.Stages {
		return pl, fmt.Errorf("%w: module uses %d stages, pipeline has %d",
			ErrAdmission, len(m.Stages), a.cap.Stages)
	}
	if err := a.policy.Admit(a.cap, existing, m.Demand()); err != nil {
		return pl, fmt.Errorf("policy %s: %w", a.policy.Name(), err)
	}

	pl.CAMBase = make([]int, len(m.Stages))
	pl.SegBase = make([]uint8, len(m.Stages))
	for s, sc := range m.Stages {
		if !sc.Used {
			continue
		}
		st := &a.stages[s]
		camAt, ok := firstFit(st.camSpans, m.ModuleID, sc.PartitionSize(), a.cap.CAMPerStage)
		if !ok {
			return core.Placement{}, fmt.Errorf("%w: stage %d cannot fit %d match entries (CAM depth %d)",
				ErrAdmission, s, sc.PartitionSize(), a.cap.CAMPerStage)
		}
		memAt, ok := firstFit(st.memSpans, m.ModuleID, int(sc.SegmentWords), a.cap.MemPerStage)
		if !ok {
			return core.Placement{}, fmt.Errorf("%w: stage %d cannot fit %d stateful words (memory %d)",
				ErrAdmission, s, sc.SegmentWords, a.cap.MemPerStage)
		}
		if memAt > 0xff {
			return core.Placement{}, fmt.Errorf("%w: stage %d segment base %d exceeds 8 bits",
				ErrAdmission, s, memAt)
		}
		pl.CAMBase[s] = camAt
		pl.SegBase[s] = uint8(memAt)
	}
	return pl, nil
}

// Record marks a module loaded at a placement Place returned for it.
// Nothing may be recorded in between, and a module already loaded must
// be released first.
func (a *Allocator) Record(m *core.ModuleConfig, pl core.Placement) {
	for s, sc := range m.Stages {
		if !sc.Used {
			continue
		}
		st := &a.stages[s]
		if n := sc.PartitionSize(); n > 0 {
			st.camSpans = insertSpan(st.camSpans, span{mod: m.ModuleID, lo: pl.CAMBase[s], hi: pl.CAMBase[s] + n})
		}
		if n := int(sc.SegmentWords); n > 0 {
			st.memSpans = insertSpan(st.memSpans, span{mod: m.ModuleID, lo: int(pl.SegBase[s]), hi: int(pl.SegBase[s]) + n})
		}
	}
	a.loaded[m.ModuleID] = m.Demand()
}

// Release frees a module's allocations.
func (a *Allocator) Release(moduleID uint16) error {
	if _, ok := a.loaded[moduleID]; !ok {
		return fmt.Errorf("%w: id %d", ErrNotLoaded, moduleID)
	}
	delete(a.loaded, moduleID)
	for i := range a.stages {
		st := &a.stages[i]
		st.camSpans = dropMod(st.camSpans, moduleID)
		st.memSpans = dropMod(st.memSpans, moduleID)
	}
	return nil
}

// insertSpan inserts sp into spans, keeping them sorted by lo.
func insertSpan(spans []span, sp span) []span {
	i := 0
	for i < len(spans) && spans[i].lo <= sp.lo {
		i++
	}
	return slices.Insert(spans, i, sp)
}

func dropMod(spans []span, mod uint16) []span {
	out := spans[:0]
	for _, s := range spans {
		if s.mod != mod {
			out = append(out, s)
		}
	}
	return out
}

// Utilization reports per-resource fractions in use, for dashboards and
// the packing experiment (§5.2).
func (a *Allocator) Utilization() map[string]float64 {
	cam, mem := 0, 0
	for _, st := range a.stages {
		for _, s := range st.camSpans {
			cam += s.hi - s.lo
		}
		for _, s := range st.memSpans {
			mem += s.hi - s.lo
		}
	}
	return map[string]float64{
		"modules": float64(len(a.loaded)) / float64(a.cap.Modules),
		"cam":     float64(cam) / float64(a.cap.CAMPerStage*a.cap.Stages),
		"memory":  float64(mem) / float64(a.cap.MemPerStage*a.cap.Stages),
	}
}

// Hop is one edge of a module's inter-device routing graph: on device
// Dev, traffic for virtual IP VIP is forwarded to device Next.
type Hop struct {
	Dev  string
	VIP  uint32
	Next string
}

// CheckLoopFree verifies a module's routing tables are loop-free across
// devices — the control-plane check of §3.4 ("their routing tables should
// be loop-free", checked in the control plane because a module can span
// multiple programmable devices). It follows each VIP's forwarding chain
// and reports a cycle if a device repeats.
func CheckLoopFree(hops []Hop) error {
	next := map[string]map[uint32]string{}
	vips := map[uint32]bool{}
	for _, h := range hops {
		if next[h.Dev] == nil {
			next[h.Dev] = map[uint32]string{}
		}
		if prev, dup := next[h.Dev][h.VIP]; dup && prev != h.Next {
			return fmt.Errorf("checker: device %s has conflicting routes for vip %#x (%s and %s)",
				h.Dev, h.VIP, prev, h.Next)
		}
		next[h.Dev][h.VIP] = h.Next
		vips[h.VIP] = true
	}
	for vip := range vips {
		for start := range next {
			seen := map[string]bool{}
			cur := start
			for {
				seen[cur] = true
				n, ok := next[cur][vip]
				if !ok {
					break // chain ends: delivered locally
				}
				if seen[n] {
					return fmt.Errorf("%w: vip %#x revisits device %s (started at %s)",
						ErrRouteLoop, vip, n, start)
				}
				cur = n
			}
		}
	}
	return nil
}
