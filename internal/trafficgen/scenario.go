// Multi-tenant scenario driver: generates the interleaved per-tenant
// frame stream that feeds the concurrent engine (internal/engine), the
// role MoonGen plays against the hardware prototype. Each tenant offers
// a weighted share of the aggregate load, spread across a configurable
// number of flows so RSS-style steering distributes it over worker
// shards.
package trafficgen

import (
	"strings"

	"repro/internal/packet"
)

// TenantLoad describes one tenant's offered traffic in a Scenario.
type TenantLoad struct {
	// ModuleID is the tenant's VLAN/module ID.
	ModuleID uint16
	// Program names the Table 3 program whose request format to
	// generate (used by the default generator; see Gen).
	Program string
	// Weight is the tenant's relative share of generated frames
	// (default 1).
	Weight int
	// FrameBytes pads frames to this size (0 = minimal).
	FrameBytes int
	// Flows is the number of distinct flows (source ports) to cycle
	// through, spreading the tenant across engine workers (default 4).
	Flows int
	// Gen overrides the default generator: it returns the i-th frame.
	Gen func(i int) []byte
}

// Scenario interleaves several tenants' streams by weighted round
// robin, deterministically (seeded PRNG).
type Scenario struct {
	Tenants []TenantLoad // the interleaved tenants, in round-robin order
	counts  []int        // frames emitted per tenant
	rr      int          // current tenant
	quota   int          // frames left in the current tenant's turn
}

// NewScenario builds a scenario; tenants with zero Weight default to 1,
// zero Flows to 4, and a nil Gen to the program's default generator
// seeded from seed and the tenant's module ID.
func NewScenario(seed uint64, tenants ...TenantLoad) *Scenario {
	s := &Scenario{Tenants: make([]TenantLoad, len(tenants)), counts: make([]int, len(tenants)), rr: -1}
	copy(s.Tenants, tenants)
	for i := range s.Tenants {
		t := &s.Tenants[i]
		if t.Weight <= 0 {
			t.Weight = 1
		}
		if t.Flows <= 0 {
			t.Flows = 4
		}
		if t.Gen == nil {
			t.Gen = DefaultGen(t.Program, t.ModuleID, t.FrameBytes, t.Flows, NewPRNG(seed^uint64(t.ModuleID)<<32))
		}
	}
	return s
}

// NextBatch appends the next n frames to out (normally out[:0] of a
// reused slice) and returns it. Tenants take turns of Weight frames
// each, so the interleaving mimics independent streams sharing one
// ingress link (§5.1).
func (s *Scenario) NextBatch(out [][]byte, n int) [][]byte {
	if len(s.Tenants) == 0 {
		return out
	}
	for ; n > 0; n-- {
		if s.quota == 0 {
			s.rr = (s.rr + 1) % len(s.Tenants)
			s.quota = s.Tenants[s.rr].Weight
		}
		t := &s.Tenants[s.rr]
		out = append(out, t.Gen(s.counts[s.rr]))
		s.counts[s.rr]++
		s.quota--
	}
	return out
}

// ContentionScenario builds the §3.5 egress-sharing workload: every
// tenant offers the same saturating load — equal interleave weight and
// equal frame size — so any skew in the engine's *delivered* shares is
// attributable to its egress scheduler's weights, not to the offered
// mix. frameBytes pads every tenant's frames to one size (0 keeps each
// program's minimal frame, which is fine when all tenants run the same
// program); per-tenant Weight/FrameBytes values in loads are
// overridden.
func ContentionScenario(seed uint64, frameBytes int, loads ...TenantLoad) *Scenario {
	eq := make([]TenantLoad, len(loads))
	copy(eq, loads)
	for i := range eq {
		eq[i].Weight = 1
		eq[i].FrameBytes = frameBytes
	}
	return NewScenario(seed, eq...)
}

// FabricScenario builds a multi-node fabric workload: every tenant
// offers generic flow-diverse UDP frames addressed to the given
// fabric-routed virtual IP, so where a frame is delivered is decided
// by each node's system-module routing (§3.3 tenant-scoped vIPs), not
// by the program payload. Tenants interleave with equal weight; flows
// per tenant spread the stream across each node's worker shards.
func FabricScenario(seed uint64, vip packet.IPv4Addr, frameBytes, flows int, tenants ...uint16) *Scenario {
	if flows <= 0 {
		flows = 4
	}
	loads := make([]TenantLoad, len(tenants))
	for i, id := range tenants {
		id := id
		prng := NewPRNG(seed ^ uint64(id)<<32)
		loads[i] = TenantLoad{
			ModuleID:   id,
			FrameBytes: frameBytes,
			Flows:      flows,
			Gen: func(i int) []byte {
				src := packet.IPv4Addr{10, 0, byte(id), byte(prng.Intn(4))}
				return FlowPacket(id, src, vip, uint16(1000+i%flows), uint16(80+prng.Intn(3)), frameBytes)
			},
		}
	}
	return NewScenario(seed, loads...)
}

// Total returns how many frames the scenario has generated so far.
func (s *Scenario) Total() int {
	n := 0
	for _, c := range s.counts {
		n += c
	}
	return n
}

// DefaultGen returns a flow-diverse frame generator for the named
// Table 3 program (mirroring the per-program request formats): frame i
// belongs to flow i%flows. Unknown names generate generic UDP flows.
func DefaultGen(program string, moduleID uint16, frameBytes, flows int, prng *PRNG) func(i int) []byte {
	if flows <= 0 {
		flows = 1
	}
	switch strings.ToLower(program) {
	case "calc":
		return func(i int) []byte {
			op := uint16(1 + i%3)
			f := CalcPacket(moduleID, op, uint32(prng.Intn(1000)), uint32(prng.Intn(1000)), frameBytes)
			setFlow(f, uint16(i%flows))
			return f
		}
	case "netcache":
		return func(i int) []byte {
			op := uint16(1 + i%2)
			f := KVPacket(moduleID, op, uint16(prng.Intn(64)), uint32(i), frameBytes)
			setFlow(f, uint16(i%flows))
			return f
		}
	case "netchain":
		return func(i int) []byte {
			f := ChainPacket(moduleID, 1, frameBytes)
			setFlow(f, uint16(i%flows))
			return f
		}
	case "source routing":
		return func(i int) []byte {
			f := SRPacket(moduleID, uint16(1+i%4), frameBytes)
			setFlow(f, uint16(i%flows))
			return f
		}
	default:
		return func(i int) []byte {
			src := packet.IPv4Addr{10, 0, byte(moduleID), byte(prng.Intn(4))}
			dst := packet.IPv4Addr{10, 9, 9, 9}
			return FlowPacket(moduleID, src, dst,
				uint16(1000+i%flows), uint16(80+prng.Intn(3)), frameBytes)
		}
	}
}

// setFlow rewrites the UDP source port so frame generators emit several
// distinct flows per tenant without touching module-relevant fields.
func setFlow(frame []byte, flow uint16) {
	if len(frame) >= packet.OffUDP+2 {
		frame[packet.OffUDP] = byte((4000 + flow) >> 8)
		frame[packet.OffUDP+1] = byte(4000 + flow)
	}
}
