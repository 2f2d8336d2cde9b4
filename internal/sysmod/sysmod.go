// Package sysmod implements Menshen's system-level module (§3.3): the
// OS-like P4 module that provides basic services — virtual-IP routing,
// multicast, and real-time statistics — to every other module.
//
// The system-level module occupies the first and the last pipeline stage;
// tenant modules are sandwiched in between (Figure 6). Packets read
// system state (counters, link stats) in the first stage and pick up
// device-specific forwarding (vIP → output port) in the last stage.
//
// Because every Menshen table is indexed by module ID, the system-level
// module's configuration is installed *per tenant module*: loading a
// tenant merges the system entries for that module ID into the tenant's
// own configuration. This mirrors the paper's compiler, which "places the
// system-level module's configurations in the first and last stages" and
// shares PHV containers between the system-level and tenant modules.
package sysmod

import (
	"errors"
	"fmt"

	"repro/internal/alu"
	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/parser"
	"repro/internal/phv"
	"repro/internal/stage"
	"repro/internal/tables"
)

// Reserved PHV containers shared between the system-level module and
// tenant modules. The compiler refuses to allocate these to tenant
// fields, and the static checker refuses tenant writes to them.
var (
	// RefSrcIP holds the IPv4 source address (offset 30 in the frame).
	RefSrcIP = phv.Ref{Type: phv.Type4B, Index: 6}
	// RefDstIP holds the IPv4 destination address (offset 34): the virtual
	// IP that last-stage routing matches on.
	RefDstIP = phv.Ref{Type: phv.Type4B, Index: 7}
	// RefStats is the scratch container the first-stage statistics action
	// writes the per-module packet count into, making it readable by the
	// tenant's stages.
	RefStats = phv.Ref{Type: phv.Type6B, Index: 7}
)

// Frame offsets of the shared fields (VLAN-tagged IPv4).
const (
	OffSrcIP = packet.EthernetHeaderLen + packet.VLANTagLen + 12 // 30
	OffDstIP = packet.EthernetHeaderLen + packet.VLANTagLen + 16 // 34
)

// Stage numbers the system-level module occupies.
const (
	FirstStage = 0
	// LastStage is relative to core.NumStages.
	LastStage = core.NumStages - 1
)

// TenantStages returns the stage numbers available to tenant modules.
func TenantStages() (lo, hi int) { return FirstStage + 1, LastStage - 1 }

// Errors.
var (
	ErrTooManyRoutes = errors.New("sysmod: route count exceeds last-stage CAM share")
	ErrReserved      = errors.New("sysmod: tenant configuration uses reserved resources")
)

// Route maps a virtual IP to an output port. Virtual IPs are local to a
// tenant (scoped by module ID at match time), so different tenants may
// reuse the same vIP.
type Route struct {
	VIP  packet.IPv4Addr
	Port uint8
}

// Config is the system-level module's configuration for one device.
type Config struct {
	// Routes is the per-tenant virtual-IP routing table (vIP → port).
	Routes map[uint16][]Route
	// DefaultPort receives packets with no matching route.
	DefaultPort uint8
	// MulticastGroups maps a group port number to its member ports; the
	// traffic manager expands them at egress.
	MulticastGroups map[uint8][]uint8
	// StatsWords is the stateful-memory share the statistics service
	// takes in the first stage, per tenant (1 word: packet counter).
	StatsWords uint8
}

// NewConfig returns an empty system-module configuration.
func NewConfig() *Config {
	return &Config{
		Routes:          make(map[uint16][]Route),
		MulticastGroups: make(map[uint8][]uint8),
		StatsWords:      1,
	}
}

// AddRoute registers a vIP route for a tenant.
func (c *Config) AddRoute(moduleID uint16, vip packet.IPv4Addr, port uint8) {
	c.Routes[moduleID] = append(c.Routes[moduleID], Route{VIP: vip, Port: port})
}

// AddMulticastGroup registers a multicast group: packets routed to port
// group are replicated to every member.
func (c *Config) AddMulticastGroup(group uint8, members []uint8) {
	c.MulticastGroups[group] = append([]uint8(nil), members...)
}

// ParserActions returns the parse actions the system-level module needs
// in every tenant's parser entry: the shared IPv4 src/dst extractions.
func ParserActions() []parser.Action {
	return []parser.Action{
		{Offset: OffSrcIP, Dest: RefSrcIP, Valid: true},
		{Offset: OffDstIP, Dest: RefDstIP, Valid: true},
	}
}

// statsAction is the first-stage VLIW action: loadd a per-module packet
// counter (segment word 0) into the stats scratch container.
func statsAction() alu.Action {
	var a alu.Action
	statsSlot, _ := phv.ALUIndex(RefStats)
	a[statsSlot] = alu.Instr{Op: alu.OpLoadd, A: uint8(statsSlot), Imm: 0}
	return a
}

// routeAction builds a last-stage VLIW action that forwards to a port.
func routeAction(port uint8) alu.Action {
	var a alu.Action
	metaSlot, _ := phv.ALUIndex(phv.Ref{Type: phv.TypeMeta, Index: 0})
	a[metaSlot] = alu.Instr{Op: alu.OpPort, A: uint8(metaSlot), Imm: uint16(port)}
	return a
}

// matchAllExtract returns a key extractor whose masked key is empty, so a
// single all-zero rule matches every packet of the module.
func matchAllExtract() (stage.KeyExtractEntry, tables.Key) {
	return stage.KeyExtractEntry{}, tables.Key{} // zero mask: match-all
}

// dstIPExtract returns a key extractor selecting the dst-IP container
// (first 4-byte key slot) and a mask covering exactly those 4 bytes.
func dstIPExtract() (stage.KeyExtractEntry, tables.Key) {
	e := stage.KeyExtractEntry{C4: [2]uint8{RefDstIP.Index, 0}}
	var mask tables.Key
	// Key layout: C6[0](6) C6[1](6) C4[0](4) C4[1](4) C2[0](2) C2[1](2).
	// The first selected 4-byte container occupies key bytes 12-15.
	for i := 12; i < 16; i++ {
		mask[i] = 0xff
	}
	return e, mask
}

// dstIPKey builds the lookup key holding vip in key bytes 12-15.
func dstIPKey(vip packet.IPv4Addr) tables.Key {
	var k tables.Key
	copy(k[12:16], vip[:])
	return k
}

// Augment merges the system-level module's first- and last-stage
// configuration for tenant m into the tenant's compiled ModuleConfig.
// It fails if the tenant claims the system stages or the reserved parse
// slots are exhausted.
func (c *Config) Augment(m *core.ModuleConfig) error {
	if len(m.Stages) != core.NumStages {
		return fmt.Errorf("sysmod: module %q has %d stages, want %d", m.Name, len(m.Stages), core.NumStages)
	}
	if m.Stages[FirstStage].Used || m.Stages[LastStage].Used {
		return fmt.Errorf("%w: module %q uses system stages", ErrReserved, m.Name)
	}

	// Merge the shared parser actions into free slots.
	sys := ParserActions()
	free := 0
	for i := range m.Parser.Actions {
		if !m.Parser.Actions[i].Valid {
			free++
		}
	}
	if free < len(sys) {
		return fmt.Errorf("%w: module %q leaves %d parser slots, system needs %d",
			ErrReserved, m.Name, free, len(sys))
	}
	for _, sa := range sys {
		placed := false
		for i := range m.Parser.Actions {
			a := &m.Parser.Actions[i]
			if a.Valid && a.Dest == sa.Dest {
				return fmt.Errorf("%w: module %q parses into reserved container %v",
					ErrReserved, m.Name, sa.Dest)
			}
			if !a.Valid && !placed {
				*a = sa
				placed = true
			}
		}
		if !placed {
			return fmt.Errorf("%w: no free parser slot", ErrReserved)
		}
	}

	// First stage: statistics (per-module packet counter via loadd).
	ext0, mask0 := matchAllExtract()
	m.Stages[FirstStage] = core.StageConfig{
		Used:         true,
		Extract:      ext0,
		Mask:         mask0,
		Rules:        []core.Rule{{Key: tables.Key{}, Mask: tables.Key{}, Action: statsAction()}},
		SegmentWords: c.StatsWords,
	}

	// Last stage: vIP routing. One rule per route plus a default.
	extN, maskN := dstIPExtract()
	routes := c.Routes[m.ModuleID]
	rules := make([]core.Rule, 0, len(routes)+1)
	for _, r := range routes {
		rules = append(rules, core.Rule{
			Key:    dstIPKey(r.VIP),
			Mask:   maskN,
			Action: routeAction(r.Port),
		})
	}
	// Default rule: zero mask matches anything; placed last so specific
	// routes win (the CAM prefers the lowest address). With no default
	// port configured it is a no-op, preserving any egress port the
	// tenant's own stages chose (e.g. source routing).
	defAction := alu.Action{}
	if c.DefaultPort != 0 {
		defAction = routeAction(c.DefaultPort)
	}
	rules = append(rules, core.Rule{Key: tables.Key{}, Mask: tables.Key{}, Action: defAction})
	m.Stages[LastStage] = core.StageConfig{
		Used:    true,
		Extract: extN,
		Mask:    maskN,
		Rules:   rules,
	}
	return nil
}

// TrafficManager models the egress replication engine that the
// system-level module's multicast service relies on. The RMT pipeline
// itself cannot duplicate packets; replication happens in the traffic
// manager (Figure 1).
type TrafficManager struct {
	groups map[uint8][]uint8
}

// NewTrafficManager builds a traffic manager from the system config.
func NewTrafficManager(c *Config) *TrafficManager {
	tm := &TrafficManager{groups: make(map[uint8][]uint8)}
	for g, members := range c.MulticastGroups {
		tm.groups[g] = append([]uint8(nil), members...)
	}
	return tm
}

// Expand returns the egress ports for a pipeline output: the port itself,
// or the group members if the port is a registered multicast group.
func (tm *TrafficManager) Expand(port uint8) []uint8 {
	if members, ok := tm.groups[port]; ok {
		out := make([]uint8, len(members))
		copy(out, members)
		return out
	}
	return []uint8{port}
}

// Members is the allocation-free form of Expand for hot paths: it
// returns the group's member ports (shared slice — callers must not
// modify it) or nil when the port is not a registered group, meaning
// the frame goes out the port itself.
func (tm *TrafficManager) Members(port uint8) []uint8 { return tm.groups[port] }

// PacketCount reads the first-stage per-module packet counter maintained
// by the statistics service.
func PacketCount(p *core.Pipeline, moduleID uint16) (uint64, error) {
	st := p.Stages[FirstStage]
	var v, phys uint64
	var err error
	p.Locked(func() {
		if phys, err = st.Segments.Translate(int(moduleID), 0); err == nil {
			v, err = st.Memory.Load(phys)
		}
	})
	if err != nil {
		return 0, fmt.Errorf("sysmod: module %d stage %d packet counter: %w", moduleID, FirstStage, err)
	}
	return v, nil
}
