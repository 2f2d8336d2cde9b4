// Package menshen is the public API of Menshen-Go, a from-scratch Go
// reproduction of "Isolation Mechanisms for High-Speed Packet-Processing
// Pipelines" (NSDI 2022).
//
// A Device bundles a Menshen RMT pipeline, its control plane, the
// resource checker, and the system-level module. Modules are written in
// a P4-16-subset language, compiled, admitted under a resource-sharing
// policy, and loaded through the secure reconfiguration path without
// disrupting other modules:
//
//	dev := menshen.NewDevice()
//	rep, err := dev.LoadModule(calcSource, 1)
//	out, err := dev.Send(frame)
//
// See the examples directory for complete programs.
package menshen

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/checker"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/ctrlplane"
	"repro/internal/netdev"
	"repro/internal/packet"
	"repro/internal/reconfig"
	"repro/internal/sysmod"
)

// Errors surfaced by the facade.
var (
	// ErrNotLoaded is returned for operations on modules that are not
	// loaded.
	ErrNotLoaded = errors.New("menshen: module not loaded")
	// ErrBadAddress is returned for unparsable IPv4 address strings.
	ErrBadAddress = errors.New("menshen: bad IPv4 address")
)

// PlatformKind selects the modeled hardware platform.
type PlatformKind int

// Supported platforms.
const (
	// PlatformCorundumOptimized is the 100 Gbit/s Corundum NIC with the
	// §3.2 optimizations (the default).
	PlatformCorundumOptimized PlatformKind = iota
	// PlatformCorundumUnoptimized is the base §3.1 design on Corundum.
	PlatformCorundumUnoptimized
	// PlatformNetFPGA is the 10 Gbit/s NetFPGA SUME switch.
	PlatformNetFPGA
)

func (k PlatformKind) platform() netdev.Platform {
	switch k {
	case PlatformNetFPGA:
		return netdev.NetFPGA()
	case PlatformCorundumUnoptimized:
		return netdev.CorundumUnoptimized()
	default:
		return netdev.CorundumOptimized()
	}
}

// config collects device options.
type config struct {
	kind     PlatformKind
	policy   checker.Policy
	defaultP uint8
}

// Option configures NewDevice.
type Option func(*config)

// WithPlatform selects the hardware platform model.
func WithPlatform(kind PlatformKind) Option {
	return func(c *config) { c.kind = kind }
}

// WithDRFPolicy enables dominant-resource-fairness admission with the
// given maximum per-module dominant share.
func WithDRFPolicy(maxShare float64) Option {
	return func(c *config) { c.policy = checker.DRF{MaxShare: maxShare} }
}

// WithDefaultPort sets the system-level module's default egress port.
func WithDefaultPort(port uint8) Option {
	return func(c *config) { c.defaultP = port }
}

// Device is one Menshen-enabled network device.
type Device struct {
	pipe     *core.Pipeline
	client   *ctrlplane.Client
	alloc    *checker.Allocator
	sys      *sysmod.Config
	tm       *sysmod.TrafficManager
	platform netdev.Platform
	modules  map[uint16]*Module
	// stream backs the command stream of a device-only load, which
	// commit pushes and drops; the next such load encodes into it. A
	// live load's stream is the engine's to keep and is encoded fresh.
	stream struct {
		cmds []reconfig.Command
		buf  []byte
	}
}

// Module is one loaded packet-processing module.
type Module struct {
	// ID is the module's VLAN/module ID.
	ID uint16
	// Name is the source-level module name.
	Name string
	// Program is the compiled artifact.
	program *compiler.Program
	// placement records where the module's partitioned resources live.
	placement core.Placement
}

// LoadReport summarizes one load/update operation.
type LoadReport struct {
	// Module is the loaded module.
	Module *Module
	// CompileWall is the measured compilation time.
	CompileWall time.Duration
	// Commands is the number of reconfiguration packets sent.
	Commands int
	// ConfigureHW is the modeled hardware configuration time on the FPGA
	// prototype.
	ConfigureHW time.Duration
	// EntriesGenerated counts compiler-emitted match-action entries.
	EntriesGenerated int

	// cmds is the placed program's command stream, encoded once and
	// pushed by commit (and, for a live load, staged on the engine's
	// shards first); commit drops it. A device-only load's stream lives
	// in Device.stream.
	cmds []reconfig.Command
}

// NewDevice creates a device with the prototype geometry (5 stages, 32
// module slots, 16 match entries per stage).
func NewDevice(opts ...Option) *Device {
	cfg := config{}
	for _, o := range opts {
		o(&cfg)
	}
	platform := cfg.kind.platform()
	pipe := core.New(core.DefaultGeometry(), platform.Opts)
	sys := sysmod.NewConfig()
	sys.DefaultPort = cfg.defaultP
	return &Device{
		pipe:     pipe,
		client:   ctrlplane.New(pipe),
		alloc:    checker.NewAllocator(checker.CapacityOf(pipe.Geometry), cfg.policy),
		sys:      sys,
		tm:       sysmod.NewTrafficManager(sys),
		platform: platform,
		modules:  make(map[uint16]*Module),
	}
}

// ParseIPv4 parses a dotted-quad address.
func ParseIPv4(s string) (packet.IPv4Addr, error) {
	var a packet.IPv4Addr
	var parts [4]int
	n, err := fmt.Sscanf(s, "%d.%d.%d.%d", &parts[0], &parts[1], &parts[2], &parts[3])
	if err != nil || n != 4 {
		return a, fmt.Errorf("%w: %q", ErrBadAddress, s)
	}
	for i, p := range parts {
		if p < 0 || p > 255 {
			return a, fmt.Errorf("%w: %q", ErrBadAddress, s)
		}
		a[i] = byte(p)
	}
	return a, nil
}

// AddRoute registers a virtual-IP route for a module with the
// system-level module. Routes registered before LoadModule are installed
// in the module's last-stage system tables at load time.
func (d *Device) AddRoute(moduleID uint16, vip string, port uint8) error {
	a, err := ParseIPv4(vip)
	if err != nil {
		return err
	}
	d.sys.AddRoute(moduleID, a, port)
	return nil
}

// AddMulticastGroup registers a multicast group: frames the pipeline
// sends to port group egress on every member port.
func (d *Device) AddMulticastGroup(group uint8, members ...uint8) {
	d.sys.AddMulticastGroup(group, members)
	d.tm = sysmod.NewTrafficManager(d.sys)
}

// Compile compiles module source without loading it (resource and static
// checks run; useful for validation and the compilation benchmarks).
func (d *Device) Compile(source string, moduleID uint16) (*compiler.Program, error) {
	return compiler.Compile(source, compiler.Options{ModuleID: moduleID})
}

// LoadModule compiles, admits, and loads a module. Other modules keep
// processing packets throughout (no disruption). The module's packets
// are identified by VLAN ID == moduleID.
func (d *Device) LoadModule(source string, moduleID uint16) (*LoadReport, error) {
	if _, dup := d.modules[moduleID]; dup {
		return nil, fmt.Errorf("menshen: module %d already loaded (use UpdateModule)", moduleID)
	}
	rep, err := d.prepare(source, moduleID, true)
	if err != nil {
		return nil, err
	}
	return d.commit(rep)
}

// prepare compiles and places a module without touching the device:
// the system-level tables are merged in and the checker places the
// program (treating an old program under the same ID as gone), with a
// placement search over later start stages when it does not fit. The
// report it returns carries the program to commit, and its stream (see
// newReport for reuse).
func (d *Device) prepare(source string, moduleID uint16, reuse bool) (*LoadReport, error) {
	start := time.Now()
	prog, err := compiler.Compile(source, compiler.Options{ModuleID: moduleID})
	if err != nil {
		return nil, err
	}
	compileWall := time.Since(start)

	if err := d.sys.Augment(prog.Config); err != nil {
		return nil, err
	}
	pl, err := d.alloc.Place(prog.Config)
	if errors.Is(err, checker.ErrAdmission) {
		// Placement search: recompile with later start stages so
		// single-table modules spread across the tenant stages instead of
		// piling into the first one.
		lo, hi := sysmod.TenantStages()
		for ss := lo + 1; ss <= hi && err != nil; ss++ {
			limits := compiler.DefaultLimits()
			limits.StartStage = ss
			var prog2 *compiler.Program
			prog2, cerr := compiler.Compile(source, compiler.Options{ModuleID: moduleID, Limits: limits})
			if cerr != nil {
				break
			}
			if aerr := d.sys.Augment(prog2.Config); aerr != nil {
				break
			}
			var pl2 core.Placement
			pl2, err = d.alloc.Place(prog2.Config)
			if err == nil {
				prog, pl = prog2, pl2
			}
		}
	}
	if err != nil {
		return nil, err
	}
	return d.newReport(prog, pl, compileWall, reuse)
}

// newReport wraps a placed program, and its command stream, as the
// LoadReport that commit fills in. With reuse the stream is encoded
// into d.stream, which the next reusing load overwrites: only a caller
// that commits at once may ask for it.
func (d *Device) newReport(prog *compiler.Program, pl core.Placement, compileWall time.Duration, reuse bool) (*LoadReport, error) {
	var cmds []reconfig.Command
	var err error
	if reuse {
		d.stream.cmds, d.stream.buf, err = prog.Config.AppendCommands(d.stream.cmds[:0], d.stream.buf[:0], pl)
		cmds = d.stream.cmds
	} else {
		cmds, err = prog.Config.Commands(pl)
	}
	if err != nil {
		return nil, err
	}
	m := &Module{ID: prog.Config.ModuleID, Name: prog.Config.Name, program: prog, placement: pl}
	return &LoadReport{Module: m, CompileWall: compileWall, EntriesGenerated: prog.EntriesGenerated, cmds: cmds}, nil
}

// LoadModuleChain compiles several module sources belonging to one
// tenant into non-overlapping stages under a single module ID (the §3.4
// compiler extension) and loads the result.
func (d *Device) LoadModuleChain(sources []string, moduleID uint16) (*LoadReport, error) {
	if _, dup := d.modules[moduleID]; dup {
		return nil, fmt.Errorf("menshen: module %d already loaded (use UpdateModule)", moduleID)
	}
	start := time.Now()
	prog, err := compiler.CompileChain(sources, compiler.Options{ModuleID: moduleID})
	if err != nil {
		return nil, err
	}
	compileWall := time.Since(start)
	if err := d.sys.Augment(prog.Config); err != nil {
		return nil, err
	}
	pl, err := d.alloc.Place(prog.Config)
	if err != nil {
		return nil, err
	}
	rep, err := d.newReport(prog, pl, compileWall, true)
	if err != nil {
		return nil, err
	}
	return d.commit(rep)
}

// commit installs a prepared module: it unloads any program loaded
// under the same ID, records the new placement and pushes the report's
// command stream down the control plane. On a failed push the placement
// is released.
func (d *Device) commit(rep *LoadReport) (*LoadReport, error) {
	m := rep.Module
	if _, ok := d.modules[m.ID]; ok {
		if err := d.UnloadModule(m.ID); err != nil {
			return nil, err
		}
	}
	d.alloc.Record(m.program.Config, m.placement)
	cmds := rep.cmds
	rep.cmds = nil
	crep, err := d.client.LoadModule(m.program.Config, m.placement, cmds)
	if err != nil {
		_ = d.alloc.Release(m.ID)
		return nil, err
	}
	d.modules[m.ID] = m
	rep.Commands, rep.ConfigureHW = crep.Commands, crep.HardwareTime
	return rep, nil
}

// UpdateModule replaces a loaded module's program through the secure
// reconfiguration procedure, make before break: the new source is
// compiled and placed first, and only then is the old program unloaded
// and the new one pushed; no other module is disturbed. If the new
// source fails to compile or place, the old program is untouched — its
// flow entries and stateful memory included — and the error is
// returned.
func (d *Device) UpdateModule(source string, moduleID uint16) (*LoadReport, error) {
	if _, ok := d.modules[moduleID]; !ok {
		return nil, fmt.Errorf("%w: id %d", ErrNotLoaded, moduleID)
	}
	rep, err := d.prepare(source, moduleID, true)
	if err != nil {
		return nil, err
	}
	return d.commit(rep)
}

// UnloadModule removes a module and frees its resources (including
// zeroing its stateful-memory segments).
func (d *Device) UnloadModule(moduleID uint16) error {
	if _, ok := d.modules[moduleID]; !ok {
		return fmt.Errorf("%w: id %d", ErrNotLoaded, moduleID)
	}
	if err := d.pipe.UnloadModule(moduleID); err != nil {
		return err
	}
	if err := d.alloc.Release(moduleID); err != nil {
		return err
	}
	delete(d.modules, moduleID)
	return nil
}

// Result is the outcome of sending one frame through the device.
type Result struct {
	// Output is the processed frame (nil when dropped).
	Output []byte
	// Dropped reports whether the pipeline discarded the frame.
	Dropped bool
	// Reason names the filter verdict (or module discard) behind a drop.
	Reason string
	// ModuleID is the VLAN-carried module ID.
	ModuleID uint16
	// EgressPorts lists the output ports after traffic-manager multicast
	// expansion.
	EgressPorts []uint8
	// LatencyNs is the modeled pipeline latency for this frame size on
	// the device's platform.
	LatencyNs float64
}

// Send pushes one frame through the pipeline.
func (d *Device) Send(frame []byte) (*Result, error) {
	return d.SendFrom(frame, 0)
}

// SendFrom pushes one frame arriving on the given ingress port.
func (d *Device) SendFrom(frame []byte, ingress uint8) (*Result, error) {
	out, _, err := d.pipe.Process(frame, ingress)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ModuleID:  out.ModuleID,
		LatencyNs: d.platform.LatencyNs(len(frame)),
	}
	if out.Dropped {
		res.Dropped = true
		switch {
		case out.DiscardedByModule:
			res.Reason = "discarded by module action"
		case out.Verdict == reconfig.VerdictData:
			res.Reason = "no module loaded for this VLAN ID"
		default:
			res.Reason = out.Verdict.String()
		}
		return res, nil
	}
	res.Output = out.Data
	res.EgressPorts = d.tm.Expand(out.EgressPort)
	return res, nil
}

// Stats returns a module's traffic counters.
func (d *Device) Stats(moduleID uint16) (packets, bytes, drops uint64) {
	return d.client.Stats(moduleID)
}

// SystemPacketCount reads the per-module packet counter maintained by the
// system-level module's first-stage statistics service.
func (d *Device) SystemPacketCount(moduleID uint16) (uint64, error) {
	return sysmod.PacketCount(d.pipe, moduleID)
}

// ReadRegister reads one word of a module's named stateful register.
func (d *Device) ReadRegister(moduleID uint16, name string, index uint64) (uint64, error) {
	m, ok := d.modules[moduleID]
	if !ok {
		return 0, fmt.Errorf("%w: id %d", ErrNotLoaded, moduleID)
	}
	for _, r := range m.program.Registers {
		if r.Name != name {
			continue
		}
		if r.Stage < 0 {
			return 0, fmt.Errorf("menshen: register %q is unused (no stage)", name)
		}
		if index >= uint64(r.Words) {
			return 0, fmt.Errorf("menshen: register %q index %d out of %d words", name, index, r.Words)
		}
		return d.client.ReadCounter(moduleID, r.Stage, uint64(r.Base)+index)
	}
	return 0, fmt.Errorf("menshen: module %d has no register %q", moduleID, name)
}

// SetUpdating exposes the packet filter's update bitmap (used by the
// reconfiguration experiments; LoadModule/UpdateModule manage it
// automatically).
func (d *Device) SetUpdating(moduleID uint16, updating bool) {
	d.pipe.Filter.SetUpdating(moduleID, updating)
}

// FilterVerdicts returns how many frames the packet filter dropped for
// the given reason.
func (d *Device) FilterVerdicts() map[string]uint64 {
	out := map[string]uint64{}
	d.pipe.Locked(func() {
		for v := reconfig.VerdictData; v <= reconfig.VerdictDropUpdating; v++ {
			out[v.String()] = d.pipe.Filter.VerdictCount(v)
		}
	})
	return out
}

// Platform describes the modeled hardware platform.
func (d *Device) Platform() string { return d.platform.String() }

// LatencyNs returns the modeled pipeline latency for a frame size.
func (d *Device) LatencyNs(frameBytes int) float64 { return d.platform.LatencyNs(frameBytes) }

// ThroughputGbps returns the modeled layer-2 throughput at a frame size.
func (d *Device) ThroughputGbps(frameBytes int) float64 {
	return d.platform.ThroughputAt(frameBytes).L2Gbps
}

// Pipeline exposes the underlying pipeline for advanced use and the
// benchmark harness. Most callers should not need it.
func (d *Device) Pipeline() *core.Pipeline { return d.pipe }

// ControlPlane exposes the control-plane client for advanced use.
func (d *Device) ControlPlane() *ctrlplane.Client { return d.client }
