// Package core assembles the complete Log-Based Architecture: the dual-core
// system of Figure 1 in the paper, with the application (plus capture and
// compression hardware) on one core and the lifeguard (plus decompression
// and dispatch hardware) on another, coordinated only through the log
// buffer.
//
// It exposes three run modes:
//
//   - Unmonitored: the raw application (the 1.0 baseline of Figure 2);
//   - LBA: hardware-assisted monitoring on a second core;
//   - DBI: the Valgrind-style software-only baseline on the same core.
//
// plus the paper's proposed overhead-reduction extensions (§3): address-
// range filtering in the capture hardware and parallelised lifeguards
// across multiple consumer cores.
package core

import (
	"fmt"

	"repro/internal/capture"
	"repro/internal/cpu"
	"repro/internal/dbi"
	"repro/internal/dispatch"
	"repro/internal/event"
	"repro/internal/lifeguard"
	"repro/internal/lifeguards/addrcheck"
	"repro/internal/lifeguards/cacheprof"
	"repro/internal/lifeguards/lockset"
	"repro/internal/lifeguards/stackcheck"
	"repro/internal/lifeguards/taintcheck"
	"repro/internal/logbuf"
	"repro/internal/mem"
	"repro/internal/osmodel"
	"repro/internal/prog"
	"repro/internal/replay"
)

// Mode selects the monitoring configuration.
type Mode uint8

// Run modes.
const (
	ModeUnmonitored Mode = iota
	ModeLBA
	ModeDBI
)

var modeNames = [...]string{"unmonitored", "lba", "dbi"}

// String returns the mode name.
func (m Mode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return "mode?"
}

// AddrRange is a half-open address interval [Lo, Hi).
type AddrRange struct{ Lo, Hi uint64 }

// Contains reports whether addr lies in the range.
func (r AddrRange) Contains(addr uint64) bool { return addr >= r.Lo && addr < r.Hi }

// Config assembles the system parameters. The zero value selects the
// paper's evaluated design point everywhere.
type Config struct {
	Kernel   osmodel.KernelConfig
	Machine  osmodel.MachineConfig
	Channel  logbuf.Config
	Dispatch dispatch.Config

	// CompressionOff disables the VPC engine: records travel at their raw
	// encoded size (ablation A-compress).
	CompressionOff bool

	// FilterRanges, when non-empty, enables address-range filtering in
	// the capture hardware (paper §3 future work): load/store records
	// whose address falls outside every range are dropped before
	// compression and never reach the lifeguard.
	FilterRanges []AddrRange

	// ParallelLifeguards runs k lifeguard cores consuming an address-
	// interleaved partition of the log (paper §3: "parallelizing
	// lifeguards"). 0 or 1 means the standard single lifeguard core.
	ParallelLifeguards int

	// RewindMode makes the capture hardware log overwritten store values
	// (the paper's rewind footnote); consumed by the replay extension.
	RewindMode bool
}

// DefaultConfig returns the paper's design point.
func DefaultConfig() Config {
	return Config{
		Kernel:   osmodel.DefaultKernelConfig(),
		Machine:  osmodel.DefaultMachineConfig(),
		Channel:  logbuf.DefaultConfig(),
		Dispatch: dispatch.DefaultConfig(),
	}
}

// Result reports everything a run measured.
type Result struct {
	Program   string
	Mode      Mode
	Lifeguard string

	Instructions uint64 // retired application instructions
	AppCycles    uint64 // application-core cycles (incl. stalls)
	WallCycles   uint64 // end-to-end, incl. lifeguard tail
	LgCycles     uint64 // lifeguard-core busy cycles (LBA) / analysis cycles (DBI)

	BufferStallCycles uint64 // backpressure (full log buffer)
	DrainStallCycles  uint64 // syscall-containment drains
	DrainEvents       uint64

	Records        uint64  // log records produced
	FilteredOut    uint64  // records dropped by address filtering
	LogBits        uint64  // compressed log volume
	BytesPerRecord float64 // compression quality
	MemRefFraction float64

	Violations []lifeguard.Violation

	// Baseline is, for a ProfileLBA run only, the unmonitored run of the
	// same program and configuration (see ProfileLBA). Nil otherwise.
	Baseline *Result

	// Replay is the retained log-history window (LBA runs with
	// Config.RewindMode only); Memory is the application's final memory
	// image. Together they drive the replay extension's rewind and
	// "how did I get here" queries.
	Replay *replay.Window
	Memory *mem.Memory
}

// CPI returns application cycles per instruction.
func (r *Result) CPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.AppCycles) / float64(r.Instructions)
}

// SlowdownVs returns this run's wall time normalised to base's (the Y axis
// of Figure 2).
func (r *Result) SlowdownVs(base *Result) float64 {
	if base == nil || base.WallCycles == 0 {
		return 0
	}
	return float64(r.WallCycles) / float64(base.WallCycles)
}

// LifeguardFactory constructs a lifeguard against a meter. The registry
// maps the paper's three lifeguards by name.
type LifeguardFactory func(lifeguard.Meter) lifeguard.Lifeguard

// Factory returns the factory for a lifeguard name. The paper evaluates
// AddrCheck, TaintCheck and LockSet; StackCheck (call/return-pair
// integrity, the §1 special-purpose comparison point) and CacheProf (the
// "performance problems" use case) demonstrate the infrastructure's
// generality on the same log.
func Factory(name string) (LifeguardFactory, error) {
	switch name {
	case "AddrCheck":
		return func(m lifeguard.Meter) lifeguard.Lifeguard { return addrcheck.New(m) }, nil
	case "TaintCheck":
		return func(m lifeguard.Meter) lifeguard.Lifeguard { return taintcheck.New(m) }, nil
	case "LockSet":
		return func(m lifeguard.Meter) lifeguard.Lifeguard { return lockset.New(m) }, nil
	case "StackCheck":
		return func(m lifeguard.Meter) lifeguard.Lifeguard { return stackcheck.New(m) }, nil
	case "CacheProf":
		return func(m lifeguard.Meter) lifeguard.Lifeguard { return cacheprof.New(m) }, nil
	}
	return nil, fmt.Errorf("core: unknown lifeguard %q", name)
}

// LifeguardNames lists the available lifeguards; the first three are the
// paper's evaluation set.
func LifeguardNames() []string {
	return []string{"AddrCheck", "TaintCheck", "LockSet", "StackCheck", "CacheProf"}
}

// Run executes p in the given mode. lifeguardName is ignored for
// ModeUnmonitored.
func Run(mode Mode, p *prog.Program, lifeguardName string, cfg Config) (*Result, error) {
	switch mode {
	case ModeUnmonitored:
		return RunUnmonitored(p, cfg)
	case ModeLBA:
		return RunLBA(p, lifeguardName, cfg)
	case ModeDBI:
		return RunDBI(p, lifeguardName, cfg)
	}
	return nil, fmt.Errorf("core: unknown mode %d", mode)
}

// RunUnmonitored executes p without any monitoring: Figure 2's baseline.
func RunUnmonitored(p *prog.Program, cfg Config) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	memory := mem.NewMemory()
	hier := mem.NewHierarchy(mem.DefaultHierarchyConfig(1))
	kernel := osmodel.NewKernel(cfg.Kernel, memory)
	machine := osmodel.NewMachine(cfg.Machine, p, memory, hier.Port(0), kernel)

	// Count memory references for the characterisation table even when
	// unmonitored, via a capture unit with a null sink.
	cap := capture.New(func(event.Record) {})
	machine.Core.OnRetire = cap.OnRetire
	kernel.Emit = cap.OnKernelEvent

	if err := machine.Run(); err != nil {
		return nil, fmt.Errorf("core: unmonitored: %w", err)
	}
	return &Result{
		Program:        p.Name,
		Mode:           ModeUnmonitored,
		Instructions:   machine.Core.Retired,
		AppCycles:      machine.Core.Cycles,
		WallCycles:     machine.Core.Cycles,
		Records:        cap.Stats.Records,
		MemRefFraction: cap.Stats.MemRefFraction(),
	}, nil
}

// RunDBI executes p under the Valgrind-style baseline.
func RunDBI(p *prog.Program, lifeguardName string, cfg Config) (*Result, error) {
	factory, err := Factory(lifeguardName)
	if err != nil {
		return nil, err
	}
	runner, err := dbi.NewRunner(p, cfg.Kernel, cfg.Machine, factory)
	if err != nil {
		return nil, err
	}
	res, err := runner.Run()
	if err != nil {
		return nil, err
	}
	return &Result{
		Program:        p.Name,
		Mode:           ModeDBI,
		Lifeguard:      res.Lifeguard,
		Instructions:   res.Instructions,
		AppCycles:      res.TotalCycles,
		WallCycles:     res.TotalCycles,
		LgCycles:       res.AnalysisCycles,
		Records:        res.Records,
		MemRefFraction: res.MemRefFraction,
		Violations:     res.Violations,
	}, nil
}

// switchMeter lets the parallel-lifeguard driver repoint a single
// lifeguard instance's charges at the consuming core of the moment.
type switchMeter struct{ cur lifeguard.Meter }

func (s *switchMeter) Instr(n uint64) { s.cur.Instr(n) }
func (s *switchMeter) Shadow(appAddr uint64, size uint8, write bool) {
	s.cur.Shadow(appAddr, size, write)
}

// RunLBA executes p on the full log-based architecture.
func RunLBA(p *prog.Program, lifeguardName string, cfg Config) (*Result, error) {
	factory, err := Factory(lifeguardName)
	if err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	nLG := cfg.ParallelLifeguards
	if nLG < 1 {
		nLG = 1
	}

	memory := mem.NewMemory()
	hier := mem.NewHierarchy(mem.DefaultHierarchyConfig(1 + nLG))
	kernel := osmodel.NewKernel(cfg.Kernel, memory)
	machine := osmodel.NewMachine(cfg.Machine, p, memory, hier.Port(0), kernel)
	appCore := machine.Core

	// Lifeguard side: one dispatch engine + channel per lifeguard core,
	// all sharing one functional lifeguard instance through a switched
	// meter.
	meters := make([]*dispatch.CoreMeter, nLG)
	engines := make([]*dispatch.Engine, nLG)
	channels := make([]*logbuf.Channel, nLG)
	sw := &switchMeter{}
	lg := factory(sw)
	for i := 0; i < nLG; i++ {
		meters[i] = &dispatch.CoreMeter{Port: hier.Port(1 + i)}
		engines[i] = dispatch.New(cfg.Dispatch, meters[i])
		engines[i].Attach(lg)
		channels[i] = logbuf.Get(cfg.Channel)
		defer logbuf.Put(channels[i])
	}

	le := newLogEncoder(&cfg)
	defer le.release()

	// routeOf picks the consuming lifeguard core for a record: memory
	// records interleave by cache line; allocation-state records fan out
	// to every core (handled by the caller); everything else rides on
	// core 0 so cross-cutting state (registers, locks) stays ordered.
	routeOf := func(rec *event.Record) int {
		if nLG == 1 {
			return 0
		}
		if rec.Type.IsMem() {
			return int((rec.Addr >> 6) % uint64(nLG))
		}
		return 0
	}

	// One record slot per run, written field by field as in ProfileLBA: a
	// pointer to deliver's argument would escape through Dispatch and move
	// every record to the heap.
	rec := new(event.Record)
	deliver := func(r event.Record) {
		rec.Type, rec.TID, rec.In1, rec.In2, rec.Out, rec.Size = r.Type, r.TID, r.In1, r.In2, r.Out, r.Size
		rec.PC, rec.Addr, rec.Aux = r.PC, r.Addr, r.Aux
		bits, ok := le.encode(rec)
		if !ok {
			return
		}
		hier.ChargeLogTransport(bits / 8)

		primary := routeOf(rec)
		sw.cur = meters[primary]
		lgCost := engines[primary].Dispatch(rec)
		if stall := channels[primary].Produce(appCore.Cycles, bits, lgCost); stall > 0 {
			appCore.Stall(stall)
		}
		if nLG > 1 && (rec.Type == event.TAlloc || rec.Type == event.TFree) {
			// Allocation state spans address partitions: every other core
			// mirrors the metadata update (time only — the shared
			// functional state was already updated by the primary).
			for t := 0; t < nLG; t++ {
				if t == primary {
					continue
				}
				engines[t].ChargeExternal(rec.Type, lgCost)
				if stall := channels[t].Produce(appCore.Cycles, bits, lgCost); stall > 0 {
					appCore.Stall(stall)
				}
			}
		}
	}

	var window *replay.Window
	if cfg.RewindMode {
		window = replay.NewWindow(1<<16, true)
		inner := deliver
		seq := uint64(0)
		deliver = func(rec event.Record) {
			window.Observe(seq, rec)
			seq++
			inner(rec)
		}
	}

	cap := capture.New(deliver)
	cap.RewindMode = cfg.RewindMode
	appCore.OnRetire = cap.OnRetire
	kernel.Emit = cap.OnKernelEvent

	// Syscall containment (§2): "the OS stalls each application syscall
	// until the lifeguard finishes checking the remaining log entries that
	// executed prior to the syscall invocation."
	kernel.OnSyscallEnter = func(_ *cpu.Context, _ int64) {
		now := appCore.Cycles
		var maxStall uint64
		for i := 0; i < nLG; i++ {
			if s := channels[i].Drain(now); s > maxStall {
				maxStall = s
			}
		}
		if maxStall > 0 {
			appCore.Stall(maxStall)
		}
	}

	if err := machine.Run(); err != nil {
		return nil, fmt.Errorf("core: lba: %w", err)
	}

	wall := appCore.Cycles
	var lgBusy uint64
	var bufStalls, drainStalls, drains uint64
	for i := 0; i < nLG; i++ {
		if w := channels[i].Finish(appCore.Cycles); w > wall {
			wall = w
		}
		st := channels[i].Stats()
		bufStalls += st.StallCycles
		drainStalls += st.DrainCycles
		drains += st.DrainEvents
		lgBusy += engines[i].Stats().Cycles
	}

	res := &Result{
		Program:           p.Name,
		Mode:              ModeLBA,
		Lifeguard:         lg.Name(),
		Instructions:      appCore.Retired,
		AppCycles:         appCore.Cycles,
		WallCycles:        wall,
		LgCycles:          lgBusy,
		BufferStallCycles: bufStalls,
		DrainStallCycles:  drainStalls,
		DrainEvents:       drains,
		Records:           cap.Stats.Records,
		FilteredOut:       le.filtered,
		LogBits:           le.logBits,
		MemRefFraction:    cap.Stats.MemRefFraction(),
		Violations:        lg.Violations(),
	}
	if kept := cap.Stats.Records - le.filtered; kept > 0 {
		res.BytesPerRecord = float64(le.logBits) / 8 / float64(kept)
	}
	res.Replay = window
	res.Memory = memory
	return res, nil
}
