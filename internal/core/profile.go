package core

import (
	"fmt"
	"sync"

	"repro/internal/capture"
	"repro/internal/cpu"
	"repro/internal/dispatch"
	"repro/internal/event"
	"repro/internal/mem"
	"repro/internal/osmodel"
	"repro/internal/prog"
	"repro/internal/vpc"
)

// logEncoder is the capture-side filter + compression stage shared by
// RunLBA and ProfileLBA, so the two paths cannot drift: address-range
// filtering first, then VPC compression (or the raw encoded size when
// compression is ablated away).
type logEncoder struct {
	cfg      *Config
	comp     *vpc.Compressor // nil when compression is ablated away
	filtered uint64
	logBits  uint64
}

// compressors holds VPC compressors between runs, each reset to a fresh
// one's state. A run takes one instead of allocating and zeroing a new
// 8 MB predictor bank; the pool empties itself over two collections, so
// idle banks do not stay on the heap.
var compressors = sync.Pool{New: func() any { return vpc.NewCompressor() }}

// newLogEncoder builds the stage for cfg, taking a VPC compressor from
// the pool when compression is on. The caller must release it.
func newLogEncoder(cfg *Config) *logEncoder {
	le := &logEncoder{cfg: cfg}
	if !cfg.CompressionOff {
		le.comp = compressors.Get().(*vpc.Compressor)
	}
	return le
}

// release resets the compressor and returns it to the pool.
func (le *logEncoder) release() {
	if le.comp != nil {
		le.comp.Reset()
		compressors.Put(le.comp)
		le.comp = nil
	}
}

// encode filters and compresses one record; ok is false when the record
// is dropped by address-range filtering and must not reach the lifeguard.
func (le *logEncoder) encode(rec *event.Record) (bits uint64, ok bool) {
	if len(le.cfg.FilterRanges) > 0 && rec.Type.IsMem() {
		keep := false
		for _, r := range le.cfg.FilterRanges {
			if r.Contains(rec.Addr) {
				keep = true
				break
			}
		}
		if !keep {
			le.filtered++
			return 0, false
		}
	}
	if le.comp == nil {
		bits = event.EncodedSize * 8
	} else {
		bits = uint64(le.comp.Append(*rec))
	}
	le.logBits += bits
	return bits, true
}

// TransportObserver receives the log-production timeline of an LBA run in
// which the transport imposes no stalls: each surviving record's
// production cycle, compressed size and lifeguard processing cost, plus
// every syscall-containment point. The multi-tenant simulation
// (internal/tenant) records this uncontended timeline once per tenant and
// then replays it against shared lifeguard-core pools of varying size.
type TransportObserver interface {
	// Record reports one record surviving capture-side filtering.
	Record(appCycle, bits, lgCost uint64)
	// Syscall reports a containment point: the application is entering a
	// syscall and would drain the channel here.
	Syscall(appCycle uint64)
}

// ProfileLBA executes p on the LBA with the log channel replaced by obs:
// functionally identical to RunLBA with a single lifeguard core, but the
// transport never stalls the application, so the observed cycles form the
// uncontended production timeline. Because external stalls only shift the
// application's cycle counter (scheduling quanta are instruction-based),
// replaying this timeline through a logbuf.Channel reproduces RunLBA's
// timing exactly; with a shared core pool it yields the contended timing.
//
// The Result's WallCycles equals AppCycles (no lifeguard tail is modelled
// here — the replay owns wall-clock accounting), and replay windows
// (RewindMode) and parallel lifeguards are not supported.
func ProfileLBA(p *prog.Program, lifeguardName string, cfg Config, obs TransportObserver) (*Result, error) {
	factory, err := Factory(lifeguardName)
	if err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if cfg.ParallelLifeguards > 1 {
		return nil, fmt.Errorf("core: profile: parallel lifeguards not supported (got %d); pool-level parallelism replaces them", cfg.ParallelLifeguards)
	}
	if cfg.RewindMode {
		return nil, fmt.Errorf("core: profile: rewind mode not supported")
	}

	memory := mem.NewMemory()
	hier := mem.NewHierarchy(mem.DefaultHierarchyConfig(2))
	kernel := osmodel.NewKernel(cfg.Kernel, memory)
	machine := osmodel.NewMachine(cfg.Machine, p, memory, hier.Port(0), kernel)
	appCore := machine.Core

	meter := &dispatch.CoreMeter{Port: hier.Port(1)}
	engine := dispatch.New(cfg.Dispatch, meter)
	lg := factory(meter)
	engine.Attach(lg)

	le := newLogEncoder(&cfg)
	defer le.release()
	// The dispatch engine hands the record to the lifeguard's handler
	// table, so a pointer to deliver's argument would move every record
	// to the heap. One slot per run takes each record instead.
	rec := new(event.Record)
	deliver := func(r event.Record) {
		*rec = r
		bits, ok := le.encode(rec)
		if !ok {
			return
		}
		hier.ChargeLogTransport(bits / 8)
		lgCost := engine.Dispatch(rec)
		obs.Record(appCore.Cycles, bits, lgCost)
	}

	cap := capture.New(deliver)
	appCore.OnRetire = cap.OnRetire
	kernel.Emit = cap.OnKernelEvent
	kernel.OnSyscallEnter = func(_ *cpu.Context, _ int64) {
		obs.Syscall(appCore.Cycles)
	}

	if err := machine.Run(); err != nil {
		return nil, fmt.Errorf("core: profile: %w", err)
	}

	res := &Result{
		Program:        p.Name,
		Mode:           ModeLBA,
		Lifeguard:      lg.Name(),
		Instructions:   appCore.Retired,
		AppCycles:      appCore.Cycles,
		WallCycles:     appCore.Cycles,
		LgCycles:       engine.Stats().Cycles,
		Records:        cap.Stats.Records,
		FilteredOut:    le.filtered,
		LogBits:        le.logBits,
		MemRefFraction: cap.Stats.MemRefFraction(),
		Violations:     lg.Violations(),
	}
	if kept := cap.Stats.Records - le.filtered; kept > 0 {
		res.BytesPerRecord = float64(le.logBits) / 8 / float64(kept)
	}
	return res, nil
}
