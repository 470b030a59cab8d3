package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/event"
	"repro/internal/logbuf"
	"repro/internal/mem"
	"repro/internal/osmodel"
	"repro/internal/prog"
	"repro/internal/tenant"
	"repro/internal/vpc"
	"repro/internal/workloads"
)

// The per-layer probes time each layer on its own, by calling its
// package's public functions from here on the run's generated inputs.
// Every traced run executes all of them after the workload, so every
// workload prints every per-layer metric; serving metrics come from the
// run's own lbad traffic when the workload has any, else from one round
// of the same traffic.
func runProbes(ctx context.Context, b *bench) error {
	if err := probeStages(ctx, b); err != nil {
		return err
	}
	if err := probeTenant(ctx, b); err != nil {
		return err
	}
	if _, ok := b.metrics["serve.admit_ms"]; !ok {
		if err := probeServe(ctx, b); err != nil {
			return err
		}
	}
	return nil
}

// machine is the application side of core.ProfileLBA, built the same
// way: a simulated core and kernel over a two-core cache hierarchy.
func machine(p *prog.Program, cfg core.Config) *osmodel.Machine {
	memory := mem.NewMemory()
	hier := mem.NewHierarchy(mem.DefaultHierarchyConfig(2))
	kernel := osmodel.NewKernel(cfg.Kernel, memory)
	return osmodel.NewMachine(cfg.Machine, p, memory, hier.Port(0), kernel)
}

// transportStep is one entry of the stream core.ProfileLBA reports.
type transportStep struct {
	cycle, bits, cost uint64
	syscall           bool
}

// keepStream is a TransportObserver that keeps the stream in a
// pre-sized slice, so observing costs a store per record.
type keepStream struct{ steps []transportStep }

func (k *keepStream) Record(cycle, bits, cost uint64) {
	k.steps = append(k.steps, transportStep{cycle: cycle, bits: bits, cost: cost})
}

func (k *keepStream) Syscall(cycle uint64) {
	k.steps = append(k.steps, transportStep{cycle: cycle, syscall: true})
}

// stageTotals accumulates one layer's probe time and work.
type stageTotals struct {
	d       time.Duration
	n, bits uint64 // instructions or records; compressed bits
	allocs  allocs
	// stages is, for core.ProfileLBA, the time the separately timed
	// stages took on the same programs.
	stages time.Duration
}

// probeStages runs every suite program through each pipeline stage in
// turn: the simulated machine alone, the machine with capture attached
// (capture's cost is the difference), VPC compression and lifeguard
// dispatch over the captured records, core.ProfileLBA with every stage
// together, and the log channel over the stream it reported.
func probeStages(ctx context.Context, b *bench) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as cold-profile does
	o := b.o
	cfg := core.DefaultConfig()
	root := b.tr.begin("probe.stages", 0, 0)
	defer root.end()
	var osm, capt, comp, lbuf stageTotals
	disp := map[string]*stageTotals{}
	cores := map[string]*stageTotals{}
	var recs []event.Record
	var stream keepStream
	for _, spec := range workloads.All() {
		if err := ctx.Err(); err != nil {
			return err
		}
		parent := b.tr.begin("probe."+spec.Name, root.id, 0)
		m := machine(spec.Build(workloadConfig(o)), cfg)
		sp := b.tr.begin("osmodel.Machine.Run", parent.id, 0)
		err := m.Run()
		dOS := sp.end()
		if !b.op(err) {
			return err
		}
		osm.d += dOS
		osm.n += m.Core.Retired

		recs = slices.Grow(recs[:0], int(m.Core.Retired)+1024) // kernel events on top
		m = machine(spec.Build(workloadConfig(o)), cfg)
		unit := capture.New(func(r event.Record) { recs = append(recs, r) })
		m.Core.OnRetire = unit.OnRetire
		m.Kernel.Emit = unit.OnKernelEvent
		sp = b.tr.begin("capture.Unit", parent.id, 0)
		err = m.Run()
		dCap := sp.end()
		if !b.op(err) {
			return err
		}
		capt.d += dCap - dOS
		capt.n += uint64(len(recs))

		c := vpc.NewCompressor()
		a := readAllocs()
		sp = b.tr.begin("vpc.Compressor.Append", parent.id, 0)
		for i := range recs {
			comp.bits += uint64(c.Append(recs[i]))
		}
		dVPC := sp.end()
		comp.allocs = comp.allocs.add(a.since())
		comp.d += dVPC
		comp.n += uint64(len(recs))

		lgs := []string{"addrcheck", "taintcheck"}
		if spec.MultiThreaded {
			lgs = []string{"lockset"}
		}
		for _, lg := range lgs {
			dDisp, al, err := dispatchAll(b, parent.id, lg, recs, cfg)
			if !b.op(err) {
				return err
			}
			t := totalsFor(disp, lg)
			t.d += dDisp
			t.n += uint64(len(recs))
			t.allocs = t.allocs.add(al)

			stream.steps = make([]transportStep, 0, len(recs)+len(recs)/8)
			p := spec.Build(workloadConfig(o))
			a := readAllocs()
			sp = b.tr.begin("core.ProfileLBA."+lg, parent.id, 0)
			res, err := core.ProfileLBA(p, lifeguardName[lg], cfg, &stream)
			dCore := sp.end()
			al = a.since()
			if !b.op(err) {
				return err
			}
			if res.Records != uint64(len(recs)) {
				b.fail(fmt.Errorf("%s/%s: ProfileLBA logged %d records, capture probe %d", spec.Name, lg, res.Records, len(recs)))
			}
			t = totalsFor(cores, lg)
			t.d += dCore
			t.stages += dCap + dVPC + dDisp
			t.n += res.Instructions
			t.allocs = t.allocs.add(al)

			sp = b.tr.begin("logbuf.Channel.ProduceAt", parent.id, 0)
			n := replayStream(stream.steps, cfg.Channel)
			lbuf.d += sp.end()
			lbuf.n += n
		}
		parent.end()
	}
	b.set("osmodel.ns_per_instr", perUnit(osm.d, osm.n))
	b.set("capture.ns_per_record", perUnit(capt.d, capt.n))
	b.set("vpc.ns_per_record", perUnit(comp.d, comp.n))
	b.set("vpc.bits_per_record", float64(comp.bits)/float64(comp.n))
	b.set("vpc.allocs_per_record", float64(comp.allocs.mallocs)/float64(comp.n))
	b.set("logbuf.ns_per_record", perUnit(lbuf.d, lbuf.n))
	for _, lg := range lifeguards {
		d, c := disp[lg], cores[lg]
		if d == nil || c == nil {
			return fmt.Errorf("no suite program runs %s", lg)
		}
		b.set("dispatch."+lg+".ns_per_record", perUnit(d.d, d.n))
		b.set("dispatch."+lg+".allocs_per_record", float64(d.allocs.mallocs)/float64(d.n))
		b.set("core."+lg+".ns_per_instr", perUnit(c.d, c.n))
		b.set("core."+lg+".allocs_per_instr", float64(c.allocs.mallocs)/float64(c.n))
		b.set("core."+lg+".bytes_per_instr", float64(c.allocs.bytes)/float64(c.n))
		b.set("core."+lg+".self_ns_per_instr", perUnit(c.d-c.stages, c.n))
	}
	return nil
}

func totalsFor(m map[string]*stageTotals, k string) *stageTotals {
	if m[k] == nil {
		m[k] = &stageTotals{}
	}
	return m[k]
}

// dispatchAll feeds recs through a dispatch engine running the named
// lifeguard on a lifeguard core of its own.
func dispatchAll(b *bench, parent int64, lg string, recs []event.Record, cfg core.Config) (time.Duration, allocs, error) {
	factory, err := core.Factory(lifeguardName[lg])
	if err != nil {
		return 0, allocs{}, err
	}
	hier := mem.NewHierarchy(mem.DefaultHierarchyConfig(2))
	meter := &dispatch.CoreMeter{Port: hier.Port(1)}
	eng := dispatch.New(cfg.Dispatch, meter)
	eng.Attach(factory(meter))
	a := readAllocs()
	sp := b.tr.begin("dispatch.Engine.Dispatch."+lg, parent, 0)
	for i := range recs {
		eng.Dispatch(&recs[i])
	}
	return sp.end(), a.since(), nil
}

// replayStream pushes a reported stream through a private log channel
// the way a dedicated lifeguard core consumes it, and returns the
// number of records.
func replayStream(steps []transportStep, cfg logbuf.Config) uint64 {
	ch := logbuf.New(cfg)
	var offset, n uint64
	for _, s := range steps {
		now := s.cycle + offset
		if s.syscall {
			offset += ch.Drain(now)
			continue
		}
		stall, _ := ch.ProduceAt(now, s.bits, s.cost, 0)
		offset += stall
		n++
	}
	ch.Finish(offset)
	return n
}

// probeTenant profiles the warm-replay population one tenant at a time
// into a single-worker engine, then replays the warm-replay cell mix on
// it twice and reports the second pass, whose replay arenas are warm.
func probeTenant(ctx context.Context, b *bench) error {
	o := b.o
	ts, err := warmTenants(o)
	if err != nil {
		return err
	}
	root := b.tr.begin("probe.tenant", 0, 0)
	defer root.end()
	eng := tenant.NewEngine(1, nil)
	var d time.Duration
	var instr uint64
	procs := runtime.GOMAXPROCS(1) // as cold-profile does
	a := readAllocs()
	for _, t := range ts {
		sp := b.tr.begin("tenant.Engine.Profile", root.id, 0)
		p, err := eng.Profile(ctx, t)
		d += sp.end()
		if !b.op(err) {
			runtime.GOMAXPROCS(procs)
			return err
		}
		instr += p.Result.Instructions
	}
	al := a.since()
	runtime.GOMAXPROCS(procs)
	b.set("tenant.profile_ns_per_instr", perUnit(d, instr))
	b.set("tenant.profile_allocs_per_instr", float64(al.mallocs)/float64(instr))

	cells, err := warmCells(o)
	if err != nil {
		return err
	}
	var records, runs uint64
	for pass := 0; pass < 2; pass++ {
		for _, c := range cells {
			a := readAllocs()
			sp := b.tr.begin("tenant.Engine.RunPool."+c.name, root.id, 0)
			res, err := eng.RunPool(ctx, c.tenants, c.pool)
			d := sp.end()
			al := a.since()
			if !b.op(err) {
				return err
			}
			var n uint64
			for _, t := range res.Tenants {
				n += t.Records
			}
			if pass == 1 {
				b.set("tenant.replay."+c.name+".ns_per_record", perUnit(d, n))
				b.set("tenant.replay."+c.name+".allocs_per_replay", float64(al.mallocs))
				records += n
				runs++
			}
		}
	}
	b.set("tenant.replay.records_per_replay", float64(records)/float64(runs))
	return nil
}

// probeServe runs one round of lbad-churn traffic on a fresh daemon, for
// workloads that serve none of their own.
func probeServe(ctx context.Context, b *bench) error {
	d, err := startDaemon(b.o)
	if err != nil {
		return err
	}
	population, err := d.fill(ctx, b)
	if err != nil {
		d.close()
		return err
	}
	rep, err := newReplica(ctx, b.o, population)
	if err != nil {
		d.close()
		return err
	}
	defer rep.close()
	s, err := serveRounds(ctx, b, d, rep, population, 0, 1)
	if err != nil {
		d.close()
		return err
	}
	setServingMetrics(b, s, rep)
	b.op(d.close())
	return nil
}

// perUnit is nanoseconds per unit of work.
func perUnit(d time.Duration, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}
