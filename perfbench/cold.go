package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/tenant"
	"repro/internal/workloads"
)

// workloadConfig is the generated input every workload runs: the suite
// at the benchmark's scale and seed.
func workloadConfig(o options) workloads.Config {
	return workloads.Config{Scale: o.scale, Seed: o.seed, Threads: serve.DefaultThreads}
}

// coldTenants is one cold-profile pass: every suite benchmark under each
// lifeguard the paper evaluates on it (AddrCheck and TaintCheck on the
// seven single-threaded programs, LockSet on water and zchaff).
func coldTenants(o options) []tenant.Tenant {
	var ts []tenant.Tenant
	for _, s := range workloads.All() {
		lgs := []string{"AddrCheck", "TaintCheck"}
		if s.MultiThreaded {
			lgs = []string{"LockSet"}
		}
		for _, lg := range lgs {
			ts = append(ts, tenant.Tenant{
				Name:      s.Name + "/" + lg,
				Benchmark: s.Name,
				Lifeguard: lg,
				Workload:  workloadConfig(o),
				Config:    core.DefaultConfig(),
			})
		}
	}
	return ts
}

// lbaOutcome runs the tenant through core.RunLBA, the oracle a profile
// must agree with.
func lbaOutcome(t tenant.Tenant) (outcome, error) {
	spec, err := workloads.ByName(t.Benchmark)
	if err != nil {
		return outcome{}, err
	}
	res, err := core.RunLBA(spec.Build(t.Workload), t.Lifeguard, t.Config)
	if err != nil {
		return outcome{}, fmt.Errorf("%s: RunLBA: %w", t.Name, err)
	}
	return outcomeOf(res), nil
}

// runCold profiles the whole pass with a fresh engine, pass after pass,
// so nothing is memoized: simulated core, capture, compression, dispatch
// and lifeguards, core.ProfileLBA and the timeline recorder all run on
// every call.
//
// Set-up computes the core.RunLBA outcome of every tenant, which the
// checks compare each profile against; it runs o.setups times and must
// agree with itself.
//
// All of it runs on one P, moved from CPU to CPU between repeats (see
// rotation). The work is one goroutine; a second P only moves the
// garbage collector onto the other CPU, and on the 2-vCPU host the
// benchmark is sized for that made work_per_s differ by up to 45% from
// one run to the next.
func runCold(ctx context.Context, b *bench) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rot := newRotation()
	defer rot.release()
	o := b.o
	ts := coldTenants(o)

	var oracle []outcome
	setups := make([][]float64, len(ts))
	for i := 0; i < o.setups; i++ {
		rot.turn()
		root := b.tr.begin("setup", 0, 0)
		outs := make([]outcome, len(ts))
		for j, t := range ts {
			sp := b.tr.begin("core.RunLBA", root.id, 0)
			out, err := lbaOutcome(t)
			setups[j] = append(setups[j], sp.end().Seconds())
			if err != nil {
				return err
			}
			outs[j] = out
		}
		root.end()
		if oracle == nil {
			oracle = outs
			continue
		}
		for j := range outs {
			if !b.op(sameOutcome(ts[j].Name+" RunLBA repeat", outs[j], oracle[j])) {
				oracle[j] = outcome{} // a nondeterministic oracle fails every check below
			}
		}
	}
	b.set("setup_s", sumOfMins(setups))

	type call struct {
		tenant int
		out    outcome
		err    error
	}
	var calls []call
	lat := make([][]float64, len(ts))
	instrs := make([]uint64, len(ts))
	// The last pass's engine stays live, so live_heap_mb counts what a
	// cold engine holds after profiling the suite.
	var eng *tenant.Engine
	start := time.Now()
	for time.Since(start) < seconds(o) {
		rot.turn()
		pass := b.tr.begin("cold.pass", 0, 0)
		eng = tenant.NewEngine(1, nil)
		for i, t := range ts {
			sp := b.tr.begin("tenant.Engine.Profile", pass.id, 0)
			p, err := eng.Profile(ctx, t)
			lat[i] = append(lat[i], ms(sp.end()))
			c := call{tenant: i, err: err}
			if err == nil {
				c.out = outcomeOf(p.Result)
				instrs[i] = p.Result.Instructions
			}
			calls = append(calls, c)
		}
		pass.end()
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	b.set("live_heap_mb", liveHeapMB())
	runtime.KeepAlive(eng)
	b.set(endToEndName(b, "work_per_s"), float64(sum(instrs))/(sumOfMins(lat)/1e3))
	b.set(endToEndName(b, "op_min_ms"), sumOfMins(lat)/float64(len(ts)))

	first := make([]*outcome, len(ts))
	for _, c := range calls {
		if !b.op(c.err) {
			continue
		}
		name := ts[c.tenant].Name
		err := sameOutcome(name+" profile vs RunLBA", c.out, oracle[c.tenant])
		if err == nil {
			err = o.refs.check(o, o.refs.Profiles, name, digest(c.out))
		}
		if err == nil && first[c.tenant] != nil {
			err = sameOutcome(name+" profile vs its first pass", c.out, *first[c.tenant])
		}
		if first[c.tenant] == nil {
			first[c.tenant] = &c.out
		}
		if err != nil {
			b.fail(err)
		}
	}
	return nil
}

// sameOutcome reports a mismatch between two functional outcomes.
func sameOutcome(what string, got, want outcome) error {
	if g, w := digest(got), digest(want); g != w {
		return fmt.Errorf("%s: %d records/%d bits/%d violations, want %d/%d/%d",
			what, got.Records, got.LogBits, len(got.Violations), want.Records, want.LogBits, len(want.Violations))
	}
	return nil
}

// seconds is the measured-phase length.
func seconds(o options) time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}
