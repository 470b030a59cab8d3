package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/tenant"
)

// policies are the registered scheduling policies in evaluation order.
var policies = tenant.Policies()

// warmWorkers is the profiling width of the warm engine: the two cores
// the benchmark is sized for.
const warmWorkers = 2

// cell is one warm-replay pool configuration.
type cell struct {
	name    string
	tenants []tenant.Tenant
	pool    tenant.PoolConfig
}

// warmTenants is the warm-replay population: eight suite draws.
func warmTenants(o options) ([]tenant.Tenant, error) {
	return tenant.FromSuite(8, workloadConfig(o), core.DefaultConfig())
}

// warmCells is one warm-replay pass: every policy on 2 cores with a
// migration penalty of 320 cycles, on the fixed set and under churn rate
// 1, plus one affinity cell on 8 cores in 4 shards.
func warmCells(o options) ([]cell, error) {
	ts, err := warmTenants(o)
	if err != nil {
		return nil, err
	}
	churned, err := tenant.ApplyChurn(ts, tenant.Churn{Rate: 1})
	if err != nil {
		return nil, err
	}
	pool := func(p string) tenant.PoolConfig {
		return tenant.PoolConfig{Cores: 2, Policy: p, MigrationPenalty: 320}
	}
	var cells []cell
	for _, p := range policies {
		cells = append(cells, cell{p, ts, pool(p)})
	}
	for _, p := range policies {
		cells = append(cells, cell{p + ".churn", churned, pool(p)})
	}
	return append(cells, cell{"sharded", ts, tenant.PoolConfig{
		Cores: 8, Shards: 4, Policy: tenant.PolicyAffinity, MigrationPenalty: 320}}), nil
}

// warmEngine profiles the warm-replay population into a fresh engine.
func warmEngine(ctx context.Context, o options) (*tenant.Engine, []*tenant.Profile, error) {
	ts, err := warmTenants(o)
	if err != nil {
		return nil, nil, err
	}
	eng := tenant.NewEngine(warmWorkers, nil)
	profiles, err := runner.Map(ctx, warmWorkers, len(ts), func(ctx context.Context, i int) (*tenant.Profile, error) {
		return eng.Profile(ctx, ts[i])
	})
	return eng, profiles, err
}

// replayed is what the checks keep of one RunPool call.
type replayed struct {
	cell    int
	err     error
	digest  string
	records []uint64 // per tenant
	busy    uint64   // pool lifeguard cycles minus migration charges
}

// runWarm replays the cell mix on an engine whose profiles are all
// memoized, so every call is pool replay: the virtual-time merge,
// schedulers, warmth and logbuf.Channel.ProduceAt.
//
// Set-up profiles the population into a fresh engine, o.setups times;
// the last engine is the one replayed. Like cold-profile it runs on one
// P moved from CPU to CPU between repeats, so the sharded cell's shards
// take turns instead of running side by side.
func runWarm(ctx context.Context, b *bench) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // see runCold
	rot := newRotation()
	defer rot.release()
	o := b.o
	cells, err := warmCells(o)
	if err != nil {
		return err
	}
	var eng *tenant.Engine
	var profiles []*tenant.Profile
	var setups []float64
	for i := 0; i < o.setups; i++ {
		rot.turn()
		sp := b.tr.begin("setup.tenant.Engine.Profile", 0, 0)
		eng, profiles, err = warmEngine(ctx, o)
		setups = append(setups, sp.end().Seconds())
		if !b.op(err) {
			return err
		}
	}
	b.set("setup_s", quantile(setups, 0))

	var runs []replayed
	lat := make([][]float64, len(cells))
	records := make([]uint64, len(cells))
	start := time.Now()
	for time.Since(start) < seconds(o) {
		rot.turn()
		pass := b.tr.begin("warm.pass", 0, 0)
		for i, c := range cells {
			sp := b.tr.begin("tenant.Engine.RunPool", pass.id, 0)
			res, err := eng.RunPool(ctx, c.tenants, c.pool)
			lat[i] = append(lat[i], ms(sp.end()))
			r := replayed{cell: i, err: err}
			if err == nil {
				r.digest = digest(res.Cell())
				records[i] = 0
				for _, t := range res.Tenants {
					r.records = append(r.records, t.Records)
					records[i] += t.Records
				}
				for _, c := range res.CoreBusyCycles {
					r.busy += c
				}
				r.busy -= res.ColdServeCycles
			}
			runs = append(runs, r)
		}
		pass.end()
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	b.set("live_heap_mb", liveHeapMB())
	runtime.KeepAlive(eng)
	b.set(endToEndName(b, "work_per_s"), float64(sum(records))/(sumOfMins(lat)/1e3))
	b.set(endToEndName(b, "op_min_ms"), sumOfMins(lat)/float64(len(cells)))

	checkReplays(b, cells, profiles, runs)
	return nil
}

// checkReplays verifies every replay: records are conserved (a fixed
// set serves every profiled record, a churned set the same truncated
// count under every policy), the pool's work equals the profiled
// lifeguard cost on fixed sets, each cell repeats its first pass, and at
// the pinned seed each cell matches its reference digest.
func checkReplays(b *bench, cells []cell, profiles []*tenant.Profile, runs []replayed) {
	o := b.o
	var full []uint64
	var cost uint64
	for _, p := range profiles {
		full = append(full, p.Result.Records-p.Result.FilteredOut)
		cost += p.Result.LgCycles
	}
	first := map[int]replayed{}
	var churnRecords []uint64
	for _, r := range runs {
		if !b.op(r.err) {
			continue
		}
		c := cells[r.cell]
		churned := c.tenants[0].DepartAfter != 0
		var err error
		switch {
		case len(r.records) != len(full):
			err = fmt.Errorf("%s: %d tenant results for %d tenants", c.name, len(r.records), len(full))
		case !churned && !slices.Equal(r.records, full):
			err = fmt.Errorf("%s: served records %v, profiles hold %v", c.name, r.records, full)
		case !churned && r.busy != cost:
			err = fmt.Errorf("%s: pool did %d lifeguard cycles, profiles hold %d", c.name, r.busy, cost)
		case churned && churnRecords != nil && !slices.Equal(r.records, churnRecords):
			err = fmt.Errorf("%s: served records %v, other churned cells %v", c.name, r.records, churnRecords)
		}
		if churned && churnRecords == nil {
			churnRecords = r.records
			for i := range r.records {
				if r.records[i] > full[i] && err == nil {
					err = fmt.Errorf("%s: tenant %d served %d records of %d", c.name, i, r.records[i], full[i])
				}
			}
		}
		if f, ok := first[r.cell]; ok && err == nil && f.digest != r.digest {
			err = fmt.Errorf("%s: cell digest %s, first pass %s", c.name, r.digest, f.digest)
		} else if !ok {
			first[r.cell] = r
		}
		if err == nil {
			err = o.refs.check(o, o.refs.Cells, c.name, r.digest)
		}
		if err != nil {
			b.fail(err)
		}
	}
}
