package tenant

import (
	"context"
	"runtime"

	"repro/internal/core"
	"repro/internal/runner"
)

// Engine executes tenant simulations: it owns the profile cache and fans
// profiling out across goroutines, sharing an experiment runner for the
// unmonitored baselines so tenant matrices reuse the same memoized
// baselines as figure panels. An Engine is safe for concurrent use.
type Engine struct {
	workers  int
	exp      *runner.Engine
	profiles *runner.Memo[*Profile]
	// envelope memoizes the admission planner's probes by population
	// content (admission.go); RunPool itself is never memoized.
	envelope *runner.Memo[envPoint]
}

// DefaultProfileCache bounds the engine's profile memo: under tenant
// churn the key population is open-ended (every admitted tenant is a new
// key), so an unbounded cache grows without limit in a long-lived
// process. 1024 retained profiles cover any realistic live population
// and matrix sweep while keeping a serving daemon's footprint flat;
// SetProfileCacheLimit adjusts it.
const DefaultProfileCache = 1024

// envelopeCache bounds the admission envelope memo the same way: every
// probed (population, pool) pair is a key, and a daemon asks about an
// open-ended sequence of populations.
const envelopeCache = 1024

// NewEngine returns an engine with the given pool width (<= 0 selects
// runtime.NumCPU, 1 is the serial reference). exp supplies baseline runs;
// nil builds a private engine of the same width.
func NewEngine(workers int, exp *runner.Engine) *Engine {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if exp == nil {
		exp = runner.New(workers)
	}
	return &Engine{
		workers:  workers,
		exp:      exp,
		profiles: runner.NewMemoBounded[*Profile](DefaultProfileCache),
		envelope: runner.NewMemoBounded[envPoint](envelopeCache),
	}
}

// Workers reports the pool width.
func (e *Engine) Workers() int { return e.workers }

// SetProfileCacheLimit replaces the profile memo with one retaining at
// most n completed profiles (n <= 0 selects an unbounded cache). The
// existing cache is discarded — call it before the first simulation, not
// between replays, or warm profiles are re-run. Not safe concurrently
// with RunPool.
func (e *Engine) SetProfileCacheLimit(n int) {
	e.profiles = runner.NewMemoBounded[*Profile](n)
}

// ProfileCacheLen reports how many profiles the memo currently retains.
func (e *Engine) ProfileCacheLen() int { return e.profiles.Len() }

// AdmissionMemoStats reports the admission envelope memo's hit and miss
// counts: a miss is a probe that ran a pool replay, a hit one answered
// from the memo (or by waiting on an equal probe in flight).
func (e *Engine) AdmissionMemoStats() (hits, misses uint64) {
	return e.envelope.Hits(), e.envelope.Misses()
}

// Runner returns the experiment engine used for baselines, so callers can
// fold the tenant runs into a shared JSON report.
func (e *Engine) Runner() *runner.Engine { return e.exp }

// Profile returns the tenant's uncontended profile, memoized: equal
// tenant descriptions across pool cells and policies share one profiling
// run, the tenant-matrix analogue of the runner's config-hash baselines.
// Arrival/departure windows are stripped before hashing — an uncontended
// timeline does not depend on when the tenant arrives — so every churn
// variant of a tenant shares one profiling run, and the cached Profile
// always carries the window-free description (RunPool overlays the
// caller's windows per replay).
func (e *Engine) Profile(ctx context.Context, t Tenant) (*Profile, error) {
	t = t.withDefaults()
	t.ArriveAt, t.DepartAfter = 0, 0
	return e.profiles.Do(ctx, runner.HashKey(t), func() (*Profile, error) {
		base, err := e.exp.Run(ctx, runner.Job{
			Benchmark: t.Benchmark,
			Mode:      core.ModeUnmonitored,
			Workload:  t.Workload,
			Config:    t.Config,
		})
		if err != nil {
			return nil, err
		}
		return buildProfile(t, base)
	})
}

// RunPool simulates the tenant set sharing one lifeguard-core pool:
// profiling fans out across the worker pool (memoized), then the serial
// replay computes the contended timing. Results are independent of the
// worker count. Tenants may carry arrival/departure windows
// (Tenant.ArriveAt/DepartAfter): the replay then serves a churning
// population — schedulers see only live tenants, departing tenants drain
// and release their channel, and the result gains active-window and
// peak-concurrency accounting. Invalid windows (a departure at or before
// the arrival) are rejected before any profiling runs.
func (e *Engine) RunPool(ctx context.Context, tenants []Tenant, pool PoolConfig) (*PoolResult, error) {
	// Reject a malformed decode window before any profiling runs, like
	// the per-tenant window validation below (and unlike the silent
	// coercion to DefaultStepWindow this replaces).
	if err := ValidateStepWindow(pool.StepWindow); err != nil {
		return nil, err
	}
	for _, t := range tenants {
		if err := t.validateWindow(); err != nil {
			return nil, err
		}
	}
	profiles, err := runner.Map(ctx, e.workers, len(tenants),
		func(ctx context.Context, i int) (*Profile, error) {
			return e.Profile(ctx, tenants[i])
		})
	if err != nil {
		return nil, err
	}
	// Memoized profiles are shared (and window-free); overlay each
	// caller's churn window on a shallow copy, never on the cached value.
	for i := range profiles {
		if a, d := tenants[i].ArriveAt, tenants[i].DepartAfter; profiles[i].Tenant.ArriveAt != a ||
			profiles[i].Tenant.DepartAfter != d {
			p := *profiles[i]
			p.Tenant.ArriveAt, p.Tenant.DepartAfter = a, d
			profiles[i] = &p
		}
	}
	return ReplayPool(ctx, profiles, pool)
}

// RunMatrix simulates the tenant set against every pool configuration,
// fanning cells out across the worker pool. All cells share the memoized
// profiles, so the matrix costs one profiling pass plus cheap replays,
// and the outcome is byte-identical to running the cells serially.
func (e *Engine) RunMatrix(ctx context.Context, tenants []Tenant, pools []PoolConfig) ([]*PoolResult, error) {
	return runner.Map(ctx, e.workers, len(pools),
		func(ctx context.Context, i int) (*PoolResult, error) {
			return e.RunPool(ctx, tenants, pools[i])
		})
}
