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
}

// DefaultProfileCache bounds the engine's profile memo: under tenant
// churn the key population is open-ended (every admitted tenant is a new
// key), so an unbounded cache grows without limit in a long-lived
// process. 1024 retained profiles cover any realistic live population
// and matrix sweep while keeping a serving daemon's footprint flat.
const DefaultProfileCache = 1024

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
	}
}

// Workers reports the pool width.
func (e *Engine) Workers() int { return e.workers }

// ProfileCacheLen reports how many profiles the memo currently retains.
func (e *Engine) ProfileCacheLen() int { return e.profiles.Len() }

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
// profiling fans out across the worker pool (memoized, Profiles), then
// the serial replay computes the contended timing. Results are
// independent of the worker count. Tenants may carry arrival/departure
// windows (Tenant.ArriveAt/DepartAfter): the replay then serves a
// churning population — schedulers see only live tenants, departing
// tenants drain and release their channel, and the result gains
// active-window and peak-concurrency accounting. An invalid pool shape
// (PoolConfig.Validate) or window (a departure at or before the arrival)
// is rejected before any profiling runs.
func (e *Engine) RunPool(ctx context.Context, tenants []Tenant, pool PoolConfig) (*PoolResult, error) {
	if err := pool.Validate(); err != nil {
		return nil, err
	}
	profiles, err := e.Profiles(ctx, tenants)
	if err != nil {
		return nil, err
	}
	return ReplayPool(ctx, profiles, pool)
}

// Profiles returns the tenants' profiles, ready to replay: profiling fans
// out across the worker pool through the memo (Profile), and each
// tenant's arrival/departure window is overlaid on a shallow copy of its
// memoized, window-free profile, never on the cached value. Invalid
// windows are rejected before any profiling runs. RunPool replays what it
// returns; the harness's per-record oracle replays the same profiles.
func (e *Engine) Profiles(ctx context.Context, tenants []Tenant) ([]*Profile, error) {
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
	for i := range profiles {
		if a, d := tenants[i].ArriveAt, tenants[i].DepartAfter; profiles[i].Tenant.ArriveAt != a ||
			profiles[i].Tenant.DepartAfter != d {
			p := *profiles[i]
			p.Tenant.ArriveAt, p.Tenant.DepartAfter = a, d
			profiles[i] = &p
		}
	}
	return profiles, nil
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
