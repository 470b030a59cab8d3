package tenant

import (
	"context"
	"errors"
	"runtime"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/workloads"
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
// runtime.NumCPU, 1 is the serial reference). exp memoizes the
// unmonitored baselines; nil builds a private engine of the same width.
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
	t = profileTenant(t)
	return e.profiles.Do(ctx, runner.HashKey(t), func() (*Profile, error) {
		return e.produce(ctx, t, nil)
	})
}

// profileTenant is the window-free, defaulted description a profile is
// keyed and recorded under.
func profileTenant(t Tenant) Tenant {
	t = t.withDefaults()
	t.ArriveAt, t.DepartAfter = 0, 0
	return t
}

// produce profiles one tenant: one LBA profiling run, whose derived
// unmonitored baseline (core.Result.Baseline) is memoized in the
// experiment runner under its Job key, so a figure panel that asks for
// the same baseline shares it. out, when non-nil, receives the
// timeline's segments as they are recorded.
func (e *Engine) produce(ctx context.Context, t Tenant, out *streamTimeline) (*Profile, error) {
	spec, err := workloads.ByName(t.Benchmark)
	if err != nil {
		return nil, err
	}
	p, err := buildProfile(t, spec.Build(t.Workload), out)
	if err != nil {
		return nil, err
	}
	p.Base, err = e.exp.Adopt(ctx, runner.Job{
		Benchmark: t.Benchmark,
		Mode:      core.ModeUnmonitored,
		Workload:  t.Workload,
		Config:    t.Config,
	}, p.Result.Baseline)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// RunPool simulates the tenant set sharing one lifeguard-core pool and
// returns the contended timing. Results are independent of the worker
// count. Tenants may carry arrival/departure windows (Tenant.ArriveAt/
// DepartAfter): the replay then serves a churning population —
// schedulers see only live tenants, departing tenants drain and release
// their channel, and the result gains active-window and peak-concurrency
// accounting. An invalid pool shape (PoolConfig.Validate) or window (a
// departure at or before the arrival) is rejected before any profiling
// runs.
//
// Profiling and replay overlap: a tenant the memo already holds is
// replayed from its finished profile, and a tenant it does not is
// replayed from its timeline while the profiling run is still recording
// it (acquire), so a fresh tenant's profiling and the pool replay run
// side by side. The replay consumes exactly the steps of the finished
// timeline, so the result is the one a replay of the finished profiles
// (Profiles, then ReplayPool) returns. A failed profile fails the call
// with the profile's error; a cancelled call returns ctx.Err(). Either
// way RunPool returns only once every profiling run it started has
// finished, and a run that was under way when the replay was cancelled
// completes into the memo.
func (e *Engine) RunPool(ctx context.Context, tenants []Tenant, pool PoolConfig) (*PoolResult, error) {
	return e.runPool(ctx, tenants, pool, replayOpts{})
}

// runPool is RunPool with the replay's test seam.
func (e *Engine) runPool(ctx context.Context, tenants []Tenant, pool PoolConfig, opts replayOpts) (*PoolResult, error) {
	if err := pool.Validate(); err != nil {
		return nil, err
	}
	a, err := e.acquire(ctx, tenants)
	if err != nil {
		return nil, err
	}
	res, err := replayValidated(a.ctx, a.replay, pool, opts)
	if err != nil {
		a.cancel() // feed no profiling run that has not started
	}
	if perr := a.wait(); perr != nil && !errors.Is(perr, context.Canceled) && !errors.Is(perr, context.DeadlineExceeded) {
		return nil, perr
	}
	return res, err
}

// Profiles returns the tenants' finished profiles, ready to replay:
// profiling fans out across the worker pool through the memo (acquire,
// the one acquisition path RunPool also takes), and each tenant's
// arrival/departure window is overlaid on a shallow copy of its
// memoized, window-free profile, never on the cached value. Invalid
// windows are rejected before any profiling runs.
func (e *Engine) Profiles(ctx context.Context, tenants []Tenant) ([]*Profile, error) {
	a, err := e.acquire(ctx, tenants)
	if err != nil {
		return nil, err
	}
	if err := a.wait(); err != nil {
		return nil, err
	}
	return a.final, nil
}

// acquisition is the profile side of one RunPool or Profiles call.
type acquisition struct {
	// replay is what the replay reads: a hit's finished profile, or a
	// miss's streamed profile (streamTimeline, results behind ready).
	replay []*Profile
	// final holds the finished profiles, windows overlaid; producers
	// fill the misses' entries.
	final []*Profile
	// ctx is the replay's context: the caller's, or, when anything is
	// being profiled, a child a failed producer cancels, so a replay
	// waiting on a stream that will never grow wakes up.
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed once every producer has finished
	err    error         // the first profiling error, as runner.Map reports it
}

// acquire looks every tenant up in the profile memo and starts profiling
// the misses. A hit costs what a memo hit cost before: no goroutine, no
// allocation beyond a window overlay. Misses are produced through the
// memo by runner.Map, at most Workers at a time, on a goroutine of its
// own; a producer whose key another caller has claimed waits for that
// profile and hands its segments to the stream at once. Producers run to
// completion even when ctx is cancelled, so work under way lands in the
// memo; only producers not yet started are skipped. wait blocks until
// all have finished.
func (e *Engine) acquire(ctx context.Context, tenants []Tenant) (*acquisition, error) {
	for _, t := range tenants {
		if err := t.validateWindow(); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := len(tenants)
	a := &acquisition{replay: make([]*Profile, n), final: make([]*Profile, n),
		ctx: ctx, cancel: func() {}, done: make(chan struct{})}
	keys := make([]string, n)
	var misses []int
	for i, t := range tenants {
		pt := profileTenant(t)
		keys[i] = runner.HashKey(pt)
		if p, ok := e.profiles.Get(keys[i]); ok {
			a.final[i] = withWindow(p, t)
			a.replay[i] = a.final[i]
			continue
		}
		pt.ArriveAt, pt.DepartAfter = t.ArriveAt, t.DepartAfter
		a.replay[i] = &Profile{Tenant: pt, ready: make(chan struct{})}
		misses = append(misses, i)
	}
	if len(misses) == 0 {
		close(a.done)
		return a, nil
	}
	a.ctx, a.cancel = context.WithCancel(ctx)
	for _, i := range misses {
		a.replay[i].tl = newStreamTimeline(a.ctx.Done())
	}
	go func() {
		defer close(a.done)
		started := make([]bool, len(misses))
		_, a.err = runner.Map(a.ctx, e.workers, len(misses), func(ctx context.Context, j int) (struct{}, error) {
			started[j] = true
			i := misses[j]
			st := a.replay[i].tl.(*streamTimeline)
			ctx = context.WithoutCancel(ctx)
			p, err := e.profiles.Do(ctx, keys[i], func() (*Profile, error) {
				return e.produce(ctx, profileTenant(tenants[i]), st)
			})
			if err != nil {
				a.cancel()
				a.fail(i)
				return struct{}{}, err
			}
			a.final[i] = withWindow(p, tenants[i])
			pending := a.replay[i]
			pending.Result, pending.Base, pending.DedicatedWall = p.Result, p.Base, p.DedicatedWall
			close(pending.ready)
			st.close(p.tl.(*segTimeline))
			return struct{}{}, nil
		})
		for j, i := range misses {
			if !started[j] {
				a.fail(i)
			}
		}
	}()
	return a, nil
}

// fail completes miss i's streamed profile without a profile: zero
// results and a closed stream. Callers cancel the replay first (or its
// context is already done), so the replay discards whatever it reads.
func (a *acquisition) fail(i int) {
	p := a.replay[i]
	p.Result, p.Base = &core.Result{}, &core.Result{}
	close(p.ready)
	p.tl.(*streamTimeline).close(nil)
}

// wait blocks until every producer has finished and returns the first
// profiling error (or the context error that stopped the fan-out).
func (a *acquisition) wait() error {
	<-a.done
	a.cancel()
	return a.err
}

// withWindow overlays t's arrival/departure window on a shallow copy of
// the window-free profile p, or returns p itself when t has no window
// to overlay.
func withWindow(p *Profile, t Tenant) *Profile {
	if p.Tenant.ArriveAt == t.ArriveAt && p.Tenant.DepartAfter == t.DepartAfter {
		return p
	}
	q := *p
	q.Tenant.ArriveAt, q.Tenant.DepartAfter = t.ArriveAt, t.DepartAfter
	return &q
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
