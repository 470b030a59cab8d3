package tenant

import (
	"context"
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"repro/internal/logbuf"
	"repro/internal/runner"
)

// PoolConfig sizes the shared lifeguard-core pool and carries the policy
// inputs the scheduler subsystem consumes (weights, deadlines).
type PoolConfig struct {
	// Cores is the number of lifeguard cores in the pool (>= 1).
	Cores int `json:"cores"`
	// Policy selects the record scheduler (see Policies).
	Policy string `json:"policy"`
	// Weights are per-tenant WFQ weights, cycled when shorter than the
	// tenant set ("2,1" over four tenants gives 2,1,2,1). Empty means
	// every tenant weighs 1; non-positive entries are clamped to 1. The
	// priority policy's tiers derive from them: any tenant weighing more
	// than 1 joins the premium tier 0, the rest tier 1 — the "paid SLA"
	// reading of a raised weight.
	Weights []float64 `json:"weights,omitempty"`
	// DeadlineCycles is the lag deadline the deadline policy bounds each
	// tenant by; 0 selects DefaultDeadlineCycles.
	DeadlineCycles uint64 `json:"deadline_cycles,omitempty"`
	// MigrationPenalty is the extra lifeguard cost, in cycles, of serving
	// a record on a stone-cold core (scaled down linearly as the core
	// warms; see warmthModel). 0 disables the migration model entirely:
	// warmth is still tracked and exposed to policies, but no cost is
	// charged and no migration accounting lands in results, so every
	// policy's timing is bit-for-bit what it was without the model.
	MigrationPenalty uint64 `json:"migration_penalty,omitempty"`
	// Shards partitions the pool's cores (and its tenants, balanced by
	// profiled lifeguard load) into that many sub-pools, each replayed
	// independently on its own goroutine and deterministically merged —
	// the static-partitioning regime ReplayPool and Engine.RunPool take
	// when > 1. 0 and 1 both select the single global pool (the batched
	// replay, byte for byte). At most Cores (Validate); values above the
	// tenant count are clamped down to it. See shard.go for the
	// partitioning and merge contract.
	Shards int `json:"shards,omitempty"`
}

// Validate checks the pool's shape: at least one core, a shard count in
// 0..Cores and a known policy (empty selects least-lag). Every boundary a
// PoolConfig enters through — the replay entry points, Engine.RunPool,
// the lbad server, the harness runlist and the commands — shares this one
// check. The clamp of Shards to the tenant count is not part of it: that
// depends on the population (planShards).
func (pool PoolConfig) Validate() error {
	if pool.Cores < 1 {
		return fmt.Errorf("tenant: pool must be >= 1 lifeguard core, got %d", pool.Cores)
	}
	if pool.Shards < 0 || pool.Shards > pool.Cores {
		return fmt.Errorf("tenant: shards %d outside 0..pool (%d cores)", pool.Shards, pool.Cores)
	}
	_, err := lookupPolicy(pool.Policy)
	return err
}

// tenantViews expands the pool's per-tenant policy inputs to n live
// scheduler views, applying the cycling and defaulting rules above.
func (pool PoolConfig) tenantViews(n int) []TenantView {
	return pool.tenantViewsInto(nil, n)
}

// tenantViewsInto is tenantViews reusing views' backing array when it is
// large enough; every element is fully overwritten, so a reused slice is
// indistinguishable from a fresh one.
func (pool PoolConfig) tenantViewsInto(views []TenantView, n int) []TenantView {
	if cap(views) < n {
		views = make([]TenantView, n)
	}
	views = views[:n]
	deadline := pool.DeadlineCycles
	if deadline == 0 {
		deadline = DefaultDeadlineCycles
	}
	for i := range views {
		w := 1.0
		if len(pool.Weights) > 0 {
			if cand := pool.Weights[i%len(pool.Weights)]; cand > 0 {
				w = cand
			}
		}
		tier := 1
		if w > 1 {
			tier = 0
		}
		views[i] = TenantView{Weight: w, Tier: tier, DeadlineCycles: deadline}
	}
	return views
}

// lagHist is a deterministic power-of-two histogram of queueing lag
// (record finish minus production cycle). Bucket k holds lags whose bit
// length is k, i.e. lag in [2^(k-1), 2^k).
type lagHist struct {
	buckets [65]uint64
	count   uint64
	sum     uint64
	max     uint64
}

func (h *lagHist) add(lag uint64) {
	h.buckets[bits.Len64(lag)]++
	h.count++
	h.sum += lag
	if lag > h.max {
		h.max = lag
	}
}

// quantile returns an upper bound on the q-quantile lag: the upper edge
// of the histogram bucket where the cumulative count crosses q.
func (h *lagHist) quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	target := uint64(q * float64(h.count))
	if target >= h.count {
		target = h.count - 1
	}
	var seen uint64
	for k, n := range h.buckets {
		seen += n
		if seen > target {
			if k == 0 {
				return 0
			}
			upper := (uint64(1) << k) - 1
			if upper > h.max {
				upper = h.max
			}
			return upper
		}
	}
	return h.max
}

func (h *lagHist) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// TenantResult is one tenant's measured behaviour inside a pool cell: the
// lba-runner/v1 tenant row itself (runner.TenantRow documents its fields).
type TenantResult = runner.TenantRow

// PoolResult is one cell of a tenant matrix: the tenant set served by a
// pool of the given size under the given policy. It is the lba-runner/v1
// cell, filled directly by the replay, plus the per-core detail the JSON
// leaves out.
type PoolResult struct {
	runner.TenantCell

	CoreBusyCycles []uint64 // lifeguard work per pool core
	// CoreWarmth is the final [core][tenant] warmth matrix. It is always
	// populated, because warmth is tracked regardless of the penalty; the
	// fuzz tier asserts its conservation invariants on it.
	CoreWarmth [][]float64
	// Churned records that the cell replayed a churning tenant set, which
	// is what puts PeakConcurrency into the JSON cell.
	Churned bool
}

// Cell returns the lba-runner/v1 JSON cell. It shares the Tenants slice
// with the result. PeakConcurrency is cleared unless the cell churned, so
// churn-off artifacts keep the fixed-set schema byte for byte.
func (r *PoolResult) Cell() runner.TenantCell {
	cell := r.TenantCell
	if !r.Churned {
		cell.PeakConcurrency = 0
	}
	return cell
}

// WorstLagP95 is the largest per-tenant lag p95 in the cell: the quantity
// the deadline policy exists to bound.
func (r *PoolResult) WorstLagP95() uint64 {
	var worst uint64
	for _, t := range r.Tenants {
		worst = max(worst, t.LagP95Cycles)
	}
	return worst
}

// tenantState is one tenant's live replay state. The timeline is read
// through cur, a windowed cursor over the profile's encoded segments: the
// replay never holds more than one decoded window per live tenant, and
// the cursor's churn truncation replaces the materialised path's
// churnLimit prefix (same cut, streamed).
type tenantState struct {
	prof   *Profile
	ch     *logbuf.Channel
	cur    stepCursor
	offset uint64 // accumulated contention stalls (shifts the timeline)
	lags   lagHist

	arrive uint64 // Tenant.ArriveAt: the whole timeline shifts by this
	depart uint64 // Tenant.DepartAfter (absolute; 0 = never departs)

	// Departure bookkeeping: a departing tenant is finalised the moment
	// its truncated timeline is exhausted — stop producing, drain, release
	// the channel — so releaseWall is known mid-replay and its warmth can
	// be evicted while other tenants are still running.
	released    bool
	appFinal    uint64 // contended app clock at departure
	releaseWall uint64 // wall clock at channel release
	dedicated   uint64 // dedicated-core wall of the truncated window
}

// next returns the adjusted virtual time of the tenant's next step.
func (ts *tenantState) next() uint64 { return ts.cur.head().cycle + ts.arrive + ts.offset }

func (ts *tenantState) done() bool { return ts.cur.done() }

// activeApp is the tenant's app-clock span inside its active window,
// relative to its own start (the departure truncates a longer run).
func (ts *tenantState) activeApp() uint64 {
	app := ts.prof.complete().Result.AppCycles
	if ts.depart > 0 && ts.depart-ts.arrive < app {
		app = ts.depart - ts.arrive
	}
	return app
}

// ReplayPool replays already-built profiles (Engine.Profile) against one
// pool configuration. It is the package's one replay entry point: the
// batched replay, or — when pool.Shards > 1 — the sharded path, whose
// sub-pools are each replayed batched on their own goroutine and merged
// deterministically (shard.go; one shard is the batched replay, byte for
// byte). Arrival/departure windows are read from each profile's Tenant
// description (Engine.RunPool overlays the caller's windows onto the
// memoized, window-free profiles before calling in). A cancelled ctx
// aborts the replay at the next decode-window refill (the check sits off
// the per-record path, so cancellation costs nothing in the steady state)
// and the call returns ctx.Err(); a replay that observes a cancelled
// context never returns a result — the lbad serving daemon's control
// loop relies on both halves.
func ReplayPool(ctx context.Context, profiles []*Profile, pool PoolConfig) (*PoolResult, error) {
	if err := pool.Validate(); err != nil {
		return nil, err
	}
	return replayValidated(ctx, profiles, pool, replayOpts{})
}

// replayValidated is ReplayPool for a pool already validated, with the
// test seam: the sharded path when pool.Shards > 1, else the global one.
func replayValidated(ctx context.Context, profiles []*Profile, pool PoolConfig, opts replayOpts) (*PoolResult, error) {
	if pool.Shards > 1 {
		return replaySharded(ctx, profiles, pool, opts)
	}
	return replayMode(ctx, profiles, pool, opts)
}

// replayArena is one replay's reusable working memory. Replays run per
// matrix cell — thousands per sweep — and their working state (tenant
// states, views, warmth matrix, decode windows) is shaped only by the
// tenant and core counts, so a sync.Pool of arenas cuts steady-state
// replay allocations to near zero. Reuse is invisible by construction:
// every slice is re-dimensioned and overwritten in setup, and the warmth
// model goes through warmthModel.reset, documented to restore as-new
// state. Channels are not arena-held: each tenant takes one from
// logbuf.Get and the replay's end returns it with logbuf.Put. The
// per-record reference in the tests replays on a brand-new arena with
// fresh channels, so the differential tests pin that reuse invisible.
type replayArena struct {
	states []tenantState
	views  []TenantView
	cores  []CoreView
	busy   []uint64
	agenda []int
	warmth warmthModel
	ring   windowRing // decoded-step window buffers, recycled across replays
}

var arenaPool = sync.Pool{New: func() any { return new(replayArena) }}

// replayer is one replay's live state plus the dispatch machinery. The
// hot-path layout and the batched/per-record contract are documented in
// docs/architecture.md ("The replay hot path").
type replayer struct {
	pool    PoolConfig
	opts    replayOpts
	sched   Scheduler
	churned bool

	// Cancellation: ctx's done channel, checked at decode-window refill
	// boundaries (stepCursor.fill resets the cursor position to zero, so
	// the loops test pos == 0 after an advance — once per window, never
	// per record). done is nil for context.Background(), making the
	// check a single nil comparison in the steady state.
	ctx  context.Context
	done <-chan struct{}

	states   []tenantState
	views    []TenantView
	cores    []CoreView
	busy     []uint64
	warmth   *warmthModel
	agenda   []int // tenant indices in arrival order (churn only)
	arrivals int   // agenda cursor
	ring     *windowRing
}

// observer is a per-record hook, invoked after each record is assigned
// with the producing tenant, the serving core, the request, the migration
// charge and the lifeguard-side finish cycle.
type observer func(tenant, core int, req Request, charge, finish uint64)

// replayOpts is the replay's test seam: what only the go-test tier sets,
// to watch service unfold, to run the serial shard oracle, and to drive
// the pipeline at decode windows and warmth half-lives production never
// uses. Production replays pass the zero value, which selects parallel
// shards, DefaultStepWindow and the default half-lives.
type replayOpts struct {
	obs                observer // per-record hook; nil costs one comparison per record
	serial             bool     // replay shards one by one, in shard order
	window             int      // decode window in steps; 0 = DefaultStepWindow
	halfLifeBytes      uint64   // warmth byte half-life; 0 = DefaultWarmthHalfLifeBytes
	idleHalfLifeCycles uint64   // warmth idle half-life; 0 = DefaultWarmthIdleHalfLifeCycles
}

// replayMode replays one global pool, already validated and unsharded,
// on a pooled arena.
func replayMode(ctx context.Context, profiles []*Profile, pool PoolConfig, opts replayOpts) (*PoolResult, error) {
	a := arenaPool.Get().(*replayArena)
	defer arenaPool.Put(a)
	var r replayer
	if err := r.start(ctx, profiles, pool, opts, a); err != nil {
		return nil, err
	}
	return r.end(r.runBatched())
}

// start checks the context, builds the pool's scheduler and sets the
// replay up on a's working memory.
func (r *replayer) start(ctx context.Context, profiles []*Profile, pool PoolConfig, opts replayOpts, a *replayArena) error {
	if len(profiles) == 0 {
		return fmt.Errorf("tenant: no tenants")
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	sched, err := NewScheduler(pool.Policy, pool, len(profiles))
	if err != nil {
		return err
	}
	*r = replayer{pool: pool, opts: opts, sched: sched, ctx: ctx, done: ctx.Done()}
	return r.setup(profiles, a)
}

// end closes a replay whose merge loop returned err. A context cancelled
// during the merge's very last window would otherwise slip through with
// a complete-looking result; the contract is that a cancelled replay
// always returns ctx.Err() and never a result (retire()'s dedicated-core
// replays bail out early on cancellation with partial clocks, so a result
// assembled after a cancel could be silently wrong). Either way every
// decoded window returns to the ring and every channel to logbuf, and the
// cursors drop their sources, so an arena-held state never retains a
// window, a channel or a reference into a memoized profile's segments
// beyond the replay.
func (r *replayer) end(err error) (*PoolResult, error) {
	if err == nil {
		err = r.ctx.Err()
	}
	var res *PoolResult
	if err == nil {
		res = r.finish()
	}
	for i := range r.states {
		ts := &r.states[i]
		ts.cur.close(r.ring)
		logbuf.Put(ts.ch)
		ts.ch = nil
	}
	return res, err
}

// cancelled reports whether the replay's context has been cancelled. It
// is called at window-refill boundaries only, so the per-record path
// pays at most a nil comparison.
func (r *replayer) cancelled() bool {
	if r.done == nil {
		return false
	}
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// setup dimensions the replay state for the profiles on a's working
// memory. Every window is validated before any tenant takes a channel, so
// a rejected population holds nothing.
func (r *replayer) setup(profiles []*Profile, a *replayArena) error {
	for _, p := range profiles {
		if err := p.Tenant.validateWindow(); err != nil {
			return err
		}
	}
	n := len(profiles)
	if cap(a.states) < n {
		a.states = make([]tenantState, n)
	}
	r.states = a.states[:n]
	r.ring = &a.ring
	window := DefaultStepWindow
	if r.opts.window > 0 {
		window = r.opts.window
	}
	r.ring.reset(window)
	for i, p := range profiles {
		arrive, depart := p.Tenant.ArriveAt, p.Tenant.DepartAfter
		if arrive > 0 || depart > 0 {
			r.churned = true
		}
		r.states[i] = tenantState{
			prof:   p,
			ch:     logbuf.Get(p.Tenant.Config.Channel),
			arrive: arrive,
			depart: depart,
		}
		r.states[i].cur.open(p.tl, r.ring.get(), arrive, depart)
	}
	a.views = r.pool.tenantViewsInto(a.views, n)
	r.views = a.views
	for i := range r.states {
		ts := &r.states[i]
		// A tenant with an empty timeline must not sit in the rankings as
		// an eternally-underserved peer (it would shift every real
		// tenant's wfq/priority rank for the whole replay); one that has
		// not arrived yet is invisible for the same reason.
		r.views[i].Done = ts.done()
		r.views[i].Absent = ts.arrive > 0
		r.views[i].TransportLatency = ts.ch.Config().TransportLatency
	}
	r.warmth = &a.warmth
	r.warmth.reset(r.pool.Cores, n)
	r.warmth.setHalfLives(r.opts.halfLifeBytes, r.opts.idleHalfLifeCycles)
	if cap(a.cores) < r.pool.Cores {
		a.cores = make([]CoreView, r.pool.Cores)
	}
	r.cores = a.cores[:r.pool.Cores]
	for c := range r.cores {
		r.cores[c] = CoreView{LastTenant: -1}
	}
	if cap(a.busy) < r.pool.Cores {
		a.busy = make([]uint64, r.pool.Cores)
	}
	r.busy = a.busy[:r.pool.Cores]
	for c := range r.busy {
		r.busy[c] = 0
	}

	// Arrival agenda: tenant indices in arrival order. The merge processes
	// steps in non-decreasing adjusted production time (offsets only
	// grow), so a single cursor flips tenants to present as the replay
	// clock passes their arrivals.
	if r.churned {
		a.agenda = resetInts(a.agenda, n, 0)
		r.agenda = a.agenda
		for i := range r.agenda {
			r.agenda[i] = i
		}
		sort.SliceStable(r.agenda, func(i, j int) bool {
			return r.states[r.agenda[i]].arrive < r.states[r.agenda[j]].arrive
		})
	}
	return nil
}

// flipArrivals makes every tenant whose arrival the replay clock has
// reached visible to schedulers, reporting whether any view flipped.
func (r *replayer) flipArrivals(now uint64) bool {
	flipped := false
	for r.arrivals < len(r.agenda) && r.states[r.agenda[r.arrivals]].arrive <= now {
		j := r.agenda[r.arrivals]
		if !r.states[j].released {
			r.views[j].Absent = false
			flipped = true
		}
		r.arrivals++
	}
	return flipped
}

// retire finalises a departing tenant the moment its truncated timeline
// is exhausted: the app stops producing at its departure cycle, drains
// (waits for the channel's in-flight records), then releases the channel
// and its shadow-cache warmth. The dedicated-core wall of the same
// truncated window is computed here so the contention factor of a
// departed tenant compares like against like. A window that covers the
// whole app span (every lbad drain-then-release eviction) truncates
// nothing, since no step lies past AppCycles, so that wall is the
// profile's DedicatedWall and is not walked again.
func (r *replayer) retire(ti int) {
	ts := &r.states[ti]
	if ts.released || ts.depart == 0 || !ts.done() {
		return
	}
	ts.appFinal = ts.arrive + ts.activeApp() + ts.offset
	ts.releaseWall = ts.ch.Finish(ts.appFinal)
	if p := ts.prof.complete(); ts.depart-ts.arrive >= p.Result.AppCycles {
		ts.dedicated = p.DedicatedWall
	} else {
		// Replay the truncated window on a dedicated channel through a
		// fresh cursor over the same encoded timeline (the cursor's churn
		// truncation is exactly the prefix the merge just exhausted),
		// drawing the scratch window from the ring and recycling both it
		// and the retired tenant's own window — departures free their
		// decoded state for later arrivals.
		var cur stepCursor
		cur.open(ts.prof.tl, r.ring.get(), ts.arrive, ts.depart)
		ch := logbuf.Get(ts.ch.Config())
		ts.dedicated = dedicatedWallOn(ch, &cur, ts.activeApp(), r.done)
		logbuf.Put(ch)
		cur.close(r.ring)
	}
	ts.cur.close(r.ring)
	ts.released = true
	r.views[ti].Absent = true
	r.warmth.release(ti)
}

// refresh updates the requester-relative slices of the live views before
// a scheduling decision: the channel's in-order consumption floor and,
// per core, the requesting tenant's warmth there. runBatched calls it
// only at the start of a warmth-sensitive scheduler's run — the per-core
// warmth walk on every record is exactly the overhead batching removes;
// the per-record reference in the tests calls it before every Pick.
func (r *replayer) refresh(ti int) {
	r.views[ti].ChannelFree = r.states[ti].ch.LifeguardFinish()
	for c := range r.cores {
		r.cores[c].Warmth = r.warmth.warmth(c, ti)
		r.cores[c].LastTenant = r.warmth.lastTenant(c)
	}
}

// runBatched is the fast-path merge loop. One O(tenants) scan finds both
// the leader (the tenant with the lexicographically smallest
// (next cycle, index), exactly the per-record winner) and the runner-up
// bound (the smallest such pair among the others); the leader then keeps
// the merge — a *run* — for as long as its next record still wins that
// comparison. Rivals' clocks cannot move while they are not being
// served, so the bound stays valid for the whole run and each in-run
// record costs O(1) merge work instead of a fresh O(tenants) scan.
// Record dispatch inside a run goes through the scheduler's BeginRun and
// PickNext (no per-core warmth refresh, incremental ranks); every
// decision is, by construction, the one a per-record loop (one scan and
// one Pick per record, the reference kept in reference_test.go) would
// have made. It is the only merge loop outside the tests.
func (r *replayer) runBatched() error {
	// Replay-stable state, hoisted so the in-run loop reloads nothing
	// through r after opaque calls.
	cores, busy, views := r.cores, r.busy, r.views
	w, penalty, obs := r.warmth, r.pool.MigrationPenalty, r.opts.obs
	churned, sched := r.churned, r.sched
	// Warmth-sensitive schedulers get refreshed warmth views at run start
	// and picked-core maintenance per record (see Scheduler). Sensitivity
	// is per-replay, not per-type: wfq and priority read warmth only when
	// the migration model prices their rank tie-break.
	warmBatch := sched.WarmthSensitive()
	// A cursor over a timeline still being recorded blocks in setup until
	// its first segment exists, and wakes empty if the replay is cancelled
	// meanwhile; abort before serving anything then.
	if r.cancelled() {
		return r.ctx.Err()
	}
	for {
		ti, j2 := -1, -1
		var tmin, t2 uint64
		for i := range r.states {
			ts := &r.states[i]
			if ts.done() {
				continue
			}
			n := ts.next()
			if ti < 0 || n < tmin {
				ti, j2 = i, ti
				tmin, t2 = n, tmin
			} else if j2 < 0 || n < t2 {
				j2, t2 = i, n
			}
		}
		if ti < 0 {
			return nil
		}
		ts := &r.states[ti]
		v := &views[ti]
		cur, arrive := &ts.cur, ts.arrive // arrive immutable across the run
		if warmBatch {
			r.refresh(ti)
		}
		sched.BeginRun(ti, cores, views)
		for !cur.done() {
			s := cur.head()
			now := s.cycle + arrive + ts.offset
			// The runner-up overtakes (or ties with a lower index): back
			// to the merge scan.
			if j2 >= 0 && (now > t2 || (now == t2 && j2 < ti)) {
				break
			}
			cur.advance()
			// Once-per-window cancellation point: a refill resets the
			// cursor position to the window's start.
			if cur.pos == 0 && r.cancelled() {
				return r.ctx.Err()
			}
			if r.arrivals < len(r.agenda) && r.flipArrivals(now) {
				// The live-tenant set changed mid-run; rank snapshots
				// taken at BeginRun are stale, so start a new run in
				// place. Core clocks are unaffected by arrivals.
				sched.BeginRun(ti, cores, views)
			}
			if s.bits == drainMark {
				// Syscall containment: this tenant waits for its own
				// channel only; other tenants are unaffected
				// (per-application containment, as in the paper). A drain
				// only moves the leader's own clock, so the run survives it.
				ts.offset += ts.ch.Drain(now)
				v.Done = ts.done()
				if ts.depart != 0 {
					r.retire(ti)
				}
				continue
			}
			req := Request{Tenant: ti, Ready: now, Bits: uint64(s.bits), Cost: uint64(s.cost)}
			v.ChannelFree = ts.ch.LifeguardFinish()
			core := sched.PickNext(req, cores, views)
			// What follows is the reference's commit (reference_test.go),
			// hand-inlined so the per-record accounting runs on hoisted
			// state with no call overhead — profiling showed the call and
			// the post-call reloads as the largest cost left in the loop
			// (folding it back measured up to 1.3x slower). Keep it in
			// lockstep with commit; the differential dispatch test pins
			// the two byte-identical.
			if core < 0 || core >= len(cores) {
				return fmt.Errorf("tenant: scheduler %s picked core %d of %d", r.sched.Name(), core, r.pool.Cores)
			}
			if churned && now > cores[core].FreeAt {
				w.idleDecay(core, now-cores[core].FreeAt)
			}
			base := core * w.stride
			row := w.warm[base : base+w.stride]
			charge := migrationCharge(penalty, row[ti])
			var f float64
			if req.Bits < factorCacheBits {
				f = w.factors[req.Bits]
			} else {
				f = w.factor(req.Bits)
			}
			d := 1 - f
			for u := range row[:ti] {
				row[u] *= d
			}
			row[ti] += (1 - row[ti]) * f
			for u := ti + 1; u < len(row); u++ {
				row[u] *= d
			}
			migrated := w.lastCore[ti] >= 0 && w.lastCore[ti] != core
			w.lastCore[ti] = core
			w.lastTen[core] = ti
			if warmBatch {
				// Keep the warmth-sensitive views exact: this serve
				// changed the running tenant's warmth on this core only.
				cores[core].Warmth = row[ti]
				cores[core].LastTenant = ti
			}

			cost := req.Cost + charge
			stall, finish := ts.ch.ProduceAt(now, req.Bits, cost, cores[core].FreeAt)
			ts.offset += stall
			cores[core].FreeAt = finish
			busy[core] += cost
			ts.lags.add(finish - now)

			v.Records++
			v.ServedBits += req.Bits
			v.ServedCost += cost
			v.LastLagCycles = finish - now
			if penalty > 0 {
				if migrated {
					v.Migrations++
				}
				v.ColdServeCycles += charge
			}
			v.Done = ts.done()
			if ts.depart != 0 {
				r.retire(ti)
			}
			if obs != nil {
				obs(ti, core, req, charge, finish)
			}
		}
	}
}

// finish assembles the PoolResult after the merge has drained. Shared
// with the per-record reference, and must not retain arena-owned memory
// or a channel: slices that outlive the replay (per-core busy cycles, the
// warmth snapshot) are copied out, and end returns the channels after it.
func (r *replayer) finish() *PoolResult {
	// Departing tenants whose active window held no steps at all were
	// never touched by the merge; retire them now so every departure has
	// a release time.
	for i := range r.states {
		if ts := &r.states[i]; ts.depart > 0 && !ts.released {
			r.retire(i)
		}
	}

	res := &PoolResult{
		TenantCell: runner.TenantCell{
			Cores:            r.pool.Cores,
			Policy:           r.sched.Name(),
			Weights:          r.pool.Weights,
			DeadlineCycles:   r.pool.DeadlineCycles,
			MigrationPenalty: r.pool.MigrationPenalty,
		},
		CoreBusyCycles: append([]uint64(nil), r.busy...),
		CoreWarmth:     r.warmth.snapshot(),
		Churned:        r.churned,
	}
	views, churned := r.views, r.churned
	for i := range r.states {
		ts := &r.states[i]
		p := ts.prof.complete()
		appFinal := p.Result.AppCycles + ts.arrive + ts.offset
		dedicated := p.DedicatedWall
		records, logBits := p.Result.Records, p.Result.LogBits
		var wall uint64
		if ts.released {
			// Departed mid-replay: the channel was drained and released at
			// retirement, and the functional counters cover the truncated
			// timeline only.
			appFinal, wall, dedicated = ts.appFinal, ts.releaseWall, ts.dedicated
			records, logBits = views[i].Records, views[i].ServedBits
		} else {
			wall = ts.ch.Finish(appFinal)
		}
		st := ts.ch.Stats()

		tr := TenantResult{
			Name:            p.Tenant.Name,
			Benchmark:       p.Tenant.Benchmark,
			Lifeguard:       p.Result.Lifeguard,
			Instructions:    p.Result.Instructions,
			AppCycles:       appFinal,
			WallCycles:      wall,
			BaseCycles:      p.Base.WallCycles,
			LBAWallCycles:   dedicated,
			StallEvents:     st.StallEvents,
			StallCycles:     st.StallCycles,
			DrainEvents:     st.DrainEvents,
			DrainCycles:     st.DrainCycles,
			Records:         records,
			LogBits:         logBits,
			MeanLagCycles:   ts.lags.mean(),
			LagP50Cycles:    ts.lags.quantile(0.50),
			LagP95Cycles:    ts.lags.quantile(0.95),
			MaxLagCycles:    ts.lags.max,
			Migrations:      views[i].Migrations,
			ColdServeCycles: views[i].ColdServeCycles,
			Violations:      len(p.Result.Violations),
		}
		// The slowdown and contention ratios compare the tenant's active
		// span (wall minus arrival; the whole wall clock for a fixed set,
		// where the float math below is bit-for-bit the fixed-set path's).
		// A truncated departure pro-rates the unmonitored baseline by the
		// served app span; the dedicated-core denominator needs no such
		// approximation — retirement replayed the truncated window itself.
		span := wall - ts.arrive
		base := float64(tr.BaseCycles)
		if ts.released && p.Result.AppCycles > 0 && ts.activeApp() < p.Result.AppCycles {
			base *= float64(ts.activeApp()) / float64(p.Result.AppCycles)
		}
		if base > 0 {
			tr.Slowdown = float64(span) / base
		}
		if dedicated > 0 {
			tr.ContentionX = float64(span) / float64(dedicated)
		}
		if churned {
			tr.ArriveAt = ts.arrive
			tr.ActiveCycles = span
			if ts.released {
				tr.DepartAt = ts.releaseWall
			}
		}
		res.Tenants = append(res.Tenants, tr)
	}
	res.aggregate()
	return res
}

// aggregate derives the pool-level figures from the per-tenant rows and
// the per-core busy cycles: migration totals, mean and max slowdown and
// contention, makespan, peak concurrency and utilisation. finish and
// mergeShards both end here, summing in tenant order, so a merged result
// carries the same floats a single replay of the same rows would.
func (res *PoolResult) aggregate() {
	n := len(res.Tenants)
	starts := make([]uint64, n)
	ends := make([]uint64, n)
	for i := range res.Tenants {
		tr := &res.Tenants[i]
		res.Migrations += tr.Migrations
		res.ColdServeCycles += tr.ColdServeCycles
		res.MeanSlowdown += tr.Slowdown
		if tr.Slowdown > res.MaxSlowdown {
			res.MaxSlowdown = tr.Slowdown
		}
		res.MeanContentionX += tr.ContentionX
		if tr.ContentionX > res.MaxContentionX {
			res.MaxContentionX = tr.ContentionX
		}
		if tr.WallCycles > res.MakespanCycles {
			res.MakespanCycles = tr.WallCycles
		}
		// A fixed set leaves ArriveAt zero, which is every tenant's
		// arrival there.
		starts[i] = tr.ArriveAt
		ends[i] = tr.WallCycles
	}
	res.MeanSlowdown /= float64(n)
	res.MeanContentionX /= float64(n)
	res.PeakConcurrency = peakConcurrency(starts, ends)

	var totalBusy uint64
	for _, b := range res.CoreBusyCycles {
		totalBusy += b
	}
	if res.MakespanCycles > 0 {
		res.Utilisation = float64(totalBusy) / (float64(res.Cores) * float64(res.MakespanCycles))
	}
}

// peakConcurrency returns the maximum number of overlapping channel-hold
// windows [start, end]: a tenant holds its channel from arrival until
// release (departing tenants) or its own wall clock (resident tenants).
// A release and an arrival at the same cycle do not overlap — the
// departing tenant's channel is free before the newcomer takes one.
func peakConcurrency(starts, ends []uint64) int {
	type event struct {
		at    uint64
		delta int
	}
	events := make([]event, 0, 2*len(starts))
	for i := range starts {
		events = append(events, event{starts[i], +1}, event{ends[i], -1})
	}
	sort.Slice(events, func(a, b int) bool {
		if events[a].at != events[b].at {
			return events[a].at < events[b].at
		}
		return events[a].delta < events[b].delta
	})
	var cur, peak int
	for _, e := range events {
		cur += e.delta
		if cur > peak {
			peak = cur
		}
	}
	return peak
}
