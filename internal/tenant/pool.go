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
// inputs the scheduler subsystem consumes (weights, tiers, deadlines).
type PoolConfig struct {
	// Cores is the number of lifeguard cores in the pool (>= 1).
	Cores int `json:"cores"`
	// Policy selects the record scheduler (see Policies).
	Policy string `json:"policy"`
	// Weights are per-tenant WFQ weights, cycled when shorter than the
	// tenant set ("2,1" over four tenants gives 2,1,2,1). Empty means
	// every tenant weighs 1; non-positive entries are clamped to 1.
	Weights []float64 `json:"weights,omitempty"`
	// Tiers are per-tenant priority tiers (lower outranks higher;
	// negative values are valid and outrank tier 0), cycled like
	// Weights. Empty derives tiers from the weights: any tenant weighing
	// more than 1 joins the premium tier 0, the rest tier 1 — the "paid
	// SLA" reading of a raised weight.
	Tiers []int `json:"tiers,omitempty"`
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
	// WarmthHalfLifeBytes is the shadow-cache warmth half-life: how many
	// bytes of *other* tenants' log a core must serve to halve a tenant's
	// warmth there. 0 selects DefaultWarmthHalfLifeBytes.
	WarmthHalfLifeBytes uint64 `json:"warmth_half_life_bytes,omitempty"`
	// WarmthIdleHalfLifeCycles is the wall-clock warmth half-life applied
	// while a core sits idle on a *churned* replay (idle vacancies age the
	// resident tenants' shadow working sets; fixed-set replays never decay
	// in wall time). 0 selects DefaultWarmthIdleHalfLifeCycles.
	WarmthIdleHalfLifeCycles uint64 `json:"warmth_idle_half_life_cycles,omitempty"`
	// Shards partitions the pool's cores (and its tenants, balanced by
	// profiled lifeguard load) into that many sub-pools, each replayed
	// independently on its own goroutine and deterministically merged —
	// the static-partitioning regime ReplayPool and Engine.RunPool take
	// when > 1. 0 and 1 both select the single global pool (the batched
	// replay, byte for byte); values above min(Cores, tenants) are clamped
	// down to it. See shard.go for the partitioning and merge contract.
	Shards int `json:"shards,omitempty"`
	// StepWindow is the decoded-step window size (steps per refill) the
	// streaming replay reads each tenant's encoded timeline through; 0
	// selects DefaultStepWindow. Purely an execution knob — results are
	// byte-identical for every window size (the window only bounds how
	// many decoded steps are resident per tenant), so it is not echoed in
	// result cells.
	StepWindow int `json:"step_window,omitempty"`
}

// stepWindow resolves the effective decoded-window size.
func (pool PoolConfig) stepWindow() int {
	if pool.StepWindow > 0 {
		return pool.StepWindow
	}
	return DefaultStepWindow
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
		if len(pool.Tiers) > 0 {
			tier = pool.Tiers[i%len(pool.Tiers)]
		} else if w > 1 {
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

// TenantResult is one tenant's measured behaviour inside a pool cell.
type TenantResult struct {
	Name      string
	Benchmark string
	Lifeguard string

	Instructions  uint64
	AppCycles     uint64 // application cycles including contention stalls
	WallCycles    uint64 // through the lifeguard tail
	BaseCycles    uint64 // unmonitored baseline wall cycles
	LBAWallCycles uint64 // uncontended monitored wall cycles (dedicated core)
	Slowdown      float64
	// ContentionX is the tenant's wall clock normalised to its own
	// uncontended LBA run: 1.0 means pooling cost this tenant nothing
	// beyond the intrinsic monitoring slowdown. This is the quantity
	// admission control bounds — unlike Slowdown it excludes the
	// lifeguard's per-benchmark intrinsic cost, so one SLO value is
	// meaningful across the whole suite.
	ContentionX float64

	StallEvents uint64 // backpressure events (full private channel)
	StallCycles uint64
	DrainEvents uint64 // syscall containment drains
	DrainCycles uint64

	Records uint64
	LogBits uint64

	MeanLagCycles float64 // mean record queueing lag
	LagP50Cycles  uint64  // histogram upper bounds, not exact order statistics
	LagP95Cycles  uint64
	MaxLagCycles  uint64

	// Migrations counts records served on a different core than the
	// tenant's previous record; ColdServeCycles is the total migration
	// charge those cold serves cost. Both are zero while the migration
	// model is off (PoolConfig.MigrationPenalty == 0).
	Migrations      uint64
	ColdServeCycles uint64

	// Active-window accounting, populated only when the cell replayed a
	// churning tenant set (any tenant with a non-zero ArriveAt or
	// DepartAfter), so churn-off results stay byte-identical to the
	// fixed-set path. ArriveAtCycles echoes the tenant's arrival;
	// DepartAtCycles is the wall-clock cycle at which a departing tenant
	// released its channel (0 for tenants that never depart);
	// ActiveCycles is the tenant's active span — wall clock minus arrival
	// — the window its lag/stall metrics cover. For a departed tenant,
	// Records/LogBits count the truncated timeline, ContentionX divides
	// by a dedicated-core replay of the same truncated window (exact),
	// and Slowdown pro-rates the unmonitored baseline by the truncated
	// app span (an approximation, since the baseline cannot be re-run
	// mid-flight).
	ArriveAtCycles uint64
	DepartAtCycles uint64
	ActiveCycles   uint64

	Violations int
}

// PoolResult is one cell of a tenant matrix: the tenant set served by a
// pool of the given size under the given policy. Weights, Tiers and
// DeadlineCycles echo the policy inputs the cell ran with, so a JSON
// artifact is self-describing.
type PoolResult struct {
	Cores               int
	Policy              string
	Weights             []float64
	Tiers               []int
	DeadlineCycles      uint64
	MigrationPenalty    uint64
	WarmthHalfLifeBytes uint64
	Tenants             []TenantResult

	MeanSlowdown    float64
	MaxSlowdown     float64
	MeanContentionX float64
	MaxContentionX  float64
	MakespanCycles  uint64   // last tenant's wall clock
	CoreBusyCycles  []uint64 // lifeguard work per pool core
	Utilisation     float64  // sum(busy) / (cores * makespan)

	// Migrations and ColdServeCycles sum the per-tenant migration
	// accounting (zero while MigrationPenalty == 0). CoreWarmth is the
	// final [core][tenant] warmth matrix — always populated, because
	// warmth is tracked regardless of the penalty; the fuzz tier asserts
	// its conservation invariants on it. It is deliberately kept out of
	// the JSON cell.
	Migrations      uint64
	ColdServeCycles uint64
	CoreWarmth      [][]float64

	// Churned records that the cell replayed a churning tenant set;
	// PeakConcurrency is the largest number of tenants simultaneously
	// holding a channel (arrival through release). It is always computed
	// — a fixed set peaks at the full population — but lands in the JSON
	// cell only when Churned, so churn-off artifacts keep the fixed-set
	// schema.
	Churned         bool
	PeakConcurrency int

	// Shards is the effective sub-pool count of a sharded replay, set
	// only when the replay actually partitioned (>= 2): a 1-shard replay
	// is the global batched replay and its result — this field included —
	// is identical to the unsharded one.
	Shards int
}

// Cell flattens the result into the lba-runner/v1 JSON schema.
func (r *PoolResult) Cell() runner.TenantCell {
	cell := runner.TenantCell{
		Cores:            r.Cores,
		Policy:           r.Policy,
		Weights:          r.Weights,
		Tiers:            r.Tiers,
		DeadlineCycles:   r.DeadlineCycles,
		MigrationPenalty: r.MigrationPenalty,
		MeanSlowdown:     r.MeanSlowdown,
		MaxSlowdown:      r.MaxSlowdown,
		MeanContentionX:  r.MeanContentionX,
		MaxContentionX:   r.MaxContentionX,
		MakespanCycles:   r.MakespanCycles,
		Utilisation:      r.Utilisation,
		Migrations:       r.Migrations,
		ColdServeCycles:  r.ColdServeCycles,
	}
	// The half-life only shapes results when migrations are priced; echo
	// it with the rest of the migration schema so zero-penalty artifacts
	// stay byte-identical to the pre-warmth layout.
	if r.MigrationPenalty > 0 {
		cell.WarmthHalfLifeBytes = r.WarmthHalfLifeBytes
	}
	// Churn accounting follows the same rule: present only when the cell
	// actually replayed a churning set, so churn-off artifacts keep the
	// fixed-set schema byte for byte.
	if r.Churned {
		cell.PeakConcurrency = r.PeakConcurrency
	}
	// And once more for sharding: only a replay that actually partitioned
	// (>= 2 sub-pools) marks its cell, so 1-shard artifacts stay
	// byte-identical to the unsharded schema.
	if r.Shards > 1 {
		cell.Shards = r.Shards
	}
	for _, t := range r.Tenants {
		cell.Tenants = append(cell.Tenants, runner.TenantRow{
			Name:            t.Name,
			Benchmark:       t.Benchmark,
			Lifeguard:       t.Lifeguard,
			Instructions:    t.Instructions,
			AppCycles:       t.AppCycles,
			WallCycles:      t.WallCycles,
			BaseCycles:      t.BaseCycles,
			LBAWallCycles:   t.LBAWallCycles,
			Slowdown:        t.Slowdown,
			ContentionX:     t.ContentionX,
			StallEvents:     t.StallEvents,
			StallCycles:     t.StallCycles,
			DrainEvents:     t.DrainEvents,
			DrainCycles:     t.DrainCycles,
			Records:         t.Records,
			LogBits:         t.LogBits,
			MeanLagCycles:   t.MeanLagCycles,
			LagP50Cycles:    t.LagP50Cycles,
			LagP95Cycles:    t.LagP95Cycles,
			MaxLagCycles:    t.MaxLagCycles,
			Migrations:      t.Migrations,
			ColdServeCycles: t.ColdServeCycles,
			ArriveAt:        t.ArriveAtCycles,
			DepartAt:        t.DepartAtCycles,
			ActiveCycles:    t.ActiveCycles,
			Violations:      t.Violations,
		})
	}
	return cell
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
	app := ts.prof.Result.AppCycles
	if ts.depart > 0 && ts.depart-ts.arrive < app {
		app = ts.depart - ts.arrive
	}
	return app
}

// ReplayPool replays already-built profiles (Engine.Profile) against one
// pool configuration: the batched production path, or — when
// pool.Shards > 1 — the sharded path, whose sub-pools are each replayed
// batched on their own goroutine and merged deterministically (shard.go;
// one shard is the batched replay, byte for byte). Arrival/departure
// windows are read from each profile's Tenant description (Engine.RunPool
// overlays the caller's windows onto the memoized, window-free profiles
// before calling in). A cancelled ctx aborts the replay at the next
// decode-window refill (the check sits off the per-record path, so
// cancellation costs nothing in the steady state) and the call returns
// ctx.Err(); a replay that observes a cancelled context never returns a
// result — the lbad serving daemon's control loop relies on both halves.
func ReplayPool(ctx context.Context, profiles []*Profile, pool PoolConfig) (*PoolResult, error) {
	if pool.Shards > 1 || pool.Shards < 0 {
		return replaySharded(ctx, profiles, pool, true)
	}
	return replayMode(ctx, profiles, pool, nil, false)
}

// ReplayPoolReference is the per-record reference replay of a single,
// unsharded pool: one scheduler Pick per record with a full view refresh
// and re-ranking from scratch, fresh buffers, no arena. It is the
// differential oracle ReplayPool's batched path is pinned deep-equal
// against (the go-test tier and the harness's check_differential), not a
// production path. A pool asking for two or more shards is rejected:
// static partitioning is a different scheduling point, with no
// per-record reference.
func ReplayPoolReference(ctx context.Context, profiles []*Profile, pool PoolConfig) (*PoolResult, error) {
	return replayMode(ctx, profiles, pool, nil, true)
}

// replayArena is one replay's reusable working memory. Replays run per
// matrix cell — thousands per sweep — and their working state (tenant
// states, views, channels, warmth matrix) is shaped only by the tenant
// and core counts, so a sync.Pool of arenas cuts steady-state replay
// allocations to near zero. Reuse is invisible by construction: every
// slice is re-dimensioned and overwritten in setup, channels go through
// logbuf.Channel.Reset, and the warmth model through warmthModel.reset —
// each documented to restore as-new state. The per-record reference
// never uses an arena, so the differential tests pin that reuse invisible.
type replayArena struct {
	states   []tenantState
	views    []TenantView
	cores    []CoreView
	busy     []uint64
	agenda   []int
	channels []*logbuf.Channel
	warmth   warmthModel
	scratch  *logbuf.Channel // retire()'s dedicated-core replays
	ring     windowRing      // decoded-step window buffers, recycled across replays
}

var arenaPool = sync.Pool{New: func() any { return new(replayArena) }}

// replayer is one replay's live state plus the dispatch machinery. The
// hot-path layout and the batched/per-record contract are documented in
// docs/architecture.md ("The replay hot path").
type replayer struct {
	pool    PoolConfig
	sched   Scheduler
	batch   BatchPicker // non-nil only on the batched path when sched opts in
	obs     observer
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
	arena    *replayArena
	ring     *windowRing // decoded-step windows (arena-backed on the batched path)
}

// observer is an optional per-record hook, invoked after each record is
// assigned with the producing tenant, the serving core, the request, the
// migration charge and the lifeguard-side finish cycle. The property and
// cancellation test tiers pass one to replayMode to watch service unfold;
// production replays pass nil and pay one nil comparison per record.
type observer func(tenant, core int, req Request, charge, finish uint64)

// replayMode replays one global pool down the batched path, or down the
// per-record reference path when perRecord is set. Sharding is
// ReplayPool's routing, so a pool asking for two or more shards is
// rejected here rather than silently replayed as one pool.
func replayMode(ctx context.Context, profiles []*Profile, pool PoolConfig, obs observer, perRecord bool) (*PoolResult, error) {
	if pool.Shards > 1 || pool.Shards < 0 {
		return nil, fmt.Errorf("tenant: the single-pool replay takes Shards 0 or 1, got %d (ReplayPool partitions sharded pools)", pool.Shards)
	}
	if pool.Cores < 1 {
		return nil, fmt.Errorf("tenant: pool needs at least one core, got %d", pool.Cores)
	}
	if err := ValidateStepWindow(pool.StepWindow); err != nil {
		return nil, err
	}
	if len(profiles) == 0 {
		return nil, fmt.Errorf("tenant: no tenants")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sched, err := NewScheduler(pool.Policy, pool, len(profiles))
	if err != nil {
		return nil, err
	}
	r := replayer{pool: pool, sched: sched, obs: obs, ctx: ctx, done: ctx.Done()}
	if !perRecord {
		if bp, ok := sched.(BatchPicker); ok {
			r.batch = bp
		}
		r.arena = arenaPool.Get().(*replayArena)
		defer arenaPool.Put(r.arena)
	}
	if err := r.setup(profiles); err != nil {
		return nil, err
	}
	if perRecord {
		err = r.runPerRecord()
	} else {
		err = r.runBatched()
	}
	// A context cancelled during the merge's very last window would
	// otherwise slip through with a complete-looking result; the contract
	// is that a cancelled replay always returns ctx.Err() and never a
	// result (retire()'s dedicated-core replays bail out early on
	// cancellation with partial clocks, so a result assembled after a
	// cancel could be silently wrong).
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		for i := range r.states {
			r.states[i].cur.close(r.ring)
		}
		return nil, err
	}
	return r.finish(), nil
}

// ValidateStepWindow rejects a negative decode-window size (see
// PoolConfig.StepWindow; 0 selects DefaultStepWindow) instead of letting
// stepWindow()'s > 0 test silently coerce it to the default. Every
// boundary a window enters through — the replay entry points,
// Engine.RunPool, the lbad server and the commands' -window flags —
// shares this one check.
func ValidateStepWindow(window int) error {
	if window < 0 {
		return fmt.Errorf("tenant: pool step window must be >= 0 (0 selects the %d-step default), got %d", DefaultStepWindow, window)
	}
	return nil
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

// setup dimensions the replay state for the profiles, drawing working
// memory from the arena when one is attached (batched path) and
// allocating fresh otherwise (per-record reference).
func (r *replayer) setup(profiles []*Profile) error {
	n := len(profiles)
	if a := r.arena; a != nil {
		if cap(a.states) < n {
			a.states = make([]tenantState, n)
		}
		r.states = a.states[:n]
		if cap(a.channels) < n {
			a.channels = append(a.channels[:cap(a.channels)], make([]*logbuf.Channel, n-cap(a.channels))...)
		}
		a.channels = a.channels[:n]
		r.views = a.views
		r.cores = a.cores[:0]
		r.busy = a.busy
		r.warmth = &a.warmth
		r.ring = &a.ring
	} else {
		r.states = make([]tenantState, n)
		r.ring = &windowRing{}
	}
	r.ring.reset(r.pool.stepWindow())
	for i, p := range profiles {
		if err := p.Tenant.validateWindow(); err != nil {
			return err
		}
		arrive, depart := p.Tenant.ArriveAt, p.Tenant.DepartAfter
		if arrive > 0 || depart > 0 {
			r.churned = true
		}
		var ch *logbuf.Channel
		if r.arena != nil && r.arena.channels[i] != nil {
			ch = r.arena.channels[i]
			ch.Reset(p.Tenant.Config.Channel)
		} else {
			ch = logbuf.New(p.Tenant.Config.Channel)
			if r.arena != nil {
				r.arena.channels[i] = ch
			}
		}
		r.states[i] = tenantState{
			prof:   p,
			ch:     ch,
			arrive: arrive,
			depart: depart,
		}
		r.states[i].cur.open(p.tl, r.ring.get(), arrive, depart)
	}
	r.views = r.pool.tenantViewsInto(r.views, n)
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
	if r.warmth != nil {
		r.warmth.reset(r.pool.Cores, n, r.pool.WarmthHalfLifeBytes, r.pool.WarmthIdleHalfLifeCycles)
	} else {
		r.warmth = newWarmthModel(r.pool.Cores, n, r.pool.WarmthHalfLifeBytes, r.pool.WarmthIdleHalfLifeCycles)
	}
	if cap(r.cores) < r.pool.Cores {
		r.cores = make([]CoreView, r.pool.Cores)
	}
	r.cores = r.cores[:r.pool.Cores]
	for c := range r.cores {
		r.cores[c] = CoreView{LastTenant: -1}
	}
	if cap(r.busy) < r.pool.Cores {
		r.busy = make([]uint64, r.pool.Cores)
	}
	r.busy = r.busy[:r.pool.Cores]
	for c := range r.busy {
		r.busy[c] = 0
	}
	if a := r.arena; a != nil {
		a.views, a.cores, a.busy = r.views, r.cores, r.busy
	}

	// Arrival agenda: tenant indices in arrival order. The merge processes
	// steps in non-decreasing adjusted production time (offsets only
	// grow), so a single cursor flips tenants to present as the replay
	// clock passes their arrivals.
	if r.churned {
		if r.arena != nil {
			r.agenda = resetInts(r.arena.agenda, n, 0)
			r.arena.agenda = r.agenda
		} else {
			r.agenda = make([]int, n)
		}
		for i := range r.agenda {
			r.agenda[i] = i
		}
		sort.SliceStable(r.agenda, func(a, b int) bool {
			return r.states[r.agenda[a]].arrive < r.states[r.agenda[b]].arrive
		})
	} else {
		r.agenda = nil
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
// departed tenant compares like against like.
func (r *replayer) retire(ti int) {
	ts := &r.states[ti]
	if ts.released || ts.depart == 0 || !ts.done() {
		return
	}
	ts.appFinal = ts.arrive + ts.activeApp() + ts.offset
	ts.releaseWall = ts.ch.Finish(ts.appFinal)
	// Replay the truncated window on a dedicated channel through a fresh
	// cursor over the same encoded timeline (the cursor's churn truncation
	// is exactly the prefix the merge just exhausted), drawing the scratch
	// window from the ring and recycling both it and the retired tenant's
	// own window — departures free their decoded state for later arrivals.
	var cur stepCursor
	cur.open(ts.prof.tl, r.ring.get(), ts.arrive, ts.depart)
	if a := r.arena; a != nil {
		if a.scratch == nil {
			a.scratch = logbuf.New(ts.ch.Config())
		} else {
			a.scratch.Reset(ts.ch.Config())
		}
		ts.dedicated = dedicatedWallOn(a.scratch, &cur, ts.activeApp(), r.done)
	} else {
		ts.dedicated = dedicatedWallOn(logbuf.New(ts.ch.Config()), &cur, ts.activeApp(), r.done)
	}
	cur.close(r.ring)
	ts.cur.close(r.ring)
	ts.released = true
	r.views[ti].Absent = true
	r.warmth.release(ti)
}

// refresh updates the requester-relative slices of the live views before
// a per-record Pick: the channel's in-order consumption floor and, per
// core, the requesting tenant's warmth there. The batched path calls it
// only for schedulers outside the BatchPicker contract — the per-core
// warmth walk on every record is exactly the overhead batching removes.
func (r *replayer) refresh(ti int) {
	r.views[ti].ChannelFree = r.states[ti].ch.LifeguardFinish()
	for c := range r.cores {
		r.cores[c].Warmth = r.warmth.warmth(c, ti)
		r.cores[c].LastTenant = r.warmth.lastTenant(c)
	}
}

// commit lands a scheduling decision: charge the migration cost of the
// chosen core's coldness, then warm it — the record lands in whatever
// shadow state the core has *before* this serve, aged first by any idle
// vacancy on a churned replay (warmthModel.idleDecay; fixed-set warmth
// stays purely assignment-driven, never clock-driven), so a zero penalty
// leaves timing bit-for-bit unchanged. This is the reference form of the
// per-record accounting: runBatched carries a hand-inlined copy (fused
// warmth pass, hoisted state) that must stay in lockstep with it, and the
// differential dispatch test pins the two byte-identical. Only
// runPerRecord calls it.
func (r *replayer) commit(ti, core int, now uint64, req Request) error {
	if core < 0 || core >= r.pool.Cores {
		return fmt.Errorf("tenant: scheduler %s picked core %d of %d", r.sched.Name(), core, r.pool.Cores)
	}
	ts := &r.states[ti]
	if r.churned && now > r.cores[core].FreeAt {
		r.warmth.idleDecay(core, now-r.cores[core].FreeAt)
	}
	charge := migrationCharge(r.pool.MigrationPenalty, r.warmth.warmth(core, ti))
	migrated := r.warmth.serve(core, ti, req.Bits)
	cost := req.Cost + charge
	stall, finish := ts.ch.ProduceAt(now, req.Bits, cost, r.cores[core].FreeAt)
	ts.offset += stall
	r.cores[core].FreeAt = finish
	r.busy[core] += cost
	ts.lags.add(finish - now)

	v := &r.views[ti]
	v.Records++
	v.ServedBits += req.Bits
	v.ServedCost += cost
	v.LastLagCycles = finish - now
	if r.pool.MigrationPenalty > 0 {
		if migrated {
			v.Migrations++
		}
		v.ColdServeCycles += charge
	}
	v.Done = ts.done()
	if ts.depart != 0 {
		r.retire(ti) // only departing tenants can retire; skip the call otherwise
	}
	if r.obs != nil {
		r.obs(ti, core, req, charge, finish)
	}
	return nil
}

// runPerRecord is the reference merge loop: one full O(tenants) scan and
// one scheduler Pick (with a full view refresh) per record — the code
// shape the replay had before the batched fast path existed.
func (r *replayer) runPerRecord() error {
	for {
		// Merge by adjusted production time; ties break toward the lowest
		// tenant index, and a tenant's own steps stay strictly in order.
		ti := -1
		var tmin uint64
		for i := range r.states {
			ts := &r.states[i]
			if ts.done() {
				continue
			}
			if n := ts.next(); ti < 0 || n < tmin {
				ti, tmin = i, n
			}
		}
		if ti < 0 {
			return nil
		}
		ts := &r.states[ti]
		s := ts.cur.head()
		ts.cur.advance()
		// A refill just reset the cursor to the window's start: the
		// once-per-window cancellation point.
		if ts.cur.pos == 0 && r.cancelled() {
			return r.ctx.Err()
		}
		now := s.cycle + ts.arrive + ts.offset
		if r.arrivals < len(r.agenda) {
			r.flipArrivals(now)
		}
		if s.bits == drainMark {
			// Syscall containment: this tenant waits for its own channel
			// only; other tenants are unaffected (per-application
			// containment, as in the paper).
			ts.offset += ts.ch.Drain(now)
			r.views[ti].Done = ts.done()
			if ts.depart != 0 {
				r.retire(ti)
			}
			continue
		}
		r.refresh(ti)
		req := Request{Tenant: ti, Ready: now, Bits: uint64(s.bits), Cost: uint64(s.cost)}
		if err := r.commit(ti, r.sched.Pick(req, r.cores, r.views), now, req); err != nil {
			return err
		}
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
// Record dispatch inside a run goes through BatchPicker when the
// scheduler opts in (no per-core warmth refresh, incremental ranks) and
// through the ordinary refresh+Pick otherwise; either way every decision
// is, by construction, the one the per-record loop would have made.
func (r *replayer) runBatched() error {
	// Replay-stable state, hoisted so the in-run loop reloads nothing
	// through r after opaque calls.
	cores, busy, views := r.cores, r.busy, r.views
	w, penalty, obs := r.warmth, r.pool.MigrationPenalty, r.obs
	churned := r.churned
	// Warmth-sensitive BatchPickers get refreshed warmth views at run
	// start and picked-core maintenance per record (see WarmthBatchPicker).
	// Sensitivity is per-replay, not per-type: wfq and priority read
	// warmth only when the migration model prices their rank tie-break.
	warmBatch := false
	if r.batch != nil {
		if wb, ok := r.batch.(WarmthBatchPicker); ok {
			warmBatch = wb.WarmthSensitive()
		}
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
		if r.batch != nil {
			if warmBatch {
				r.refresh(ti)
			}
			r.batch.BeginRun(ti, cores, views)
		}
		for !cur.done() {
			s := cur.head()
			now := s.cycle + arrive + ts.offset
			// The runner-up overtakes (or ties with a lower index): back
			// to the merge scan.
			if j2 >= 0 && (now > t2 || (now == t2 && j2 < ti)) {
				break
			}
			cur.advance()
			// Once-per-window cancellation point, as in runPerRecord: a
			// refill resets the cursor position to the window's start.
			if cur.pos == 0 && r.cancelled() {
				return r.ctx.Err()
			}
			if r.arrivals < len(r.agenda) && r.flipArrivals(now) && r.batch != nil {
				// The live-tenant set changed mid-run; rank snapshots
				// taken at BeginRun are stale, so start a new run in
				// place. Core clocks are unaffected by arrivals.
				r.batch.BeginRun(ti, cores, views)
			}
			if s.bits == drainMark {
				// Syscall containment, as in runPerRecord. A drain only
				// moves the leader's own clock, so the run survives it.
				ts.offset += ts.ch.Drain(now)
				v.Done = ts.done()
				if ts.depart != 0 {
					r.retire(ti)
				}
				continue
			}
			req := Request{Tenant: ti, Ready: now, Bits: uint64(s.bits), Cost: uint64(s.cost)}
			var core int
			if r.batch != nil {
				v.ChannelFree = ts.ch.LifeguardFinish()
				core = r.batch.PickNext(req, cores, views)
			} else {
				r.refresh(ti)
				core = r.sched.Pick(req, cores, views)
			}
			// What follows is commit(), hand-inlined so the per-record
			// accounting runs on hoisted state with no call overhead —
			// profiling showed the call and the post-call reloads as the
			// largest cost left in the loop (folding it back measured up
			// to 1.3x slower). Keep it in lockstep with commit; the
			// differential dispatch test pins the two paths byte-identical.
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
			if req.Bits < factorCacheBits && w.factors != nil {
				f = w.factors[req.Bits]
			}
			if f == 0 {
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

// finish assembles the PoolResult after the merge has drained. Shared by
// the batched and per-record paths, and must not retain arena-owned
// memory: slices that outlive the replay (per-core busy cycles, the
// warmth snapshot) are copied out.
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
		Cores:               r.pool.Cores,
		Policy:              r.sched.Name(),
		Weights:             r.pool.Weights,
		Tiers:               r.pool.Tiers,
		DeadlineCycles:      r.pool.DeadlineCycles,
		MigrationPenalty:    r.pool.MigrationPenalty,
		WarmthHalfLifeBytes: r.pool.WarmthHalfLifeBytes,
		CoreBusyCycles:      append([]uint64(nil), r.busy...),
		CoreWarmth:          r.warmth.snapshot(),
		Churned:             r.churned,
	}
	views, churned := r.views, r.churned
	starts := make([]uint64, len(r.states))
	ends := make([]uint64, len(r.states))
	for i := range r.states {
		ts := &r.states[i]
		p := ts.prof
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
		res.Migrations += tr.Migrations
		res.ColdServeCycles += tr.ColdServeCycles
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
			tr.ArriveAtCycles = ts.arrive
			tr.ActiveCycles = span
			if ts.released {
				tr.DepartAtCycles = ts.releaseWall
			}
		}
		starts[i] = ts.arrive
		ends[i] = wall
		res.Tenants = append(res.Tenants, tr)

		res.MeanSlowdown += tr.Slowdown
		if tr.Slowdown > res.MaxSlowdown {
			res.MaxSlowdown = tr.Slowdown
		}
		res.MeanContentionX += tr.ContentionX
		if tr.ContentionX > res.MaxContentionX {
			res.MaxContentionX = tr.ContentionX
		}
		if wall > res.MakespanCycles {
			res.MakespanCycles = wall
		}
	}
	res.MeanSlowdown /= float64(len(r.states))
	res.MeanContentionX /= float64(len(r.states))
	res.PeakConcurrency = peakConcurrency(starts, ends)

	// Return every decoded window to the ring (retired tenants already
	// did) and drop the cursors' sources, so an arena-held state never
	// retains a window or a reference into a memoized profile's segments
	// beyond the replay.
	for i := range r.states {
		r.states[i].cur.close(r.ring)
	}

	var totalBusy uint64
	for _, b := range r.busy {
		totalBusy += b
	}
	if res.MakespanCycles > 0 {
		res.Utilisation = float64(totalBusy) / (float64(r.pool.Cores) * float64(res.MakespanCycles))
	}
	return res
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
