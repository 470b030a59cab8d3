package tenant

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Scheduling policies, in registration (evaluation) order.
const (
	// PolicyRoundRobin rotates record assignments across the pool
	// regardless of load: simple, stateless-per-record hardware, but a
	// slow tenant's backlog can queue behind it on every core it visits.
	PolicyRoundRobin = "round-robin"
	// PolicyLeastLag assigns each record to the core that frees up
	// earliest, minimising the record's queueing lag (greedy
	// least-backlog). This is the policy a lag-aware pool arbiter would
	// implement in the log-dispatch hardware.
	PolicyLeastLag = "least-lag"
	// PolicyDeadline is deadline-aware: every tenant carries a lag
	// deadline (PoolConfig.DeadlineCycles), and each record is placed on
	// the *most backlogged* core that still meets it, holding the idle
	// cores in reserve for tenants about to violate. A record no core can
	// serve in time falls back to the earliest-free core (best effort).
	// The effect is to bound each tenant's lag tail (p95) instead of
	// greedily minimising the mean. The lag projection is exact in the
	// backpressure-free case: it accounts for the transport latency, the
	// tenant's own in-channel ordering (TenantView.ChannelFree) and any
	// migration charge, matching logbuf.Channel.ProduceAt term for term.
	PolicyDeadline = "deadline"
	// PolicyWFQ is weighted fair queueing across tenants: each tenant
	// accrues virtual time proportional to its consumed log bytes divided
	// by its weight (PoolConfig.Weights), and the most underserved tenant
	// by that clock is mapped to the earliest-free core while overserved
	// tenants are pushed toward the busiest ones. Heavier weights buy a
	// larger share of the pool.
	PolicyWFQ = "wfq"
	// PolicyPriority models paid monitoring SLAs: strict priority tiers
	// (TenantView.Tier, lower is better; a tenant weighing more than 1
	// joins the premium tier 0, the rest tier 1) with weighted fair
	// queueing inside a tier. Any tenant of a better tier outranks every
	// tenant of a worse tier when cores are handed out.
	PolicyPriority = "priority"
	// PolicyAffinity is warmth-aware least-lag with hysteresis: each
	// record goes to the core with the earliest *charge-inclusive*
	// projected finish (queueing plus the migration charge the core's
	// coldness would incur), and a tenant sticks to its previous core
	// unless another core wins by more than half the migration penalty.
	// Under a non-zero PoolConfig.MigrationPenalty this trades a little
	// queueing lag for shadow-cache warmth; at penalty zero it degrades
	// to least-lag with stickiness.
	PolicyAffinity = "affinity"
)

// DefaultDeadlineCycles is the lag bound the deadline policy assumes when
// PoolConfig.DeadlineCycles is zero. It is a design knob, not a derived
// quantity: a few thousand cycles of lag keeps a lifeguard "close behind"
// its application at the evaluation's scales.
const DefaultDeadlineCycles = 5_000

// Request describes the record currently being scheduled: which tenant
// produced it, when it becomes ready, and what serving it costs.
type Request struct {
	// Tenant indexes the producing tenant (into the views slice).
	Tenant int
	// Ready is the application cycle at which the record is produced.
	Ready uint64
	// Bits is the record's compressed size.
	Bits uint64
	// Cost is the lifeguard processing cost in cycles, excluding any
	// migration charge (the charge depends on which core Pick chooses).
	Cost uint64
}

// TenantView is one tenant's live scheduling state, refreshed by the
// replay before every Pick. The leading fields are the tenant's policy
// inputs (normalised from PoolConfig and the tenant's channel design
// point); the rest is accumulated service.
type TenantView struct {
	// Weight is the tenant's WFQ weight (> 0; 1 is the default share).
	Weight float64
	// Tier is the tenant's priority tier; lower values outrank higher.
	Tier int
	// DeadlineCycles is the tenant's lag deadline for PolicyDeadline.
	DeadlineCycles uint64
	// TransportLatency is the tenant channel's pipeline delay between a
	// record retiring and becoming visible to a lifeguard core. Policies
	// need it to project consumption start times exactly.
	TransportLatency uint64

	// ChannelFree is the lifeguard-side cycle at which the tenant's
	// channel finishes its newest in-flight record (logbuf's lastFinish).
	// Records are consumed in order, so no new record of this tenant can
	// start before ChannelFree on any core — the term the deadline
	// policy's projection was missing while it was approximate. Like
	// CoreView.Warmth it is requester-relative: the replay refreshes it
	// for the tenant being scheduled before its Pick; other tenants'
	// entries hold the value captured at their own last scheduled record.
	ChannelFree uint64

	// Records, ServedBits and ServedCost accumulate the tenant's consumed
	// service: records scheduled, compressed log bytes moved (the WFQ
	// virtual-time numerator) and lifeguard cycles charged (migration
	// charges included).
	Records    uint64
	ServedBits uint64
	ServedCost uint64
	// LastLagCycles is the queueing lag of the tenant's most recently
	// scheduled record (finish minus production cycle).
	LastLagCycles uint64
	// Migrations and ColdServeCycles accumulate the tenant's migration
	// count and charged migration cycles (zero while the migration model
	// is off, i.e. MigrationPenalty == 0).
	Migrations      uint64
	ColdServeCycles uint64
	// Done marks a tenant whose timeline is exhausted; schedulers skip
	// Done tenants when ranking.
	Done bool
	// Absent marks a tenant outside its active window — not yet arrived,
	// or departed and released (Tenant.ArriveAt/DepartAfter). Schedulers
	// see only live tenants: ranking policies skip Absent tenants exactly
	// like Done ones, so a future arrival cannot shift today's ranks.
	// With a fixed tenant set it is always false.
	Absent bool
}

// vtime is the tenant's WFQ virtual clock: consumed log bytes normalised
// by weight. Underserved tenants have the smallest virtual time.
func (v *TenantView) vtime() float64 { return float64(v.ServedBits) / v.Weight }

// CoreView is one pool core's live scheduling state, refreshed by the
// replay before every Pick. Warmth is relative to the requesting tenant,
// so a policy comparing cores sees exactly the migration charge each
// choice would incur.
type CoreView struct {
	// FreeAt is the cycle at which the core finishes its last assigned
	// record (the per-core clock).
	FreeAt uint64
	// Warmth is the requesting tenant's shadow-cache warmth on this core,
	// in [0, 1]: 1 means the tenant's working set is fully resident and a
	// serve costs no migration charge, 0 means stone cold and a serve
	// costs the full PoolConfig.MigrationPenalty.
	Warmth float64
	// LastTenant is the tenant this core served most recently (-1 if the
	// core has not served anything yet).
	LastTenant int
}

// Scheduler assigns records to pool cores. Implementations may keep
// state (rotation counters, last-core pointers, incremental ranks); a
// fresh instance is built per replay, so runs stay independent and
// deterministic. Every method must be deterministic in its arguments plus
// that private state — the replay's parallel == serial byte-identical
// JSON contract depends on it.
//
// The production replay groups consecutive records of one tenant into
// runs: BeginRun is called once when a run starts (and again mid-run if a
// tenant arrival changes the live-tenant set), then PickNext once per
// record. PickNext must return exactly the core Pick would — the batched
// and per-record replays are pinned byte-identical — but it may reuse
// rank state computed in BeginRun, because during a run the scheduler's
// inputs are frozen except for:
//
//   - the running tenant's TenantView (service accumulators, ChannelFree);
//   - CoreView.FreeAt of cores chosen earlier in the run (each updated
//     after the PickNext that chose it, before the next call).
//
// Every other tenant's view — virtual time, tier, Done/Absent — cannot
// change mid-run, which is what makes a rank snapshot sound.
//
// CoreView.Warmth and CoreView.LastTenant are kept exact on the run path
// only for a scheduler whose WarmthSensitive reports true: the replay
// refreshes every core's warmth once at BeginRun and then maintains only
// the picked core's fields after each record. That maintenance is exact:
// during a run only the running tenant is served, so its warmth can
// change only on the cores that served it (idle decay included — it lands
// on the serving core at serve time). A scheduler reporting false must
// not read the warmth fields in BeginRun or PickNext, and skips the
// per-run refresh entirely. Pick, the per-record reference, always sees
// every view refreshed.
type Scheduler interface {
	// Name identifies the policy in results.
	Name() string
	// Pick returns the pool core (index into cores) that will serve req,
	// given every pool core's live view (per-core clock, the requesting
	// tenant's warmth there, last tenant served) and every tenant's live
	// view.
	Pick(req Request, cores []CoreView, tenants []TenantView) int
	// BeginRun marks the start of a run of consecutive records from
	// tenant t. cores and tenants are current as of the call (warmth
	// fields only when WarmthSensitive).
	BeginRun(t int, cores []CoreView, tenants []TenantView)
	// PickNext schedules the next record of the run and must equal what
	// Pick would return; the replay updates cores[result].FreeAt and the
	// running tenant's view before the next call.
	PickNext(req Request, cores []CoreView, tenants []TenantView) int
	// WarmthSensitive reports whether this replay's PickNext reads the
	// warmth fields: constant true for deadline and affinity, constant
	// false for round-robin and least-lag, and penalty-gated for wfq and
	// priority, whose warmth tie-break is live only when the migration
	// model is on.
	WarmthSensitive() bool
}

// registration is one row of the fixed policy table. The table's order
// is the evaluation order: Policies() reports it, which fixes evaluation
// and JSON order.
type registration struct {
	name  string
	build func(pool PoolConfig, n int) Scheduler
}

var registry = []registration{
	{PolicyRoundRobin, func(PoolConfig, int) Scheduler { return &roundRobin{} }},
	{PolicyLeastLag, func(PoolConfig, int) Scheduler { return &leastLag{} }},
	{PolicyDeadline, func(pool PoolConfig, _ int) Scheduler { return deadline{penalty: pool.MigrationPenalty} }},
	{PolicyWFQ, func(pool PoolConfig, _ int) Scheduler { return &wfq{penalty: pool.MigrationPenalty} }},
	{PolicyPriority, func(pool PoolConfig, _ int) Scheduler { return &priority{penalty: pool.MigrationPenalty} }},
	{PolicyAffinity, newAffinity},
}

// Policies lists the scheduling policies in evaluation order.
func Policies() []string {
	names := make([]string, len(registry))
	for i, r := range registry {
		names[i] = r.name
	}
	return names
}

// BaselinePolicies returns the PR-2 baseline pair (round-robin and
// least-lag) that the contention figure sweeps; the sched figure compares
// the full registry.
func BaselinePolicies() []string { return []string{PolicyRoundRobin, PolicyLeastLag} }

// lookupPolicy returns the named policy's registration; the empty
// string selects least-lag, the default every command surface advertises.
func lookupPolicy(policy string) (registration, error) {
	if policy == "" {
		policy = PolicyLeastLag
	}
	for _, r := range registry {
		if r.name == policy {
			return r, nil
		}
	}
	return registration{}, fmt.Errorf("tenant: unknown scheduling policy %q (have %v)", policy, Policies())
}

// NewScheduler returns a fresh scheduler for the named policy (see
// lookupPolicy), configured for a replay of n tenants under pool.
func NewScheduler(policy string, pool PoolConfig, n int) (Scheduler, error) {
	r, err := lookupPolicy(policy)
	if err != nil {
		return nil, err
	}
	return r.build(pool, n), nil
}

// ParseWeights parses a comma-separated WFQ weight list ("2,1,0.5") as
// accepted by the -weights flag. Weights must be positive and finite; an
// empty string means "no explicit weights" (every tenant gets weight 1).
func ParseWeights(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	weights := make([]float64, len(parts))
	for i, p := range parts {
		w, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("tenant: weight %q: %w", p, err)
		}
		if w <= 0 || math.IsInf(w, 0) || math.IsNaN(w) {
			return nil, fmt.Errorf("tenant: weight %q must be positive and finite", p)
		}
		weights[i] = w
	}
	return weights, nil
}

// projectedFinish is the cycle at which core would finish req, including
// the migration charge the core's current coldness implies. It mirrors
// logbuf.Channel.ProduceAt exactly in the backpressure-free case: the
// record becomes visible after the transport latency, cannot start before
// the tenant's previous record finishes (in-order channel consumption),
// nor before the core frees up.
func projectedFinish(req Request, core CoreView, v *TenantView, penalty uint64) uint64 {
	start := req.Ready + v.TransportLatency
	if v.ChannelFree > start {
		start = v.ChannelFree
	}
	if core.FreeAt > start {
		start = core.FreeAt
	}
	return start + req.Cost + migrationCharge(penalty, core.Warmth)
}

type roundRobin struct{ next int }

func (r *roundRobin) Name() string { return PolicyRoundRobin }

func (r *roundRobin) Pick(_ Request, cores []CoreView, _ []TenantView) int {
	c := r.next % len(cores)
	r.next = (r.next + 1) % len(cores)
	return c
}

// leastLag's only state is the batch path's incremental core order
// (batch.go); per-record Pick never touches it.
type leastLag struct{ ord coreOrder }

func (*leastLag) Name() string { return PolicyLeastLag }

func (*leastLag) Pick(_ Request, cores []CoreView, _ []TenantView) int {
	return earliestFree(cores)
}

// earliestFree returns the index of the soonest-free core, ties breaking
// toward the lowest index.
func earliestFree(cores []CoreView) int {
	best := 0
	for i := 1; i < len(cores); i++ {
		if cores[i].FreeAt < cores[best].FreeAt {
			best = i
		}
	}
	return best
}

type deadline struct{ penalty uint64 }

func (deadline) Name() string { return PolicyDeadline }

func (d deadline) Pick(req Request, cores []CoreView, tenants []TenantView) int {
	// Choose the *latest*-free core whose exact projected lag still meets
	// the tenant's deadline, so idle cores stay in reserve for urgent
	// records; when nothing meets it, degrade to least-lag. The
	// projection (projectedFinish) accounts for transport latency,
	// in-channel ordering and the migration charge, so the only slack
	// left is backpressure stalls the policy cannot see.
	v := &tenants[req.Tenant]
	best := -1
	for i, core := range cores {
		if projectedFinish(req, core, v, d.penalty)-req.Ready > v.DeadlineCycles {
			continue
		}
		if best < 0 || core.FreeAt > cores[best].FreeAt {
			best = i
		}
	}
	if best >= 0 {
		return best
	}
	return earliestFree(cores)
}

// wfq's incremental fields are the batch path's structures (batch.go);
// per-record Pick re-ranks from scratch and never touches them. penalty
// mirrors the pool's migration penalty: once migrations are priced, the
// rank-to-core mapping breaks FreeAt ties toward the warmest core
// (coreByRank's warm order) instead of blindly toward the lowest index —
// at penalty zero the mapping (and every artifact) is exactly the
// warmth-blind original.
type wfq struct {
	penalty uint64
	ord     coreOrder
	rank    vtimeTracker
}

func (*wfq) Name() string { return PolicyWFQ }

func (w *wfq) Pick(req Request, cores []CoreView, tenants []TenantView) int {
	rank, active := vtimeRank(req.Tenant, tenants, func(a, b *TenantView, ai, bi int) bool {
		if a.vtime() != b.vtime() {
			return a.vtime() < b.vtime()
		}
		return ai < bi
	})
	return coreByRank(rank, active, cores, w.penalty > 0)
}

// priority's fields are the batch path's incremental structures plus the
// warmth tie-break penalty, exactly as in wfq.
type priority struct {
	penalty uint64
	ord     coreOrder
	rank    vtimeTracker
}

func (*priority) Name() string { return PolicyPriority }

func (p *priority) Pick(req Request, cores []CoreView, tenants []TenantView) int {
	// Strict tiers first, WFQ virtual time inside a tier: every tenant of
	// a better tier outranks every tenant of a worse one, so paid tenants
	// monopolise the early (soonest-free) cores under contention.
	rank, active := vtimeRank(req.Tenant, tenants, func(a, b *TenantView, ai, bi int) bool {
		if a.Tier != b.Tier {
			return a.Tier < b.Tier
		}
		if a.vtime() != b.vtime() {
			return a.vtime() < b.vtime()
		}
		return ai < bi
	})
	return coreByRank(rank, active, cores, p.penalty > 0)
}

// affinity is warmth-aware least-lag with hysteresis (see PolicyAffinity).
// last[t] is the core that served tenant t's previous record, -1 before
// the first — private per-replay state, so determinism holds.
type affinity struct {
	penalty uint64
	last    []int
}

func newAffinity(pool PoolConfig, n int) Scheduler {
	a := &affinity{penalty: pool.MigrationPenalty, last: make([]int, n)}
	for i := range a.last {
		a.last[i] = -1
	}
	return a
}

func (*affinity) Name() string { return PolicyAffinity }

func (a *affinity) Pick(req Request, cores []CoreView, tenants []TenantView) int {
	v := &tenants[req.Tenant]
	best := 0
	bestFinish := projectedFinish(req, cores[0], v, a.penalty)
	for i := 1; i < len(cores); i++ {
		if f := projectedFinish(req, cores[i], v, a.penalty); f < bestFinish {
			best, bestFinish = i, f
		}
	}
	// Hysteresis: stay on the previous core unless the best alternative
	// wins by more than half the penalty. The migration charge already
	// penalises a move inside projectedFinish; the extra margin stops
	// core ping-pong when queue noise is comparable to the charge.
	if prev := a.last[req.Tenant]; prev >= 0 && prev != best {
		if projectedFinish(req, cores[prev], v, a.penalty) <= bestFinish+a.penalty/2 {
			best = prev
		}
	}
	a.last[req.Tenant] = best
	return best
}

// vtimeRank returns the rank of tenant t among the active (not Done, not
// Absent) tenants under the strict order less, plus the active count. The
// tenant being scheduled is always active.
func vtimeRank(t int, tenants []TenantView, less func(a, b *TenantView, ai, bi int) bool) (rank, active int) {
	self := &tenants[t]
	for i := range tenants {
		if i == t {
			active++
			continue
		}
		v := &tenants[i]
		if v.Done || v.Absent {
			continue
		}
		active++
		if less(v, self, i, t) {
			rank++
		}
	}
	return rank, active
}

// coreByRank maps a tenant's service rank (0 = most underserved of the
// active tenants) onto the pool: rank 0 gets the earliest-free core, the
// last rank the latest-free core, with the rest spread linearly between.
// warm selects the warmth-aware tie-break the ranked policies use once
// migrations are priced: cores whose projected finishes tie (equal
// FreeAt) are taken warmest-first, so a rank landing in a tie group no
// longer pays a cold serve it could have avoided for free. With warm
// false the order is the original (FreeAt, index) and nothing changes.
func coreByRank(rank, active int, cores []CoreView, warm bool) int {
	pos := rankPos(rank, active, len(cores))
	if pos == 0 && !warm {
		return earliestFree(cores)
	}
	// Selection scan for the pos-th core in ascending coreViewLess order.
	// Pick runs once per scheduled record, and pools are small, so
	// repeated linear scans beat allocating and sorting an order slice.
	prev := -1
	for k := 0; ; k++ {
		best := -1
		for i := range cores {
			if i == prev || (prev >= 0 && coreViewLess(cores, i, prev, warm)) {
				continue // selected in an earlier round
			}
			if best < 0 || coreViewLess(cores, i, best, warm) {
				best = i
			}
		}
		if k == pos {
			return best
		}
		prev = best
	}
}

// coreViewLess orders cores ascending by FreeAt with ties broken toward
// the warmest (requester-relative CoreView.Warmth) when warm, then the
// lowest index — coreByRank's scan order, and the order coreOrder.atWarm
// reproduces within a tie group on the batched path.
func coreViewLess(cores []CoreView, a, b int, warm bool) bool {
	if cores[a].FreeAt != cores[b].FreeAt {
		return cores[a].FreeAt < cores[b].FreeAt
	}
	if warm && cores[a].Warmth != cores[b].Warmth {
		return cores[a].Warmth > cores[b].Warmth
	}
	return a < b
}
