package tenant

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
)

func TestApplyChurn(t *testing.T) {
	set, err := FromSuite(3, testWorkload(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	// Rate 0 is a strict no-op: the same backing array comes back and no
	// window is laid out.
	same, err := ApplyChurn(set, Churn{})
	if err != nil {
		t.Fatal(err)
	}
	if &same[0] != &set[0] {
		t.Error("rate 0 must return the input unchanged")
	}

	churned, err := ApplyChurn(set, Churn{Rate: 2, Horizon: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for i, tn := range churned {
		wantArrive := uint64(2 * 1000 * i)
		if tn.ArriveAt != wantArrive || tn.DepartAfter != wantArrive+1000 {
			t.Errorf("tenant %d window = [%d, %d], want [%d, %d]",
				i, tn.ArriveAt, tn.DepartAfter, wantArrive, wantArrive+1000)
		}
		if err := tn.validateWindow(); err != nil {
			t.Errorf("ApplyChurn laid out an invalid window: %v", err)
		}
	}
	// The input set must not have been mutated.
	for i, tn := range set {
		if tn.ArriveAt != 0 || tn.DepartAfter != 0 {
			t.Errorf("input tenant %d mutated: %+v", i, tn)
		}
	}

	// The horizon derives from the workload scale when not explicit.
	derived, err := ApplyChurn(set, Churn{Rate: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := uint64(testScale)
	if derived[1].ArriveAt != h || derived[1].DepartAfter != 2*h {
		t.Errorf("scale-derived window = [%d, %d], want [%d, %d]",
			derived[1].ArriveAt, derived[1].DepartAfter, h, 2*h)
	}

	// Invalid rates and underivable horizons are rejected.
	for _, bad := range []float64{-0.5, math.Inf(1), math.NaN()} {
		if _, err := ApplyChurn(set, Churn{Rate: bad}); err == nil {
			t.Errorf("churn rate %g must be rejected", bad)
		}
	}
	noScale := []Tenant{{Benchmark: "gzip"}}
	if _, err := ApplyChurn(noScale, Churn{Rate: 1}); err == nil {
		t.Error("zero workload scale with no explicit horizon must be rejected")
	}
	// A finite but absurd rate would overflow the uint64 window
	// conversion silently; it must be rejected, not wrapped.
	if _, err := ApplyChurn(set, Churn{Rate: 1e16, Horizon: 40_000}); err == nil {
		t.Error("overflowing churn windows must be rejected")
	}
	if _, err := ApplyChurn(set, Churn{Rate: 1, Horizon: 1 << 63}); err == nil {
		t.Error("overflowing horizons must be rejected")
	}
}

func TestChurnWindowValidation(t *testing.T) {
	eng := NewEngine(1, nil)
	ctx := context.Background()
	pool := PoolConfig{Cores: 1}

	// Departure-before-arrival (and at-arrival, the empty window) are
	// rejected before any profiling runs.
	for _, win := range [][2]uint64{{100, 50}, {100, 100}} {
		bad := []Tenant{{Benchmark: "gzip", Workload: testWorkload(), Config: core.DefaultConfig(),
			ArriveAt: win[0], DepartAfter: win[1]}}
		if _, err := eng.RunPool(ctx, bad, pool); err == nil {
			t.Errorf("window [%d, %d] must be rejected", win[0], win[1])
		}
	}
	if misses := eng.profiles.Misses(); misses != 0 {
		t.Errorf("invalid windows still profiled %d tenants", misses)
	}

	// The replay itself guards too (direct callers bypass the engine).
	p := synthProfile("w", []step{{cycle: 10, bits: 8, cost: 2}}, 100)
	p.Tenant.ArriveAt, p.Tenant.DepartAfter = 50, 50
	if _, err := ReplayPool(context.Background(), []*Profile{p}, pool); err == nil {
		t.Error("replay must reject a departure at or before the arrival")
	}
}

// TestChurnOffEquivalence: a churn spec with rate 0 — every tenant
// arriving at 0 and never departing — must replay exactly like the fixed
// set, field for field (the cmd-level goldens pin the same contract byte
// for byte against pre-churn artifacts).
func TestChurnOffEquivalence(t *testing.T) {
	set, err := FromSuite(3, testWorkload(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	churned, err := ApplyChurn(set, Churn{Rate: 0})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(0, nil)
	for _, policy := range Policies() {
		pool := PoolConfig{Cores: 2, Policy: policy}
		fixed, err := eng.RunPool(context.Background(), set, pool)
		if err != nil {
			t.Fatal(err)
		}
		viaChurn, err := eng.RunPool(context.Background(), churned, pool)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fixed, viaChurn) {
			t.Errorf("%s: rate-0 churn replay differs from the fixed-set replay", policy)
		}
		if fixed.Churned {
			t.Errorf("%s: fixed-set replay marked Churned", policy)
		}
		if fixed.PeakConcurrency != len(set) {
			t.Errorf("%s: fixed-set peak concurrency %d, want %d", policy, fixed.PeakConcurrency, len(set))
		}
		for _, tr := range fixed.Tenants {
			if tr.ArriveAt != 0 || tr.DepartAt != 0 || tr.ActiveCycles != 0 {
				t.Errorf("%s/%s: churn-off result carries churn fields: %+v", policy, tr.Name, tr)
			}
		}
	}
}

// TestChurnedLoneTenantContentionExact: a departing tenant alone on one
// core pays nothing for pooling, so its contention factor — active span
// over the dedicated-core replay of the same truncated window — must be
// exactly 1.0. This is the decomposition contract extended to truncation.
func TestChurnedLoneTenantContentionExact(t *testing.T) {
	eng := NewEngine(1, nil)
	for _, arrive := range []uint64{0, 7_000} {
		set := []Tenant{{Benchmark: "gzip", Workload: testWorkload(), Config: core.DefaultConfig(),
			ArriveAt: arrive, DepartAfter: arrive + uint64(testScale)/2}}
		res, err := eng.RunPool(context.Background(), set, PoolConfig{Cores: 1})
		if err != nil {
			t.Fatal(err)
		}
		tr := res.Tenants[0]
		if tr.ContentionX != 1.0 {
			t.Errorf("arrive %d: lone truncated tenant contention %v, want exactly 1.0", arrive, tr.ContentionX)
		}
		if tr.DepartAt == 0 || tr.ActiveCycles != tr.DepartAt-arrive {
			t.Errorf("arrive %d: departure accounting inconsistent: %+v", arrive, tr)
		}
		if tr.Records == 0 {
			t.Errorf("arrive %d: truncated window served no records", arrive)
		}
		if !res.Churned || res.PeakConcurrency != 1 {
			t.Errorf("arrive %d: cell churn accounting wrong: churned=%v peak=%d", arrive, res.Churned, res.PeakConcurrency)
		}
	}
}

// liveProbe wraps least-lag and asserts, on every Pick, that the Absent
// flags match the replay clock: every tenant whose arrival the clock has
// reached (and that is still resident) is visible, everyone else is not.
type liveProbe struct {
	t       *testing.T
	arrives []uint64
}

func (*liveProbe) Name() string { return "live-probe" }

func (p *liveProbe) Pick(req Request, cores []CoreView, tenants []TenantView) int {
	for i := range tenants {
		if tenants[i].Absent && p.arrives[i] <= req.Ready && !tenants[i].Done {
			p.t.Errorf("tenant %d absent at cycle %d despite arriving at %d", i, req.Ready, p.arrives[i])
		}
		if !tenants[i].Absent && p.arrives[i] > req.Ready {
			p.t.Errorf("tenant %d visible at cycle %d before its arrival at %d", i, req.Ready, p.arrives[i])
		}
	}
	return earliestFree(cores)
}

func (*liveProbe) BeginRun(int, []CoreView, []TenantView) {}

// PickNext runs the same visibility checks as Pick, on the views the
// production replay keeps for its run path.
func (p *liveProbe) PickNext(req Request, cores []CoreView, tenants []TenantView) int {
	return p.Pick(req, cores, tenants)
}

func (*liveProbe) WarmthSensitive() bool { return false }

// TestChurnReplayInvariants drives a staggered synthetic population
// through every policy and asserts the churn lifecycle invariants: no
// service before arrival, full drain before channel release, conservation
// of records across truncation, bounded peak concurrency, and
// schedulers seeing only live tenants.
func TestChurnReplayInvariants(t *testing.T) {
	gen := func(rng *rand.Rand) []step {
		return burstTimeline(rng, 4, 12, 3_000, 5, 40, 2, 12)
	}
	profiles := synthSet(7, 4, gen)
	arrives := make([]uint64, len(profiles))
	for i, p := range profiles {
		arrive := uint64(i) * 4_000
		depart := arrive + 9_000
		if i == len(profiles)-1 {
			depart = 0 // the last tenant stays resident
		}
		p.Tenant.ArriveAt, p.Tenant.DepartAfter = arrive, depart
		arrives[i] = arrive
	}

	saved := registry
	defer func() { registry = saved }()
	probe := &liveProbe{t: t, arrives: arrives}
	registry = append(registry,
		registration{"live-probe", func(PoolConfig, int) Scheduler { return probe }})

	for _, policy := range Policies() {
		for _, cores := range []int{1, 3} {
			pool := PoolConfig{Cores: cores, Policy: policy, Weights: []float64{2, 1}, MigrationPenalty: 50}
			maxFinish := make([]uint64, len(profiles))
			served := make([]uint64, len(profiles))
			res, err := replayMode(context.Background(), profiles, pool, replayOpts{obs: func(tenant, core int, req Request, charge, finish uint64) {
				if req.Ready < arrives[tenant] {
					t.Errorf("%s/%dc: tenant %d served a record produced at %d, before its arrival at %d",
						policy, cores, tenant, req.Ready, arrives[tenant])
				}
				if finish > maxFinish[tenant] {
					maxFinish[tenant] = finish
				}
				served[tenant]++
			}})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Churned {
				t.Fatalf("%s/%dc: churned replay not marked", policy, cores)
			}
			if res.PeakConcurrency < 1 || res.PeakConcurrency > len(profiles) {
				t.Errorf("%s/%dc: peak concurrency %d outside [1, %d]", policy, cores, res.PeakConcurrency, len(profiles))
			}
			for i, tr := range res.Tenants {
				p := profiles[i]
				steps := materialise(p.tl)
				limit := churnLimit(steps, p.Tenant.ArriveAt, p.Tenant.DepartAfter)
				var want uint64
				for _, s := range steps[:limit] {
					if s.bits != drainMark {
						want++
					}
				}
				if tr.Records != want || served[i] != want {
					t.Errorf("%s/%dc/%d: served %d records (result %d), truncated timeline holds %d (conservation)",
						policy, cores, i, served[i], tr.Records, want)
				}
				if p.Tenant.DepartAfter > 0 {
					if tr.DepartAt == 0 {
						t.Errorf("%s/%dc/%d: departing tenant never released", policy, cores, i)
					}
					if tr.DepartAt < maxFinish[i] {
						t.Errorf("%s/%dc/%d: channel released at %d before its last record finished at %d (drain)",
							policy, cores, i, tr.DepartAt, maxFinish[i])
					}
					if limit < len(steps) && tr.Records >= p.Result.Records {
						t.Errorf("%s/%dc/%d: truncation did not shed records", policy, cores, i)
					}
				} else if tr.DepartAt != 0 {
					t.Errorf("%s/%dc/%d: resident tenant reports a departure at %d", policy, cores, i, tr.DepartAt)
				}
				if tr.ActiveCycles != tr.WallCycles-tr.ArriveAt {
					t.Errorf("%s/%dc/%d: active span %d != wall %d - arrival %d",
						policy, cores, i, tr.ActiveCycles, tr.WallCycles, tr.ArriveAt)
				}
			}
		}
	}
}

func TestChurnLimit(t *testing.T) {
	steps := []step{{cycle: 10}, {cycle: 20}, {cycle: 20}, {cycle: 35}}
	cases := []struct {
		arrive, depart uint64
		want           int
	}{
		{0, 0, 4},   // never departs: the whole timeline
		{0, 5, 0},   // departs before the first step
		{0, 10, 1},  // boundary: a step at the departure cycle still runs
		{0, 20, 3},  // ties: both cycle-20 steps are inside
		{0, 100, 4}, // departs after the natural end
		{5, 25, 3},  // arrival shift: steps land at 15, 25, 25, 40
	}
	for _, c := range cases {
		if got := churnLimit(steps, c.arrive, c.depart); got != c.want {
			t.Errorf("churnLimit(arrive=%d, depart=%d) = %d, want %d", c.arrive, c.depart, got, c.want)
		}
	}
}

func TestPeakConcurrency(t *testing.T) {
	cases := []struct {
		starts, ends []uint64
		want         int
	}{
		{[]uint64{0, 0, 0}, []uint64{10, 10, 10}, 3},    // fixed set
		{[]uint64{0, 10, 20}, []uint64{10, 20, 30}, 1},  // back-to-back: release frees the slot for the arrival
		{[]uint64{0, 5, 10}, []uint64{11, 12, 13}, 3},   // nested overlap
		{[]uint64{0, 9, 100}, []uint64{10, 20, 110}, 2}, // pairwise overlap only
		{[]uint64{5}, []uint64{5}, 0},                   // degenerate empty window
		{nil, nil, 0},                                   // no tenants
	}
	for i, c := range cases {
		if got := peakConcurrency(c.starts, c.ends); got != c.want {
			t.Errorf("case %d: peak = %d, want %d", i, got, c.want)
		}
	}
}

// TestChurnProfileMemoSharing: churn variants of one tenant must share a
// single profiling run — the window is replay state, not profile state.
func TestChurnProfileMemoSharing(t *testing.T) {
	eng := NewEngine(1, nil)
	ctx := context.Background()
	base := []Tenant{{Benchmark: "gzip", Workload: testWorkload(), Config: core.DefaultConfig()}}
	if _, err := eng.RunPool(ctx, base, PoolConfig{Cores: 1}); err != nil {
		t.Fatal(err)
	}
	churned := base
	churned[0].ArriveAt, churned[0].DepartAfter = 5_000, 40_000
	if _, err := eng.RunPool(ctx, churned, PoolConfig{Cores: 1}); err != nil {
		t.Fatal(err)
	}
	if misses := eng.profiles.Misses(); misses != 1 {
		t.Errorf("churn variants profiled %d times, want 1 (windows are stripped from the cache key)", misses)
	}
	// The cached profile must not have absorbed the churn window.
	p, err := eng.Profile(ctx, base[0])
	if err != nil {
		t.Fatal(err)
	}
	if p.Tenant.ArriveAt != 0 || p.Tenant.DepartAfter != 0 {
		t.Errorf("cached profile absorbed a caller's churn window: %+v", p.Tenant)
	}
}
