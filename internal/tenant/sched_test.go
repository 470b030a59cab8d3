package tenant

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/core"
)

// coresAt builds core views with the given free times (cold, no history),
// the shape most Pick unit tests need.
func coresAt(freeAt ...uint64) []CoreView {
	cores := make([]CoreView, len(freeAt))
	for i, f := range freeAt {
		cores[i] = CoreView{FreeAt: f, LastTenant: -1}
	}
	return cores
}

func TestRegistry(t *testing.T) {
	want := []string{PolicyRoundRobin, PolicyLeastLag, PolicyDeadline, PolicyWFQ, PolicyPriority, PolicyAffinity}
	got := Policies()
	if len(got) != len(want) {
		t.Fatalf("Policies() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("policy %d = %q, want %q (registration order is part of the contract)", i, got[i], want[i])
		}
	}
	if err := (PoolConfig{Cores: 1, Policy: "fifo?"}).Validate(); err == nil {
		t.Error("unknown policy must be rejected")
	}
	if err := (PoolConfig{Cores: 1}).Validate(); err != nil {
		t.Errorf("empty policy is the default and must validate: %v", err)
	}
	if _, err := NewScheduler("fifo?", PoolConfig{}, 1); err == nil {
		t.Error("NewScheduler must reject unknown policies")
	}
	if def, err := NewScheduler("", PoolConfig{}, 1); err != nil || def.Name() != PolicyLeastLag {
		t.Errorf("empty policy must default to least-lag, got %v, %v", def, err)
	}
	base := BaselinePolicies()
	if len(base) != 2 || base[0] != PolicyRoundRobin || base[1] != PolicyLeastLag {
		t.Errorf("BaselinePolicies() = %v", base)
	}
}

func TestParseWeights(t *testing.T) {
	got, err := ParseWeights(" 2, 1,0.5 ")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 1, 0.5}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("weight %d = %g, want %g", i, got[i], want[i])
		}
	}
	if got, err := ParseWeights(""); err != nil || got != nil {
		t.Errorf("empty weight list must parse to nil, got %v, %v", got, err)
	}
	for _, bad := range []string{"1,zero", "0", "-1", "1,,2", "+Inf", "NaN"} {
		if _, err := ParseWeights(bad); err == nil {
			t.Errorf("weights %q must be rejected", bad)
		}
	}
}

func TestTenantViews(t *testing.T) {
	pool := PoolConfig{Cores: 2, Weights: []float64{4, 1}, DeadlineCycles: 123}
	views := pool.tenantViews(4)
	for i, want := range []float64{4, 1, 4, 1} {
		if views[i].Weight != want {
			t.Errorf("weight %d = %g, want %g (weights cycle)", i, views[i].Weight, want)
		}
	}
	// Tiers derive from weights when unset: weight > 1 joins tier 0.
	for i, want := range []int{0, 1, 0, 1} {
		if views[i].Tier != want {
			t.Errorf("tier %d = %d, want %d", i, views[i].Tier, want)
		}
	}
	for i := range views {
		if views[i].DeadlineCycles != 123 {
			t.Errorf("deadline %d = %d, want 123", i, views[i].DeadlineCycles)
		}
	}

	def := PoolConfig{Cores: 1}.tenantViews(2)
	for i := range def {
		if def[i].Weight != 1 || def[i].Tier != 1 || def[i].DeadlineCycles != DefaultDeadlineCycles {
			t.Errorf("default view %d = %+v", i, def[i])
		}
	}

	clamped := PoolConfig{Cores: 1, Weights: []float64{-3}}.tenantViews(3)
	if clamped[0].Weight != 1 || clamped[0].Tier != 1 {
		t.Errorf("non-positive weight must clamp to 1 in tier 1, got %+v", clamped[0])
	}
}

func mustSched(t *testing.T, policy string, pool PoolConfig, n int) Scheduler {
	t.Helper()
	s, err := NewScheduler(policy, pool, n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRoundRobinPick(t *testing.T) {
	rr := mustSched(t, PolicyRoundRobin, PoolConfig{}, 1)
	cores := coresAt(100, 0, 50)
	views := make([]TenantView, 1)
	want := []int{0, 1, 2, 0}
	for i, w := range want {
		if got := rr.Pick(Request{}, cores, views); got != w {
			t.Errorf("round-robin pick %d = %d, want %d", i, got, w)
		}
	}
}

func TestLeastLagPick(t *testing.T) {
	ll := mustSched(t, PolicyLeastLag, PoolConfig{}, 1)
	views := make([]TenantView, 1)
	if c := ll.Pick(Request{}, coresAt(100, 0, 50), views); c != 1 {
		t.Errorf("least-lag picked core %d, want the idle core 1", c)
	}
	if c := ll.Pick(Request{}, coresAt(7, 7, 7), views); c != 0 {
		t.Errorf("least-lag tie must break low, got %d", c)
	}
}

func TestDeadlinePick(t *testing.T) {
	pool := PoolConfig{Cores: 2}
	views := pool.tenantViews(1)
	views[0].DeadlineCycles = 200
	d := mustSched(t, PolicyDeadline, pool, 1)

	// Both cores meet the deadline (lags 10 and 110): keep the idle core
	// in reserve and take the busier one.
	req := Request{Tenant: 0, Ready: 0, Cost: 10}
	if c := d.Pick(req, coresAt(0, 100), views); c != 1 {
		t.Errorf("deadline picked core %d, want the latest feasible core 1", c)
	}
	// Only the idle core meets a 50-cycle deadline.
	views[0].DeadlineCycles = 50
	if c := d.Pick(req, coresAt(0, 100), views); c != 0 {
		t.Errorf("deadline picked core %d, want the only feasible core 0", c)
	}
	// No core can meet a 5-cycle deadline: degrade to least-lag.
	views[0].DeadlineCycles = 5
	if c := d.Pick(req, coresAt(80, 60), views); c != 1 {
		t.Errorf("deadline picked core %d, want the earliest-free fallback 1", c)
	}
}

// TestDeadlinePickExactProjection pins the channel-aware projection: the
// transport latency and the tenant's own in-channel consumption floor
// (ChannelFree) now count against the deadline, so a core the old
// clock-only approximation would have accepted is correctly rejected.
func TestDeadlinePickExactProjection(t *testing.T) {
	pool := PoolConfig{Cores: 2}
	views := pool.tenantViews(1)
	d := mustSched(t, PolicyDeadline, pool, 1)
	req := Request{Tenant: 0, Ready: 1000, Cost: 50}

	// Transport latency: core 1 (free at ready+40) projects lag 90 under
	// the old approximation but 50+40=90 -> with latency 30 the record is
	// only visible at ready+30, so the true lag is still 90; tighten the
	// deadline so the latency is what breaks feasibility on the idle core.
	views[0].DeadlineCycles = 70
	views[0].TransportLatency = 30
	// Idle core: true lag = 30 + 50 = 80 > 70; the old projection said 50
	// <= 70 and would have accepted. Nothing is feasible -> least-lag.
	if c := d.Pick(req, coresAt(0, 1040), views); c != 0 {
		t.Errorf("deadline picked core %d, want the earliest-free fallback 0 (latency makes both infeasible)", c)
	}
	views[0].DeadlineCycles = 80
	// Now the idle core is exactly feasible (80 <= 80) and the busy one is
	// not (1040-1000+50=90 > 80): the projection must separate them.
	if c := d.Pick(req, coresAt(0, 1040), views); c != 0 {
		t.Errorf("deadline picked core %d, want the only feasible core 0", c)
	}

	// In-channel ordering: the tenant's previous record finishes at
	// ready+100, so no core can start this one before then. The old
	// approximation saw two feasible cores; the exact one sees none.
	views[0].TransportLatency = 0
	views[0].DeadlineCycles = 120
	views[0].ChannelFree = 1100
	if c := d.Pick(req, coresAt(0, 1010), views); c != 0 {
		t.Errorf("deadline picked core %d, want the earliest-free fallback 0 (ChannelFree makes both infeasible)", c)
	}
	// Relax the deadline past channel-free + cost: both become feasible
	// again and the latest-free core is held.
	views[0].DeadlineCycles = 150
	if c := d.Pick(req, coresAt(0, 1010), views); c != 1 {
		t.Errorf("deadline picked core %d, want the latest feasible core 1", c)
	}
}

// TestAffinityPick covers the warmth-aware policy's three behaviours:
// charge-aware projection, stickiness to the previous core under
// hysteresis, and migration when another core wins decisively.
func TestAffinityPick(t *testing.T) {
	pool := PoolConfig{Cores: 2, MigrationPenalty: 100}
	views := pool.tenantViews(1)
	a := mustSched(t, PolicyAffinity, pool, 1)
	req := Request{Tenant: 0, Ready: 0, Cost: 10}

	// No history: the cold idle core projects 10+100=110, the warm busy
	// core projects 40+10+0=50. Warmth must beat idleness.
	cores := coresAt(40, 0)
	cores[0].Warmth = 1
	if c := a.Pick(req, cores, views); c != 0 {
		t.Errorf("affinity picked core %d, want the warm core 0 despite its backlog", c)
	}

	// Stickiness: the tenant is now pinned to core 0. A rival core that
	// wins by less than penalty/2 must not trigger a migration...
	cores = coresAt(200, 60)
	cores[0].Warmth = 1 // projections: stay = 210, move = 170 — wins by 40 < 50
	if c := a.Pick(req, cores, views); c != 0 {
		t.Errorf("affinity picked core %d, want to stay on the warm core 0 under hysteresis", c)
	}
	// ...but a decisive win (more than penalty/2 cheaper) must.
	cores = coresAt(300, 0)
	cores[0].Warmth = 1 // stay = 310, move = 110: 110+50 < 310
	if c := a.Pick(req, cores, views); c != 1 {
		t.Errorf("affinity picked core %d, want to migrate to core 1", c)
	}

	// At penalty 0 it degrades to least-lag with stickiness: ties and
	// small wins keep the current core, real wins move.
	zero := mustSched(t, PolicyAffinity, PoolConfig{Cores: 2}, 1)
	if c := zero.Pick(req, coresAt(0, 50), views); c != 0 {
		t.Errorf("zero-penalty affinity picked core %d, want least-lag's core 0", c)
	}
	if c := zero.Pick(req, coresAt(60, 50), views); c != 1 {
		t.Errorf("zero-penalty affinity picked core %d, want the earlier core 1 (no charge to save)", c)
	}
}

func TestWFQPick(t *testing.T) {
	w := mustSched(t, PolicyWFQ, PoolConfig{}, 2)
	views := []TenantView{
		{Weight: 1, ServedBits: 4000}, // vtime 4000: overserved
		{Weight: 1, ServedBits: 100},  // vtime 100: underserved
	}
	cores := coresAt(500, 90)
	if c := w.Pick(Request{Tenant: 1}, cores, views); c != 1 {
		t.Errorf("wfq gave the underserved tenant core %d, want the earliest-free core 1", c)
	}
	if c := w.Pick(Request{Tenant: 0}, cores, views); c != 0 {
		t.Errorf("wfq gave the overserved tenant core %d, want the latest-free core 0", c)
	}
	// Weights rescale the virtual clocks: 4000 bits at weight 8 is less
	// virtual time than 1000 bits at weight 1.
	views[0].Weight = 8
	views[1].ServedBits = 1000
	if c := w.Pick(Request{Tenant: 0}, cores, views); c != 1 {
		t.Errorf("weighted wfq gave the heavy tenant core %d, want the earliest-free core 1", c)
	}
	// Done tenants drop out of the ranking: alone, the requester gets the
	// earliest-free core regardless of its clock.
	views[1].Done = true
	views[0].Weight = 1
	if c := w.Pick(Request{Tenant: 0}, cores, views); c != 1 {
		t.Errorf("wfq with a lone active tenant picked core %d, want 1", c)
	}
}

func TestPriorityPick(t *testing.T) {
	p := mustSched(t, PolicyPriority, PoolConfig{}, 2)
	views := []TenantView{
		{Weight: 1, Tier: 1, ServedBits: 0},    // worse tier, no service yet
		{Weight: 1, Tier: 0, ServedBits: 9000}, // premium tier, heavily served
	}
	cores := coresAt(500, 90)
	// Strict tiers: the premium tenant outranks the tier-1 tenant even
	// with far more consumed service.
	if c := p.Pick(Request{Tenant: 1}, cores, views); c != 1 {
		t.Errorf("priority gave the premium tenant core %d, want the earliest-free core 1", c)
	}
	if c := p.Pick(Request{Tenant: 0}, cores, views); c != 0 {
		t.Errorf("priority gave the tier-1 tenant core %d, want the latest-free core 0", c)
	}
	// Inside one tier it degenerates to WFQ.
	views[0].Tier = 0
	if c := p.Pick(Request{Tenant: 0}, cores, views); c != 1 {
		t.Errorf("priority within a tier gave the underserved tenant core %d, want 1", c)
	}
}

// TestRankWarmTieBreak pins the rank-mapping bugfix: once migrations are
// priced, wfq and priority break equal-FreeAt ties toward the requester's
// warmest core instead of blindly toward the lowest index; at penalty
// zero the mapping (and every penalty-0 artifact) stays the warmth-blind
// original, and warmth never overrides a strictly earlier FreeAt.
func TestRankWarmTieBreak(t *testing.T) {
	views := []TenantView{{Weight: 1}}
	for _, policy := range []string{PolicyWFQ, PolicyPriority} {
		tied := coresAt(40, 40, 40)
		tied[1].Warmth = 0.3
		tied[2].Warmth = 0.8

		cold := mustSched(t, policy, PoolConfig{}, 1)
		if c := cold.Pick(Request{Tenant: 0}, tied, views); c != 0 {
			t.Errorf("%s at penalty 0 picked core %d, want the lowest-index core 0", policy, c)
		}
		warm := mustSched(t, policy, PoolConfig{MigrationPenalty: 320}, 1)
		if c := warm.Pick(Request{Tenant: 0}, tied, views); c != 2 {
			t.Errorf("%s at penalty 320 picked core %d, want the warmest tied core 2", policy, c)
		}

		// Warmth only breaks ties: a strictly earlier-free cold core wins.
		early := coresAt(10, 40, 40)
		early[2].Warmth = 0.8
		if c := warm.Pick(Request{Tenant: 0}, early, views); c != 0 {
			t.Errorf("%s let warmth override an earlier FreeAt: picked core %d, want 0", policy, c)
		}
	}
}

// schedTestPool is the policy-input-rich pool the invariant tests sweep.
func schedTestPool(policy string, cores int) PoolConfig {
	return PoolConfig{
		Cores:          cores,
		Policy:         policy,
		Weights:        []float64{2, 1},
		DeadlineCycles: 1_500,
	}
}

// TestReplayInvariantsAllPolicies runs every registered policy over a
// contended pool and checks the replay invariants the scheduler contract
// promises: conservation of records and lifeguard work across policies,
// monotone clocks, utilisation within (0, 1], and ordered lag quantiles.
func TestReplayInvariantsAllPolicies(t *testing.T) {
	tenants, err := FromSuite(5, testWorkload(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(0, nil)
	ctx := context.Background()

	var wantRecords []uint64
	var wantBusy uint64
	for _, policy := range Policies() {
		res, err := eng.RunPool(ctx, tenants, schedTestPool(policy, 2))
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if res.Policy != policy {
			t.Errorf("result policy %q, want %q", res.Policy, policy)
		}
		if len(res.CoreBusyCycles) != 2 {
			t.Errorf("%s: busy vector has %d entries, want 2", policy, len(res.CoreBusyCycles))
		}
		if res.Utilisation <= 0 || res.Utilisation > 1 {
			t.Errorf("%s: utilisation %f out of (0, 1]", policy, res.Utilisation)
		}
		var busy uint64
		for _, b := range res.CoreBusyCycles {
			busy += b
		}
		var maxWall uint64
		for i, tr := range res.Tenants {
			if tr.WallCycles < tr.AppCycles {
				t.Errorf("%s/%s: wall %d < app %d", policy, tr.Name, tr.WallCycles, tr.AppCycles)
			}
			if tr.Slowdown < 1 {
				t.Errorf("%s/%s: slowdown %f < 1", policy, tr.Name, tr.Slowdown)
			}
			if tr.ContentionX < 1 {
				t.Errorf("%s/%s: contention factor %f < 1 (pooling cannot beat a dedicated core)",
					policy, tr.Name, tr.ContentionX)
			}
			if tr.ContentionX > res.MaxContentionX {
				t.Errorf("%s/%s: contention %f exceeds cell max %f", policy, tr.Name, tr.ContentionX, res.MaxContentionX)
			}
			if tr.LagP50Cycles > tr.LagP95Cycles || tr.LagP95Cycles > tr.MaxLagCycles {
				t.Errorf("%s/%s: lag quantiles out of order: p50=%d p95=%d max=%d",
					policy, tr.Name, tr.LagP50Cycles, tr.LagP95Cycles, tr.MaxLagCycles)
			}
			if tr.WallCycles > maxWall {
				maxWall = tr.WallCycles
			}
			if wantRecords != nil && tr.Records != wantRecords[i] {
				t.Errorf("%s/%s: served %d records, other policies served %d (conservation)",
					policy, tr.Name, tr.Records, wantRecords[i])
			}
		}
		if res.MakespanCycles != maxWall {
			t.Errorf("%s: makespan %d != max wall %d", policy, res.MakespanCycles, maxWall)
		}
		if wantRecords == nil {
			wantRecords = make([]uint64, len(res.Tenants))
			for i, tr := range res.Tenants {
				wantRecords[i] = tr.Records
			}
			wantBusy = busy
		} else if busy != wantBusy {
			t.Errorf("%s: total lifeguard work %d differs from other policies' %d (conservation)", policy, busy, wantBusy)
		}
	}
}

// TestSchedMatrixDeterminism is the tentpole's determinism contract over
// the full registry: an 8-worker matrix of every policy (with weights and
// deadlines set) must serialise byte-identically to the serial reference.
func TestSchedMatrixDeterminism(t *testing.T) {
	tenants, err := FromSuite(4, testWorkload(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var pools []PoolConfig
	for _, policy := range Policies() {
		pools = append(pools, schedTestPool(policy, 2), schedTestPool(policy, 4))
	}
	run := func(workers int) []byte {
		eng := NewEngine(workers, nil)
		results, err := eng.RunMatrix(context.Background(), tenants, pools)
		if err != nil {
			t.Fatal(err)
		}
		cells := make([]any, 0, len(results))
		for _, r := range results {
			cells = append(cells, r.Cell())
		}
		blob, err := json.MarshalIndent(cells, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	serial := run(1)
	parallel := run(8)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("parallel sched matrix differs from serial reference:\nserial:   %.400s\nparallel: %.400s",
			serial, parallel)
	}
}

// TestWFQWeightsShiftLag: three clones of the same tenant contend for two
// cores; the tenant with an outsized weight must see no worse lag than its
// identically-shaped peers.
func TestWFQWeightsShiftLag(t *testing.T) {
	clones := cloneTenants(3)
	eng := NewEngine(0, nil)
	res, err := eng.RunPool(context.Background(), clones,
		PoolConfig{Cores: 2, Policy: PolicyWFQ, Weights: []float64{8, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	heavy := res.Tenants[0]
	for _, other := range res.Tenants[1:] {
		if heavy.MeanLagCycles > other.MeanLagCycles {
			t.Errorf("weight-8 tenant lags %f cycles on average, more than weight-1 peer %s at %f",
				heavy.MeanLagCycles, other.Name, other.MeanLagCycles)
		}
	}
}

// TestPriorityTierShiftsLag: the lone premium-tier clone (the one
// weighing more than 1) must see no worse lag than its best-effort peers.
func TestPriorityTierShiftsLag(t *testing.T) {
	clones := cloneTenants(3)
	eng := NewEngine(0, nil)
	res, err := eng.RunPool(context.Background(), clones,
		PoolConfig{Cores: 2, Policy: PolicyPriority, Weights: []float64{2, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	premium := res.Tenants[0]
	for _, other := range res.Tenants[1:] {
		if premium.MeanLagCycles > other.MeanLagCycles {
			t.Errorf("tier-0 tenant lags %f cycles on average, more than tier-1 peer %s at %f",
				premium.MeanLagCycles, other.Name, other.MeanLagCycles)
		}
	}
}

// TestEmptyTimelineTenantInvisible: a tenant that produces no records
// must be marked done from the first step, so it never sits in the
// wfq/priority rankings as an eternally-underserved peer shifting every
// real tenant's core assignment.
func TestEmptyTimelineTenantInvisible(t *testing.T) {
	real := make([]*Profile, 2)
	for i := range real {
		var steps []step
		for c := uint64(0); c < 200; c++ {
			steps = append(steps, step{cycle: c * 50, bits: 64, cost: 20})
		}
		real[i] = &Profile{
			Tenant:        Tenant{Name: "real", Benchmark: "synthetic", Config: core.DefaultConfig()},
			tl:            encodedTimeline(steps),
			Result:        &core.Result{AppCycles: 10_000, Records: 200, LogBits: 200 * 64},
			Base:          &core.Result{WallCycles: 10_000},
			DedicatedWall: 10_000,
		}
	}
	empty := &Profile{
		Tenant: Tenant{Name: "idle", Benchmark: "synthetic", Config: core.DefaultConfig()},
		Result: &core.Result{AppCycles: 1},
		Base:   &core.Result{WallCycles: 1},
	}
	for _, policy := range []string{PolicyWFQ, PolicyPriority} {
		pool := PoolConfig{Cores: 2, Policy: policy}
		without, err := ReplayPool(context.Background(), real, pool)
		if err != nil {
			t.Fatal(err)
		}
		with, err := ReplayPool(context.Background(), append(append([]*Profile{}, real...), empty), pool)
		if err != nil {
			t.Fatal(err)
		}
		for i := range real {
			a, b := without.Tenants[i], with.Tenants[i]
			if a.WallCycles != b.WallCycles || a.MeanLagCycles != b.MeanLagCycles {
				t.Errorf("%s: an idle tenant changed tenant %d's schedule: wall %d vs %d, lag %f vs %f",
					policy, i, a.WallCycles, b.WallCycles, a.MeanLagCycles, b.MeanLagCycles)
			}
		}
	}
}

// cloneTenants returns n identically-shaped gzip tenants (distinct names,
// same workload), so lag comparisons between them isolate the scheduler.
func cloneTenants(n int) []Tenant {
	clones := make([]Tenant, n)
	for i := range clones {
		clones[i] = Tenant{
			Name:      "gzip#" + string(rune('a'+i)),
			Benchmark: "gzip",
			Workload:  testWorkload(),
			Config:    core.DefaultConfig(),
		}
	}
	return clones
}
