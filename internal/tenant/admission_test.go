package tenant

import (
	"context"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/core"
)

func TestPlanAdmissionRejectsBadInputs(t *testing.T) {
	eng := NewEngine(1, nil)
	ctx := context.Background()
	pool := PoolConfig{Cores: 1}
	if _, err := eng.PlanAdmissionQuery(ctx, testWorkload(), core.DefaultConfig(), AdmissionQuery{Pool: pool, SLOs: []float64{2}, MaxTenants: 0}); err == nil {
		t.Error("maxTenants 0 must be rejected")
	}
	if _, err := eng.PlanAdmissionQuery(ctx, testWorkload(), core.DefaultConfig(), AdmissionQuery{Pool: pool, MaxTenants: 3}); err == nil {
		t.Error("empty SLO list must be rejected")
	}
	if _, err := eng.PlanAdmissionQuery(ctx, testWorkload(), core.DefaultConfig(), AdmissionQuery{Pool: pool, SLOs: []float64{0.9}, MaxTenants: 3}); err == nil {
		t.Error("sub-1 slowdown SLO must be rejected")
	}
	for _, q := range []AdmissionQuery{
		{Pool: pool, SLOs: []float64{2}, MaxTenants: 2, Seeds: -1},
		{Pool: pool, SLOs: []float64{2}, MaxTenants: 2, Churn: Churn{Rate: -1}},
	} {
		if _, err := eng.PlanAdmissionQuery(ctx, testWorkload(), core.DefaultConfig(), q); err == nil {
			t.Errorf("query %+v must be rejected", q)
		}
	}
}

// TestAdmissionSeedStride pins the replication-stride bugfix: Seeds > 1
// used to collapse every replica onto the base seed and report a
// zero-width confidence band as if the seeds agreed. Replica k now runs
// at Seed + k*SeedStride: after a two-seed query, profiling the second
// replica's population at that seed is a cache hit.
func TestAdmissionSeedStride(t *testing.T) {
	eng := NewEngine(1, nil)
	ctx := context.Background()
	q := AdmissionQuery{Pool: PoolConfig{Cores: 1}, SLOs: []float64{2}, MaxTenants: 1, Seeds: 2}
	if _, err := eng.PlanAdmissionQuery(ctx, testWorkload(), core.DefaultConfig(), q); err != nil {
		t.Fatal(err)
	}
	if got := eng.ProfileCacheLen(); got != 2 {
		t.Fatalf("two one-tenant replicas profiled %d tenants, want 2", got)
	}
	replica := testWorkload()
	replica.Seed += SeedStride
	pop, err := FromSuite(1, replica, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Profile(ctx, pop[0]); err != nil {
		t.Fatal(err)
	}
	if got := eng.ProfileCacheLen(); got != 2 {
		t.Errorf("the second replica did not run at Seed + SeedStride: profiling it there added a cache entry (%d retained)", got)
	}
}

func TestPlanAdmission(t *testing.T) {
	eng := NewEngine(0, nil)
	pool := PoolConfig{Cores: 2, Policy: PolicyLeastLag}
	slos := []float64{1.05, 2.0, 1e9}
	const maxN = 5
	points, err := eng.PlanAdmissionQuery(context.Background(), testWorkload(), core.DefaultConfig(), AdmissionQuery{Pool: pool, SLOs: slos, MaxTenants: maxN})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(slos) {
		t.Fatalf("got %d points for %d SLOs", len(points), len(slos))
	}
	for i, p := range points {
		if p.SLO != slos[i] {
			t.Errorf("point %d answers SLO %g, want %g", i, p.SLO, slos[i])
		}
		if p.Cores != pool.Cores || p.Policy != PolicyLeastLag {
			t.Errorf("point %d misidentifies its pool: %+v", i, p)
		}
		if p.Searched != maxN {
			t.Errorf("point %d searched %d, want %d", i, p.Searched, maxN)
		}
		// A single tenant on any pool has contention factor exactly 1.0
		// (the decomposition contract), so every SLO admits at least one.
		if p.MaxTenants < 1 || p.MaxTenants > maxN {
			t.Errorf("point %d admits %d tenants, outside [1, %d]", i, p.MaxTenants, maxN)
		}
		if p.MaxTenants > 0 && p.ContentionAtMax > p.SLO {
			t.Errorf("point %d admits %d tenants at %fX contention, violating its own SLO %g",
				i, p.MaxTenants, p.ContentionAtMax, p.SLO)
		}
		// A looser SLO can never admit fewer tenants.
		if i > 0 && p.MaxTenants < points[i-1].MaxTenants {
			t.Errorf("SLO %g admits %d tenants but tighter SLO %g admitted %d",
				p.SLO, p.MaxTenants, points[i-1].SLO, points[i-1].MaxTenants)
		}
	}
	// An absurdly loose SLO never saturates within the scan.
	if last := points[len(points)-1]; last.MaxTenants != maxN {
		t.Errorf("1e9X SLO admitted %d tenants, want the full scan %d", last.MaxTenants, maxN)
	}

	// The search must reuse profiles: tenant k is shared by every
	// population containing it, so exactly maxN unique profiles run (the
	// loosest SLO's first probe evaluates the full population).
	if got := eng.profiles.Misses(); got != maxN {
		t.Errorf("admission search profiled %d times, want %d (one per unique tenant)", got, maxN)
	}
	// Single-seed searches report a degenerate band.
	for _, p := range points {
		if p.Seeds != 1 || p.TenantsLo != p.MaxTenants || p.TenantsHi != p.MaxTenants {
			t.Errorf("single-seed point band inconsistent: %+v", p)
		}
		if p.Probes < 1 {
			t.Errorf("point spent %d probes", p.Probes)
		}
	}
}

func TestAdmissionPointRow(t *testing.T) {
	p := AdmissionPoint{SLO: 1.5, Cores: 4, Policy: PolicyWFQ, MaxTenants: 6, ContentionAtMax: 1.4, Searched: 8,
		Seeds: 1, TenantsLo: 6, TenantsHi: 6, Probes: 4}
	row := p.Row()
	if row.SLOContentionX != 1.5 || row.Cores != 4 || row.Policy != PolicyWFQ ||
		row.MaxTenants != 6 || row.ContentionAtMax != 1.4 || row.SearchedTenants != 8 {
		t.Errorf("Row() lost fields: %+v", row)
	}
	// A single-seed fixed-set point must keep the linear-scan-era JSON
	// schema: no band, seed, churn or fallback fields.
	if row.Seeds != 0 || row.TenantsLo != 0 || row.TenantsHi != 0 || row.ChurnRate != 0 || row.FallbackScan {
		t.Errorf("single-seed Row() leaked band fields: %+v", row)
	}
	p.Seeds, p.TenantsLo, p.TenantsHi = 3, 4, 6
	p.FallbackScan, p.ChurnRate = true, 2
	row = p.Row()
	if row.Seeds != 3 || row.TenantsLo != 4 || row.TenantsHi != 6 || !row.FallbackScan || row.ChurnRate != 2 {
		t.Errorf("banded Row() lost fields: %+v", row)
	}
}

// envOf wraps a value table as a probe-counting envelope.
func envOf(vals []float64) *envelope {
	return &envelope{
		vals: map[int]float64{},
		eval: func(n int) (float64, error) { return vals[n-1], nil },
	}
}

// linearMax is the reference answer: the largest n anywhere in [1, maxN]
// meeting the SLO, by exhaustive scan.
func linearMax(vals []float64, maxN int, slo float64) searchAnswer {
	var ans searchAnswer
	for n := 1; n <= maxN; n++ {
		if vals[n-1] <= slo {
			ans = searchAnswer{maxTenants: n, contention: vals[n-1]}
		}
	}
	return ans
}

// TestPropertyBisectionMatchesLinearOnMonotone: on randomly generated
// monotone envelopes the bisection must return exactly the linear scan's
// answer for every SLO, never trigger the fallback, and spend
// logarithmically few probes — the reason it replaced the scan.
func TestPropertyBisectionMatchesLinearOnMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		maxN := 1 + rng.Intn(1000)
		vals := make([]float64, maxN)
		v := 1.0
		for i := range vals {
			v += rng.Float64() * 0.3
			vals[i] = v
		}
		slos := make([]float64, 1+rng.Intn(4))
		for i := range slos {
			slos[i] = 1 + rng.Float64()*float64(maxN)*0.3
		}
		env := envOf(vals)
		answers, fallback, err := admissionSearch(env, maxN, slos)
		if err != nil {
			t.Fatal(err)
		}
		if fallback {
			t.Fatalf("trial %d: fallback on a monotone envelope", trial)
		}
		for i, slo := range slos {
			if want := linearMax(vals, maxN, slo); answers[i] != want {
				t.Fatalf("trial %d: SLO %g: bisection %+v != linear %+v (maxN %d)",
					trial, slo, answers[i], want, maxN)
			}
		}
		// ~log2(maxN)+1 probes per SLO, shared across SLOs via the memo.
		bound := len(slos) * (bits.Len(uint(maxN)) + 1)
		if len(env.vals) > bound {
			t.Fatalf("trial %d: %d probes over %d SLOs on maxN %d (bound %d) — not a bisection",
				trial, len(env.vals), len(slos), maxN, bound)
		}
	}
}

// TestPropertyAdversarialEnvelopeFallsBack: a crafted non-monotone
// envelope whose inversion the bisection's own probes expose must trigger
// the verified fallback — reported on the point — and still return the
// linear scan's answer.
func TestPropertyAdversarialEnvelopeFallsBack(t *testing.T) {
	// Bisection at SLO 1.5 probes n=8 (1.6, fail), n=4 (1.9, fail), n=2
	// (1.2, pass), n=3 (1.4, pass) and would answer 3 — but the sampled
	// pair f(4)=1.9 > f(8)=1.6 proves the envelope non-monotone, so the
	// fallback scan must run and find the true linear answer 6.
	vals := []float64{1.2, 1.2, 1.4, 1.9, 1.3, 1.45, 1.7, 1.6}
	env := envOf(vals)
	answers, fallback, err := admissionSearch(env, len(vals), []float64{1.5})
	if err != nil {
		t.Fatal(err)
	}
	if !fallback {
		t.Fatal("adversarial envelope did not trigger the fallback scan")
	}
	if want := linearMax(vals, len(vals), 1.5); answers[0] != want {
		t.Errorf("fallback answer %+v, want the linear scan's %+v", answers[0], want)
	}
	if len(env.vals) != len(vals) {
		t.Errorf("fallback evaluated %d points, want the full scan %d", len(env.vals), len(vals))
	}

	// End to end: the fallback must be reported on the emitted point.
	pt := AdmissionPoint{FallbackScan: true}
	if !pt.Row().FallbackScan {
		t.Error("fallback flag lost in the JSON row")
	}
}

// TestPropertyBisectionMatchesLinearScanAllPolicies is the differential
// contract on the real suite: for every registered policy, the
// bisection-based planner must report exactly the answers an exhaustive
// linear scan over the same populations computes. Where the measured
// envelope is monotone the bisection alone guarantees it; where it is
// not, the point must carry the fallback flag (and the fallback *is* the
// scan).
func TestPropertyBisectionMatchesLinearScanAllPolicies(t *testing.T) {
	eng := NewEngine(0, nil)
	ctx := context.Background()
	slos := []float64{1.05, 1.5, 3.0, 1e9}
	const maxN = 5
	for _, policy := range Policies() {
		pool := PoolConfig{Cores: 2, Policy: policy}
		// Reference: the exhaustive scan (all profiles shared with the
		// planner through the engine cache).
		worst := make([]float64, maxN)
		for n := 1; n <= maxN; n++ {
			set, err := FromSuite(n, testWorkload(), core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.RunPool(ctx, set, pool)
			if err != nil {
				t.Fatal(err)
			}
			worst[n-1] = res.MaxContentionX
		}
		monotone := true
		for n := 1; n < maxN; n++ {
			if worst[n] < worst[n-1] {
				monotone = false
			}
		}

		points, err := eng.PlanAdmissionQuery(ctx, testWorkload(), core.DefaultConfig(), AdmissionQuery{Pool: pool, SLOs: slos, MaxTenants: maxN})
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range points {
			want := linearMax(worst, maxN, slos[i])
			if p.MaxTenants != want.maxTenants || p.ContentionAtMax != want.contention {
				t.Errorf("%s: SLO %g: bisection admits %d at %g, linear scan %d at %g",
					policy, slos[i], p.MaxTenants, p.ContentionAtMax, want.maxTenants, want.contention)
			}
			if monotone && p.FallbackScan {
				t.Errorf("%s: fallback triggered on a monotone measured envelope", policy)
			}
		}
	}
}

// TestPlanAdmissionSeeds: repeated-seed replication reports a band whose
// headline answer is the conservative minimum.
func TestPlanAdmissionSeeds(t *testing.T) {
	eng := NewEngine(0, nil)
	points, err := eng.PlanAdmissionQuery(context.Background(), testWorkload(), core.DefaultConfig(), AdmissionQuery{
		Pool:       PoolConfig{Cores: 2},
		SLOs:       []float64{2.0},
		MaxTenants: 3,
		Seeds:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := points[0]
	if p.Seeds != 3 {
		t.Errorf("point reports %d seeds, want 3", p.Seeds)
	}
	if p.TenantsLo > p.TenantsHi {
		t.Errorf("band inverted: %d-%d", p.TenantsLo, p.TenantsHi)
	}
	if p.MaxTenants != p.TenantsLo {
		t.Errorf("headline answer %d is not the band minimum %d", p.MaxTenants, p.TenantsLo)
	}
	row := p.Row()
	if row.Seeds != 3 || row.TenantsLo != p.TenantsLo || row.TenantsHi != p.TenantsHi {
		t.Errorf("band lost in the JSON row: %+v", row)
	}
}

// TestPlanAdmissionChurn: spreading arrivals out can only help — at a
// churn rate where the suite's windows no longer overlap, the pool must
// admit at least as many tenants as it does at steady state, and the
// points must echo the rate they planned for.
func TestPlanAdmissionChurn(t *testing.T) {
	eng := NewEngine(0, nil)
	ctx := context.Background()
	ask := func(rate float64) AdmissionPoint {
		points, err := eng.PlanAdmissionQuery(ctx, testWorkload(), core.DefaultConfig(), AdmissionQuery{
			Pool:       PoolConfig{Cores: 2},
			SLOs:       []float64{1.5},
			MaxTenants: 3,
			Churn:      Churn{Rate: rate},
		})
		if err != nil {
			t.Fatal(err)
		}
		return points[0]
	}
	fixed := ask(0)
	churned := ask(16)
	if churned.ChurnRate != 16 || fixed.ChurnRate != 0 {
		t.Errorf("points do not echo their churn rates: %+v, %+v", fixed, churned)
	}
	if churned.MaxTenants < fixed.MaxTenants {
		t.Errorf("disjoint windows admit %d tenants, fewer than the %d of steady state",
			churned.MaxTenants, fixed.MaxTenants)
	}
	if churned.MaxTenants != 3 {
		t.Errorf("fully-disjoint windows admit %d of 3 searched tenants", churned.MaxTenants)
	}
	// Peak concurrency rides along from the planner's own probes: a fixed
	// set peaks at the full population, a churned one within [1, admitted].
	if fixed.MaxTenants > 0 && fixed.PeakAtMax != fixed.MaxTenants {
		t.Errorf("fixed-set peak %d != admitted %d", fixed.PeakAtMax, fixed.MaxTenants)
	}
	if churned.PeakAtMax < 1 || churned.PeakAtMax > churned.MaxTenants {
		t.Errorf("churned peak %d outside [1, %d]", churned.PeakAtMax, churned.MaxTenants)
	}
}
