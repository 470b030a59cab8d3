package tenant

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// newWarmthModel returns a model reset for cores x tenants at the default
// half-lives.
func newWarmthModel(cores, tenants int) *warmthModel {
	m := &warmthModel{}
	m.reset(cores, tenants)
	return m
}

func TestMigrationCharge(t *testing.T) {
	cases := []struct {
		penalty uint64
		warmth  float64
		want    uint64
	}{
		{0, 0, 0},      // model off: never charge
		{0, 0.5, 0},    // model off regardless of warmth
		{100, 0, 100},  // stone cold: full penalty
		{100, 1, 0},    // fully warm: free
		{100, 0.5, 50}, // linear in the missing warmth
		{100, 0.75, 25},
		{3, 0.5, 2},   // round half away from zero
		{100, 1.5, 0}, // warmth clamped: never a negative charge
	}
	for _, c := range cases {
		if got := migrationCharge(c.penalty, c.warmth); got != c.want {
			t.Errorf("migrationCharge(%d, %g) = %d, want %d", c.penalty, c.warmth, got, c.want)
		}
	}
	// The branch-on-magnitude rounding equals library rounding of the
	// clamped product on both sides of 2^52, where the fast branch hands
	// over to plain conversion.
	for _, p := range []uint64{1, 3, 320, 1<<52 - 1, 1 << 52, 1 << 53, 1 << 62} {
		for _, w := range []float64{0, 0.25, 1.0 / 3, 0.5, 0.999, 1, 1.5} {
			want := uint64(math.Round(float64(p) * max(0, 1-w)))
			if got := migrationCharge(p, w); got != want {
				t.Errorf("migrationCharge(%d, %g) = %d, math.Round reference %d", p, w, got, want)
			}
		}
	}
	// Monotone in penalty at fixed warmth, and in coldness at fixed penalty.
	for _, w := range []float64{0, 0.25, 0.5, 0.99} {
		prev := uint64(0)
		for _, p := range []uint64{0, 1, 10, 100, 1000} {
			got := migrationCharge(p, w)
			if got < prev {
				t.Errorf("charge not monotone in penalty at warmth %g: %d then %d", w, prev, got)
			}
			prev = got
		}
	}
	for _, p := range []uint64{1, 37, 1000} {
		prev := migrationCharge(p, 1)
		for _, w := range []float64{0.8, 0.6, 0.4, 0.2, 0} {
			got := migrationCharge(p, w)
			if got < prev {
				t.Errorf("charge not monotone in coldness at penalty %d: %d then %d", p, prev, got)
			}
			prev = got
		}
	}
}

// TestPropertyWarmthConservation drives the warmth model with random
// serve sequences and asserts the bounds the fuzz tier also relies on:
// every warmth stays in [0, 1], every per-core warmth total stays below
// 1 (one core holds at most one working set), and the last-core /
// last-tenant pointers agree with the serve history.
func TestPropertyWarmthConservation(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		rng := rand.New(rand.NewSource(seed))
		cores, tenants := 1+rng.Intn(4), 1+rng.Intn(5)
		m := newWarmthModel(cores, tenants)
		m.setHalfLives(512, 0)
		lastCore := make([]int, tenants)
		for i := range lastCore {
			lastCore[i] = -1
		}
		for step := 0; step < 2000; step++ {
			c, ti := rng.Intn(cores), rng.Intn(tenants)
			bits := uint64(1 + rng.Intn(4096))
			migrated := m.serve(c, ti, bits)
			if want := lastCore[ti] >= 0 && lastCore[ti] != c; migrated != want {
				t.Fatalf("seed %d step %d: migrated = %v, want %v", seed, step, migrated, want)
			}
			lastCore[ti] = c
			if m.lastTenant(c) != ti {
				t.Fatalf("seed %d step %d: lastTenant(%d) = %d, want %d", seed, step, c, m.lastTenant(c), ti)
			}
			for cc := 0; cc < cores; cc++ {
				var sum float64
				for tt := 0; tt < tenants; tt++ {
					w := m.warmth(cc, tt)
					if w < 0 || w > 1 {
						t.Fatalf("seed %d step %d: warmth[%d][%d] = %g outside [0, 1]", seed, step, cc, tt, w)
					}
					sum += w
				}
				if sum > 1+1e-9 {
					t.Fatalf("seed %d step %d: core %d warmth total %g > 1", seed, step, cc, sum)
				}
			}
		}
	}
}

// TestWarmthHalfLife pins the decay law exactly: serving H bytes of a
// rival on the same core halves a tenant's warmth, and serving the
// tenant itself moves it halfway to 1.
func TestWarmthHalfLife(t *testing.T) {
	const half = 1024
	m := newWarmthModel(1, 2)
	m.setHalfLives(half, 0)
	// Tenant 0 serves one half-life of bytes: warmth 0 -> 0.5 exactly.
	m.serve(0, 0, half*8)
	if w := m.warmth(0, 0); w != 0.5 {
		t.Fatalf("after one own half-life: warmth = %g, want exactly 0.5", w)
	}
	// A rival serves one half-life: tenant 0 halves to 0.25, rival at 0.5.
	m.serve(0, 1, half*8)
	if w := m.warmth(0, 0); w != 0.25 {
		t.Fatalf("after one rival half-life: warmth = %g, want exactly 0.25", w)
	}
	if w := m.warmth(0, 1); w != 0.5 {
		t.Fatalf("rival warmth = %g, want exactly 0.5", w)
	}
	// Warmth converges toward 1 but never reaches past it.
	for i := 0; i < 200; i++ {
		m.serve(0, 0, half*8)
	}
	if w := m.warmth(0, 0); w <= 0.99 || w > 1 {
		t.Fatalf("warmth after sustained service = %g, want in (0.99, 1]", w)
	}
	// A fresh model runs at the default half-life.
	d := newWarmthModel(1, 1)
	d.serve(0, 0, DefaultWarmthHalfLifeBytes*8)
	if w := d.warmth(0, 0); w != 0.5 {
		t.Fatalf("default half-life: warmth = %g, want 0.5", w)
	}
}

// TestInvariantPenaltyMonotonicity is the deterministic penalty-
// monotonicity invariant on a stall-free workload: with round-robin's
// fixed rotation and no backpressure or drain stalls (so timing cannot
// feed back into the merge order), every tenant's wall clock and charged
// cold cycles are non-decreasing in the migration penalty.
func TestInvariantPenaltyMonotonicity(t *testing.T) {
	profiles := synthSet(7, 3, func(r *rand.Rand) []step {
		// Small, spaced records: default 64 KiB channels never fill, and
		// there are no drain marks, so offsets stay zero at any penalty.
		return burstTimeline(r, 10, 30, 5000, 30, 60, 5, 20)
	})
	var prev *PoolResult
	penalties := []uint64{0, 10, 100, 1000, 5000}
	for _, penalty := range penalties {
		pool := PoolConfig{Cores: 2, Policy: PolicyRoundRobin, MigrationPenalty: penalty}
		res, err := ReplayPool(context.Background(), profiles, pool)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range res.Tenants {
			if tr.StallCycles != 0 || tr.DrainCycles != 0 {
				t.Fatalf("penalty %d: workload must be stall-free for the invariant to be provable (tenant %s stalled)",
					penalty, tr.Name)
			}
		}
		if penalty == 0 {
			if res.Migrations != 0 || res.ColdServeCycles != 0 {
				t.Errorf("penalty 0: migration accounting must be off, got %d migrations / %d cold cycles",
					res.Migrations, res.ColdServeCycles)
			}
		} else if res.ColdServeCycles == 0 {
			t.Errorf("penalty %d: round-robin on a shared pool must charge some cold serves", penalty)
		}
		if prev != nil {
			for i := range res.Tenants {
				if res.Tenants[i].WallCycles < prev.Tenants[i].WallCycles {
					t.Errorf("tenant %d: wall %d at penalty %d beats %d at a lower penalty",
						i, res.Tenants[i].WallCycles, penalty, prev.Tenants[i].WallCycles)
				}
				if res.Tenants[i].ColdServeCycles < prev.Tenants[i].ColdServeCycles {
					t.Errorf("tenant %d: cold cycles %d at penalty %d under %d at a lower penalty",
						i, res.Tenants[i].ColdServeCycles, penalty, prev.Tenants[i].ColdServeCycles)
				}
			}
		}
		prev = res
	}
}

// TestInvariantZeroPenaltyCellSchema: at penalty 0 the migration model is
// off, and the JSON cell must be byte-free of every migration field —
// that is what keeps zero-penalty artifacts identical to the pre-warmth
// schema (the cmd-level golden test pins the full artifact).
func TestInvariantZeroPenaltyCellSchema(t *testing.T) {
	profiles := synthSet(11, 2, func(r *rand.Rand) []step {
		return burstTimeline(r, 5, 20, 2000, 5, 20, 5, 20)
	})
	for _, policy := range Policies() {
		res, err := ReplayPool(context.Background(), profiles, PoolConfig{Cores: 2, Policy: policy})
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		blob, err := json.Marshal(res.Cell())
		if err != nil {
			t.Fatal(err)
		}
		for _, field := range []string{"migration_penalty", "migrations", "cold_serve_cycles"} {
			if strings.Contains(string(blob), `"`+field+`"`) {
				t.Errorf("%s: zero-penalty cell JSON leaks %q:\n%.300s", policy, field, blob)
			}
		}
	}
	// And with the model on, the fields appear.
	res, err := ReplayPool(context.Background(), profiles, PoolConfig{Cores: 2, Policy: PolicyAffinity, MigrationPenalty: 50})
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := json.Marshal(res.Cell())
	for _, field := range []string{"migration_penalty", "cold_serve_cycles"} {
		if !strings.Contains(string(blob), `"`+field+`"`) {
			t.Errorf("penalty-50 cell JSON missing %q:\n%.300s", field, blob)
		}
	}
}

// TestWarmthIdleDecay pins the vacancy-decay arithmetic: an idle span
// ages every tenant on the core by 2^(-idle/idleHalfLife) — one
// half-life exactly halves the whole row, zero idle is a no-op, relative
// order within the row is preserved, and other cores are untouched.
func TestWarmthIdleDecay(t *testing.T) {
	m := newWarmthModel(2, 3)
	m.serve(0, 0, 4096)
	m.serve(0, 1, 2048)
	m.serve(1, 2, 4096)
	before := m.snapshot()

	m.idleDecay(0, 0)
	if !reflect.DeepEqual(m.snapshot(), before) {
		t.Fatal("zero idle span changed warmth")
	}

	m.idleDecay(0, DefaultWarmthIdleHalfLifeCycles)
	after := m.snapshot()
	for tn, w := range after[0] {
		if want := before[0][tn] / 2; w != want {
			t.Errorf("tenant %d on core 0: warmth %g after one idle half-life, want exactly %g", tn, w, want)
		}
	}
	if !reflect.DeepEqual(after[1], before[1]) {
		t.Errorf("idle decay on core 0 touched core 1: %v -> %v", before[1], after[1])
	}
}

// TestWarmthIdleDecayReplayGating pins the bugfix's replay-level gate:
// fixed-set replays never invoke idle decay — the idle half-life cannot
// change a single byte of them — while churned replays do, so the same
// half-life must move their warmth/migration accounting (pre-fix, warmth
// froze across vacancies and the half-life was unobservable everywhere).
func TestWarmthIdleDecayReplayGating(t *testing.T) {
	// 4 cores over 4 staggered tenants leave idle gaps on served cores;
	// at 2 cores affinity packs work densely enough that no gap surfaces.
	pool := PoolConfig{Cores: 4, Policy: PolicyAffinity, MigrationPenalty: 320}
	slow := replayOpts{idleHalfLifeCycles: 1 << 40} // effectively no idle decay

	fixed := dispatchSuiteProfiles(t, 4, Churn{})
	a, err := ReplayPool(context.Background(), fixed, pool)
	if err != nil {
		t.Fatal(err)
	}
	b, err := replayMode(context.Background(), fixed, pool, slow)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("idle half-life changed a fixed-set replay; decay must gate on churn")
	}

	churned := dispatchSuiteProfiles(t, 4, Churn{Rate: 0.5})
	c, err := ReplayPool(context.Background(), churned, pool)
	if err != nil {
		t.Fatal(err)
	}
	d, err := replayMode(context.Background(), churned, pool, slow)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(c, d) {
		t.Error("churned replay ignored the idle half-life; vacancies no longer decay warmth")
	}
}
