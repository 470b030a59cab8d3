package tenant

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

const testScale = 60_000

func testWorkload() workloads.Config { return workloads.Config{Scale: testScale} }

// TestSingleTenantMatchesDirectLBA is the decomposition contract: one
// tenant on a one-core pool must reproduce core.RunLBA cycle for cycle —
// profiling plus channel replay is exact, not an approximation. This
// holds for multithreaded workloads too because scheduling quanta are
// instruction-based, so transport stalls cannot perturb the app side.
func TestSingleTenantMatchesDirectLBA(t *testing.T) {
	for _, bench := range []string{"gzip", "mcf", "water"} {
		for _, policy := range Policies() {
			t.Run(bench+"/"+policy, func(t *testing.T) {
				wcfg := testWorkload()
				ccfg := core.DefaultConfig()
				spec, err := workloads.ByName(bench)
				if err != nil {
					t.Fatal(err)
				}
				direct, err := core.RunLBA(spec.Build(wcfg), DefaultLifeguard(bench), ccfg)
				if err != nil {
					t.Fatal(err)
				}
				eng := NewEngine(1, nil)
				pr, err := eng.RunPool(context.Background(),
					[]Tenant{{Benchmark: bench, Workload: wcfg, Config: ccfg}},
					PoolConfig{Cores: 1, Policy: policy})
				if err != nil {
					t.Fatal(err)
				}
				tr := pr.Tenants[0]
				if tr.AppCycles != direct.AppCycles {
					t.Errorf("app cycles: replay %d, direct %d", tr.AppCycles, direct.AppCycles)
				}
				if tr.WallCycles != direct.WallCycles {
					t.Errorf("wall cycles: replay %d, direct %d", tr.WallCycles, direct.WallCycles)
				}
				if tr.StallCycles != direct.BufferStallCycles {
					t.Errorf("stall cycles: replay %d, direct %d", tr.StallCycles, direct.BufferStallCycles)
				}
				if tr.DrainCycles != direct.DrainStallCycles {
					t.Errorf("drain cycles: replay %d, direct %d", tr.DrainCycles, direct.DrainStallCycles)
				}
				if tr.Records != direct.Records || tr.LogBits != direct.LogBits {
					t.Errorf("log volume: replay %d/%d, direct %d/%d",
						tr.Records, tr.LogBits, direct.Records, direct.LogBits)
				}
			})
		}
	}
}

// poolMatrix is the cell set the determinism tests sweep.
func poolMatrix() []PoolConfig {
	var pools []PoolConfig
	for _, policy := range Policies() {
		for _, cores := range []int{1, 2, 4} {
			pools = append(pools, PoolConfig{Cores: cores, Policy: policy})
		}
	}
	return pools
}

// TestParallelMatchesSerialMatrix is the tentpole's determinism contract
// extended to tenant matrices: a matrix produced by an 8-worker engine
// must serialise byte-identically to the serial reference run.
func TestParallelMatchesSerialMatrix(t *testing.T) {
	tenants, err := FromSuite(5, testWorkload(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) []byte {
		eng := NewEngine(workers, nil)
		results, err := eng.RunMatrix(context.Background(), tenants, poolMatrix())
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
		t.Errorf("parallel matrix differs from serial reference:\nserial:   %.400s\nparallel: %.400s",
			serial, parallel)
	}
}

// TestProfilesMemoizedAcrossCells: a matrix over many pool cells must
// profile each unique tenant exactly once.
func TestProfilesMemoizedAcrossCells(t *testing.T) {
	tenants, err := FromSuite(3, testWorkload(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(4, nil)
	if _, err := eng.RunMatrix(context.Background(), tenants, poolMatrix()); err != nil {
		t.Fatal(err)
	}
	if got := eng.profiles.Misses(); got != uint64(len(tenants)) {
		t.Errorf("profiled %d times, want one per tenant (%d)", got, len(tenants))
	}
	wantHits := uint64(len(tenants) * (len(poolMatrix()) - 1))
	if got := eng.profiles.Hits(); got != wantHits {
		t.Errorf("profile cache hits = %d, want %d", got, wantHits)
	}
}

// TestMoreCoresNeverHurtLeastLag: under the lag-aware policy, growing
// the pool must monotonically relieve aggregate slowdown (the contention
// figure's headline claim).
func TestMoreCoresNeverHurtLeastLag(t *testing.T) {
	tenants, err := FromSuite(6, testWorkload(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(0, nil)
	prev := -1.0
	for _, cores := range []int{1, 2, 4, 8} {
		res, err := eng.RunPool(context.Background(), tenants, PoolConfig{Cores: cores, Policy: PolicyLeastLag})
		if err != nil {
			t.Fatal(err)
		}
		if res.MeanSlowdown <= 0 {
			t.Fatalf("%d cores: non-positive mean slowdown %f", cores, res.MeanSlowdown)
		}
		if prev > 0 && res.MeanSlowdown > prev+1e-9 {
			t.Errorf("%d cores: mean slowdown %f worse than smaller pool %f", cores, res.MeanSlowdown, prev)
		}
		prev = res.MeanSlowdown
		if res.Utilisation <= 0 || res.Utilisation > 1 {
			t.Errorf("%d cores: utilisation %f out of (0, 1]", cores, res.Utilisation)
		}
		if len(res.CoreBusyCycles) != cores {
			t.Errorf("%d cores: busy vector has %d entries", cores, len(res.CoreBusyCycles))
		}
	}
}

// TestContentionCosts: a shared single core must be no faster than
// dedicated cores, and genuinely slower once several tenants pile on.
func TestContentionCosts(t *testing.T) {
	tenants, err := FromSuite(4, testWorkload(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(0, nil)
	ctx := context.Background()

	shared, err := eng.RunPool(ctx, tenants, PoolConfig{Cores: 1, Policy: PolicyLeastLag})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := eng.RunPool(ctx, tenants, PoolConfig{Cores: len(tenants), Policy: PolicyLeastLag})
	if err != nil {
		t.Fatal(err)
	}
	if shared.MeanSlowdown <= wide.MeanSlowdown {
		t.Errorf("4 tenants on 1 core (%.2fX) should be slower than on %d cores (%.2fX)",
			shared.MeanSlowdown, len(tenants), wide.MeanSlowdown)
	}
	// With one core per tenant and greedy assignment, each tenant must be
	// at least as fast as on the shared core, and lag must shrink.
	for i := range wide.Tenants {
		if wide.Tenants[i].WallCycles > shared.Tenants[i].WallCycles {
			t.Errorf("tenant %s: wider pool slower (%d > %d cycles)",
				wide.Tenants[i].Name, wide.Tenants[i].WallCycles, shared.Tenants[i].WallCycles)
		}
	}
}

// Per-policy Pick semantics, the registry, ParseWeights and the replay
// invariants of the three new policies live in sched_test.go.

func TestFromSuite(t *testing.T) {
	if _, err := FromSuite(0, testWorkload(), core.DefaultConfig()); err == nil {
		t.Error("zero tenants must be rejected")
	}
	n := len(workloads.All()) + 2
	tenants, err := FromSuite(n, testWorkload(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tenants) != n {
		t.Fatalf("got %d tenants", len(tenants))
	}
	seen := map[string]bool{}
	for _, tn := range tenants {
		if seen[tn.Name] {
			t.Errorf("duplicate tenant name %q", tn.Name)
		}
		seen[tn.Name] = true
	}
	// The wrapped draws must be distinct instances, not clones.
	if tenants[0].Workload.Seed == tenants[len(workloads.All())].Workload.Seed {
		t.Error("second draw of a benchmark should reseed")
	}
	// Multithreaded benchmarks get the paper's lifeguard.
	for _, tn := range tenants {
		spec, err := workloads.ByName(tn.Benchmark)
		if err != nil {
			t.Fatal(err)
		}
		want := "AddrCheck"
		if spec.MultiThreaded {
			want = "LockSet"
		}
		if tn.Lifeguard != want {
			t.Errorf("%s assigned %s, want %s", tn.Benchmark, tn.Lifeguard, want)
		}
	}
}

func TestInvalidPoolRejected(t *testing.T) {
	eng := NewEngine(1, nil)
	tenants := []Tenant{{Benchmark: "gzip", Workload: testWorkload(), Config: core.DefaultConfig()}}
	if _, err := eng.RunPool(context.Background(), tenants, PoolConfig{Cores: 0}); err == nil {
		t.Error("zero-core pool must be rejected")
	}
	if _, err := eng.RunPool(context.Background(), tenants, PoolConfig{Cores: 2, Policy: "bogus"}); err == nil {
		t.Error("unknown policy must be rejected")
	}
	if _, err := eng.RunPool(context.Background(), nil, PoolConfig{Cores: 1}); err == nil {
		t.Error("empty tenant set must be rejected")
	}
	bad := []Tenant{{Benchmark: "no-such-bench", Workload: testWorkload(), Config: core.DefaultConfig()}}
	if _, err := eng.RunPool(context.Background(), bad, PoolConfig{Cores: 1}); err == nil {
		t.Error("unknown benchmark must be rejected")
	}
}

// TestPoolConfigValidate pins the one owner of the pool's shape: at
// least one core, a shard count in 0..Cores, and a known policy, where
// the empty policy is least-lag. Only the shape is checked; weights,
// deadlines and penalties are policy inputs with their own defaults.
func TestPoolConfigValidate(t *testing.T) {
	for _, c := range []struct {
		name string
		pool PoolConfig
		want string // error substring; "" = valid
	}{
		{"one core", PoolConfig{Cores: 1}, ""},
		{"every policy", PoolConfig{Cores: 4, Policy: PolicyAffinity}, ""},
		{"shards 0", PoolConfig{Cores: 2, Shards: 0}, ""},
		{"shards 1", PoolConfig{Cores: 2, Shards: 1}, ""},
		{"one core per shard", PoolConfig{Cores: 3, Shards: 3}, ""},
		{"policy inputs are not shape", PoolConfig{Cores: 1, Weights: []float64{-1}, DeadlineCycles: 1, MigrationPenalty: 1 << 40}, ""},
		{"zero cores", PoolConfig{}, "pool must be >= 1 lifeguard core, got 0"},
		{"negative cores", PoolConfig{Cores: -3}, "got -3"},
		{"zero cores before shards", PoolConfig{Cores: 0, Shards: 2}, "lifeguard core"},
		{"negative shards", PoolConfig{Cores: 2, Shards: -1}, "shards -1 outside 0..pool (2 cores)"},
		{"more shards than cores", PoolConfig{Cores: 3, Shards: 8}, "shards 8 outside 0..pool (3 cores)"},
		{"unknown policy", PoolConfig{Cores: 2, Policy: "fifo"}, `unknown scheduling policy "fifo"`},
		{"policy names are exact", PoolConfig{Cores: 2, Policy: "Least-Lag"}, "unknown scheduling policy"},
	} {
		err := c.pool.Validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: valid pool rejected: %v", c.name, err)
		case c.want != "" && err == nil:
			t.Errorf("%s: invalid pool accepted", c.name)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.want)
		}
	}
}

// TestViolationsSurviveContention: detection is timing-independent — a
// tenant with an injected bug reports the same violations regardless of
// pool pressure.
func TestViolationsSurviveContention(t *testing.T) {
	buggy := Tenant{
		Benchmark: "gzip",
		Workload:  workloads.Config{Scale: testScale, Bug: workloads.BugUseAfterFree},
		Config:    core.DefaultConfig(),
	}
	clean := Tenant{Benchmark: "mcf", Workload: testWorkload(), Config: core.DefaultConfig()}
	eng := NewEngine(0, nil)
	var counts []int
	for _, cores := range []int{1, 4} {
		res, err := eng.RunPool(context.Background(), []Tenant{buggy, clean}, PoolConfig{Cores: cores, Policy: PolicyRoundRobin})
		if err != nil {
			t.Fatal(err)
		}
		if res.Tenants[0].Violations == 0 {
			t.Errorf("%d cores: injected use-after-free not reported", cores)
		}
		counts = append(counts, res.Tenants[0].Violations)
	}
	if counts[0] != counts[1] {
		t.Errorf("violation count changed with pool size: %v", counts)
	}
}

func TestLagHistogram(t *testing.T) {
	var h lagHist
	for lag := uint64(1); lag <= 100; lag++ {
		h.add(lag)
	}
	if h.max != 100 {
		t.Errorf("max = %d", h.max)
	}
	if m := h.mean(); m != 50.5 {
		t.Errorf("mean = %f", m)
	}
	p50, p95 := h.quantile(0.50), h.quantile(0.95)
	// Bucket bounds, not exact order statistics: the medians land in the
	// [32,64) and [64,128)->clamped-to-max buckets.
	if p50 < 50 || p50 > 63 {
		t.Errorf("p50 = %d, want within [50, 63]", p50)
	}
	if p95 < 95 || p95 > 100 {
		t.Errorf("p95 = %d, want within [95, 100]", p95)
	}
	if p50 > p95 {
		t.Errorf("quantiles out of order: p50=%d p95=%d", p50, p95)
	}
	var empty lagHist
	if empty.quantile(0.5) != 0 || empty.mean() != 0 {
		t.Error("empty histogram must report zeros")
	}
}
