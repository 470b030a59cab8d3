package tenant

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/workloads"
)

// TestProfileCacheBounded is the churn-growth bound: a long-lived engine
// profiling an open-ended stream of distinct tenants (every admission is
// a new memo key) retains at most its cache limit, instead of growing
// without bound as the unbounded memo this replaces did.
func TestProfileCacheBounded(t *testing.T) {
	eng := NewEngine(1, nil)
	if got := eng.profiles.Limit(); got != DefaultProfileCache {
		t.Fatalf("default profile cache limit = %d, want %d", got, DefaultProfileCache)
	}
	const limit = 4
	eng.profiles = runner.NewMemoBounded[*Profile](limit)

	ctx := context.Background()
	const churned = 3 * limit
	for i := 0; i < churned; i++ {
		tn := Tenant{
			Name:      "churn",
			Benchmark: "gzip",
			Lifeguard: DefaultLifeguard("gzip"),
			// A distinct seed per arrival makes every tenant a distinct
			// memo key, the shape a serving daemon's admissions produce.
			Workload: workloads.Config{Scale: 2000, Seed: uint64(i + 1), Threads: 1},
			Config:   core.DefaultConfig(),
		}
		if _, err := eng.Profile(ctx, tn); err != nil {
			t.Fatal(err)
		}
		if got := eng.ProfileCacheLen(); got > limit {
			t.Fatalf("after %d distinct tenants the profile cache holds %d, limit is %d", i+1, got, limit)
		}
	}
	if got := eng.profiles.Misses(); got != churned {
		t.Fatalf("misses = %d, want %d (every tenant was distinct)", got, churned)
	}

	// Within the bound the memo still memoizes: re-profiling the most
	// recent tenant is a hit, not a recompute.
	hits := eng.profiles.Hits()
	tn := Tenant{
		Name:      "churn",
		Benchmark: "gzip",
		Lifeguard: DefaultLifeguard("gzip"),
		Workload:  workloads.Config{Scale: 2000, Seed: churned, Threads: 1},
		Config:    core.DefaultConfig(),
	}
	if _, err := eng.Profile(ctx, tn); err != nil {
		t.Fatal(err)
	}
	if eng.profiles.Hits() != hits+1 {
		t.Error("re-profiling a retained tenant recomputed instead of hitting the cache")
	}
}
