package tenant

import (
	"context"
	"encoding/json"
	"reflect"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

// dispatchSuiteProfiles builds n real suite tenants (small scale: the
// differential test replays them dozens of times) and profiles them, with
// optional churn windows overlaid the way Engine.RunPool does — on
// shallow copies, since memoized profiles are shared and window-free.
func dispatchSuiteProfiles(t *testing.T, n int, churn Churn) []*Profile {
	t.Helper()
	eng := NewEngine(0, nil)
	set, err := FromSuite(n, workloads.Config{Scale: 20_000}, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	set, err = ApplyChurn(set, churn)
	if err != nil {
		t.Fatal(err)
	}
	profiles := make([]*Profile, n)
	for i, tn := range set {
		p, err := eng.Profile(context.Background(), tn)
		if err != nil {
			t.Fatal(err)
		}
		if a, d := tn.ArriveAt, tn.DepartAfter; a != 0 || d != 0 {
			cp := *p
			cp.Tenant.ArriveAt, cp.Tenant.DepartAfter = a, d
			p = &cp
		}
		profiles[i] = p
	}
	return profiles
}

// diffDispatch replays the same inputs down the batched path and the
// per-record reference and fails unless the results are deep-equal — the
// contract the batched path is built on: batching, incremental ranks and
// buffer reuse are pure speedups, never visible in any output field.
func diffDispatch(t *testing.T, label string, profiles []*Profile, pool PoolConfig) {
	t.Helper()
	batched, err := ReplayPool(context.Background(), profiles, pool)
	if err != nil {
		t.Fatalf("%s: batched replay failed: %v", label, err)
	}
	oracle, err := replayReference(context.Background(), profiles, pool)
	if err != nil {
		t.Fatalf("%s: per-record replay failed: %v", label, err)
	}
	if !reflect.DeepEqual(batched, oracle) {
		a, _ := json.Marshal(batched)
		b, _ := json.Marshal(oracle)
		t.Errorf("%s: batched and per-record results diverge\nbatched:    %s\nper-record: %s", label, a, b)
	}
}

// TestBatchedDispatchMatchesPerRecord pins the batched fast path to the
// per-record oracle, deep-equal on the full PoolResult, for every
// registered policy across: the real benchmark suite (fixed-set and
// churned, migration model off and on, 1-3 cores, cycled weights and the
// tiers they derive), and the synthetic fuzz-corpus timelines — including
// the churn seeds, whose arrivals force mid-run BeginRun re-snapshots,
// and the drain-heavy seed, whose drains interleave with backpressure —
// plus one 2-tenant wfq pool at a larger scale.
func TestBatchedDispatchMatchesPerRecord(t *testing.T) {
	fixed := dispatchSuiteProfiles(t, 4, Churn{})
	churned := dispatchSuiteProfiles(t, 4, Churn{Rate: 0.5})

	suites := []struct {
		name     string
		profiles []*Profile
	}{
		{"suite", fixed},
		{"suite-churned", churned},
		{"synthetic-staggered", syntheticProfiles(churnSeedStaggered)},
		{"synthetic-mass-departure", syntheticProfiles(churnSeedMassDeparture)},
		{"synthetic-rearrive", syntheticProfiles(churnSeedRearrive)},
		{"synthetic-drain-heavy", syntheticProfiles([]byte("pppppppppppppppppppppppppppppppp"))},
		{"synthetic-dense", syntheticProfiles([]byte("0123456789abcdefghijklmnopqrstuvwxyz"))},
	}
	for _, s := range suites {
		s := s
		t.Run(s.name, func(t *testing.T) {
			for _, policy := range Policies() {
				for _, cores := range []int{1, 2, 3} {
					for _, penalty := range []uint64{0, 320} {
						pool := PoolConfig{
							Cores:            cores,
							Policy:           policy,
							Weights:          []float64{2, 1},
							DeadlineCycles:   5_000,
							MigrationPenalty: penalty,
						}
						diffDispatch(t, policy, s.profiles, pool)
					}
				}
			}
		})
	}
	// Two suite tenants at a larger scale (40k), under wfq with the
	// migration model on and neither weights nor a deadline.
	t.Run("suite-2x40k", func(t *testing.T) {
		set, err := FromSuite(2, workloads.Config{Scale: 40_000}, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		profiles, err := NewEngine(1, nil).Profiles(context.Background(), set)
		if err != nil {
			t.Fatal(err)
		}
		diffDispatch(t, PolicyWFQ, profiles, PoolConfig{Cores: 2, Policy: PolicyWFQ, MigrationPenalty: 320})
	})
}

// TestBatchedReplaySteadyStateAllocs is the allocation regression guard
// for the tentpole: once the arena pool is warm, a batched replay of the
// real suite must stay within a small fixed allocation budget (results
// and their per-tenant slices; measured 15-20) regardless of record
// count — the per-record oracle path allocates its working state fresh
// every replay and sits far above this ceiling by design. GC is paused
// so a collection cannot empty the arena sync.Pool mid-measurement.
func TestBatchedReplaySteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on its own account")
	}
	profiles := dispatchSuiteProfiles(t, 4, Churn{})
	pool := PoolConfig{Cores: 2, Policy: PolicyWFQ, MigrationPenalty: 320}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Warm the arena pool and the warmth factor memo.
	if _, err := ReplayPool(context.Background(), profiles, pool); err != nil {
		t.Fatal(err)
	}
	const ceiling = 30.0
	got := testing.AllocsPerRun(5, func() {
		if _, err := ReplayPool(context.Background(), profiles, pool); err != nil {
			t.Fatal(err)
		}
	})
	if got > ceiling {
		t.Errorf("steady-state batched replay allocates %.0f objects/run, ceiling %v", got, ceiling)
	}
}
