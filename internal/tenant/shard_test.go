package tenant

import (
	"context"
	"encoding/json"
	"reflect"
	"strconv"
	"testing"
)

// shardSuites is the differential corpus for the sharded dispatch path —
// the same real-suite, churned and synthetic timelines the batched
// differential runs on, so both fast paths are pinned against the same
// inputs.
func shardSuites(t *testing.T) []struct {
	name     string
	profiles []*Profile
} {
	t.Helper()
	return []struct {
		name     string
		profiles []*Profile
	}{
		{"suite", dispatchSuiteProfiles(t, 4, Churn{})},
		{"suite-churned", dispatchSuiteProfiles(t, 4, Churn{Rate: 0.5})},
		{"synthetic-staggered", syntheticProfiles(churnSeedStaggered)},
		{"synthetic-mass-departure", syntheticProfiles(churnSeedMassDeparture)},
		{"synthetic-rearrive", syntheticProfiles(churnSeedRearrive)},
		{"synthetic-drain-heavy", syntheticProfiles([]byte("pppppppppppppppppppppppppppppppp"))},
		{"synthetic-dense", syntheticProfiles([]byte("0123456789abcdefghijklmnopqrstuvwxyz"))},
	}
}

// TestShardedDispatchMatchesBatched pins the two halves of the sharding
// determinism contract, for every registered policy across the dispatch
// differential corpus, shard counts 1-4 and the migration model off/on:
//
//   - one shard IS the global batched replay: a plan of one shard —
//     Shards 1 through the planner, or Shards 2 clamped to one plan by a
//     single tenant — is deep-equal to ReplayPool on the unsharded pool,
//     field for field (so `-shards 1` artifacts are byte-identical to
//     unsharded ones);
//   - parallel == serial: for K >= 2 the concurrently-replayed shards
//     merge to a result deep-equal to replaying the same plan one shard
//     at a time. K >= 2 is static partitioning — a different scheduling
//     point than the global replay, not a bit-identical speedup of it —
//     so the serial sharded replay is the oracle here, exactly as the
//     per-record path is the oracle for batching.
func TestShardedDispatchMatchesBatched(t *testing.T) {
	for _, s := range shardSuites(t) {
		s := s
		t.Run(s.name, func(t *testing.T) {
			for _, policy := range Policies() {
				for _, shards := range []int{1, 2, 3, 4} {
					for _, penalty := range []uint64{0, 320} {
						pool := PoolConfig{
							Cores:            4,
							Policy:           policy,
							Weights:          []float64{2, 1},
							DeadlineCycles:   5_000,
							MigrationPenalty: penalty,
							Shards:           shards,
						}
						label := policy + "/shards=" + strconv.Itoa(shards)

						if shards == 1 {
							// ReplayPool sends Shards 1 straight to the
							// unsharded replay, so drive the planner and its
							// one-plan short-circuit directly.
							one, err := replaySharded(context.Background(), s.profiles, pool, replayOpts{})
							if err != nil {
								t.Fatalf("%s: one-shard replay failed: %v", label, err)
							}
							assertOnePlanIsBatched(t, label, s.profiles, pool, one)
							continue
						}
						sharded, err := ReplayPool(context.Background(), s.profiles, pool)
						if err != nil {
							t.Fatalf("%s: sharded replay failed: %v", label, err)
						}
						if shards == 2 {
							// A single tenant clamps the plan to one shard:
							// the route lbad takes at -shards 2 with one
							// tenant admitted.
							one, err := ReplayPool(context.Background(), s.profiles[:1], pool)
							if err != nil {
								t.Fatalf("%s: clamped replay failed: %v", label, err)
							}
							assertOnePlanIsBatched(t, label+"/tenants=1", s.profiles[:1], pool, one)
						}
						serial, err := replaySharded(context.Background(), s.profiles, pool, replayOpts{serial: true})
						if err != nil {
							t.Fatalf("%s: serial sharded replay failed: %v", label, err)
						}
						if !reflect.DeepEqual(sharded, serial) {
							a, _ := json.Marshal(sharded)
							b, _ := json.Marshal(serial)
							t.Errorf("%s: parallel and serial shard replays diverge\nparallel: %s\nserial:   %s", label, a, b)
						}
						// The Shards echo reports the clamped plan width, and
						// only when the replay actually partitioned.
						want := shards
						if n := len(s.profiles); want > n {
							want = n
						}
						if want < 2 {
							want = 0
						}
						if sharded.Shards != want {
							t.Errorf("%s: merged result reports %d shards, want %d", label, sharded.Shards, want)
						}
					}
				}
			}
		})
	}
}

// assertOnePlanIsBatched checks that a replay whose shard plan collapsed
// to one shard is deep-equal to the unsharded replay of the same pool.
func assertOnePlanIsBatched(t *testing.T, label string, profiles []*Profile, pool PoolConfig, one *PoolResult) {
	t.Helper()
	flat := pool
	flat.Shards = 0
	batched, err := ReplayPool(context.Background(), profiles, flat)
	if err != nil {
		t.Fatalf("%s: batched replay failed: %v", label, err)
	}
	if !reflect.DeepEqual(one, batched) {
		a, _ := json.Marshal(one)
		b, _ := json.Marshal(batched)
		t.Errorf("%s: one-shard replay diverges from batched\nsharded: %s\nbatched: %s", label, a, b)
	}
}

// TestShardPlan covers the planner's own contract: deterministic output,
// clamping to the tenant count, contiguous disjoint core groups that
// cover the pool, every tenant assigned exactly once, and no empty shard
// (the zero-load clamp guarantees the LPT greedy fills every shard before
// doubling up).
func TestShardPlan(t *testing.T) {
	profiles := dispatchSuiteProfiles(t, 5, Churn{})

	for _, c := range []struct {
		shards, cores, wantK int
	}{
		{0, 3, 1},   // unset defaults to one shard
		{1, 3, 1},   // explicit single shard
		{2, 3, 2},   // plain split
		{3, 3, 3},   // one core per shard
		{4, 16, 4},  // more cores than shards: uneven groups
		{16, 16, 5}, // clamped to the tenant count
	} {
		pool := PoolConfig{Cores: c.cores, Policy: PolicyLeastLag, Shards: c.shards}
		specs := planShards(profiles, pool)
		if len(specs) != c.wantK {
			t.Fatalf("shards=%d cores=%d: planned %d shards, want %d", c.shards, c.cores, len(specs), c.wantK)
		}
		if again := planShards(profiles, pool); !reflect.DeepEqual(specs, again) {
			t.Errorf("shards=%d cores=%d: plan is not deterministic", c.shards, c.cores)
		}

		nextCore := 0
		seen := make([]bool, len(profiles))
		for s, spec := range specs {
			if spec.core0 != nextCore || spec.cores < 1 {
				t.Errorf("shards=%d cores=%d: shard %d group [%d,%d) breaks contiguous cover at core %d",
					c.shards, c.cores, s, spec.core0, spec.core0+spec.cores, nextCore)
			}
			nextCore = spec.core0 + spec.cores
			if len(spec.tenants) == 0 {
				t.Errorf("shards=%d cores=%d: shard %d has no tenants", c.shards, c.cores, s)
			}
			for _, tn := range spec.tenants {
				if tn < 0 || tn >= len(profiles) || seen[tn] {
					t.Errorf("shards=%d cores=%d: tenant %d missing or assigned twice", c.shards, c.cores, tn)
					continue
				}
				seen[tn] = true
			}
		}
		if nextCore != c.cores {
			t.Errorf("shards=%d cores=%d: core groups cover [0,%d), want [0,%d)", c.shards, c.cores, nextCore, c.cores)
		}
		for tn, ok := range seen {
			if !ok {
				t.Errorf("shards=%d cores=%d: tenant %d unassigned", c.shards, c.cores, tn)
			}
		}
	}

	// More shards than cores cannot partition the pool; the entry point
	// rejects them before the planner runs.
	if _, err := ReplayPool(context.Background(), profiles, PoolConfig{Cores: 3, Policy: PolicyLeastLag, Shards: 8}); err == nil {
		t.Error("more shards than cores should be rejected by the replay entry point")
	}
	if _, err := ReplayPool(context.Background(), profiles, PoolConfig{Cores: 2, Policy: PolicyLeastLag, Shards: -1}); err == nil {
		t.Error("negative shard count should be rejected by the replay entry point")
	}
	if _, err := ReplayPool(context.Background(), profiles, PoolConfig{Cores: 4, Policy: "nope", Shards: 2}); err == nil {
		t.Error("unknown policy should fail before any shard replays")
	}
}

// TestShardedResultShape pins the merged result's global shape: the
// Shards echo appears only when the replay actually partitioned, core
// vectors span the full pool, warmth rows are block-diagonal (a shard's
// tenants are never warm on another shard's cores), and per-record
// observers are rejected — sharded replays have no global record order
// to observe.
func TestShardedResultShape(t *testing.T) {
	profiles := dispatchSuiteProfiles(t, 4, Churn{})
	pool := PoolConfig{Cores: 4, Policy: PolicyAffinity, MigrationPenalty: 320, Shards: 2}

	res, err := ReplayPool(context.Background(), profiles, pool)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != 2 {
		t.Errorf("Shards echo = %d, want 2", res.Shards)
	}
	if len(res.CoreBusyCycles) != pool.Cores || len(res.CoreWarmth) != pool.Cores {
		t.Fatalf("core vectors sized %d/%d, want %d", len(res.CoreBusyCycles), len(res.CoreWarmth), pool.Cores)
	}
	specs := planShards(profiles, pool)
	onShard := make([]int, len(profiles))
	for s, spec := range specs {
		for _, tn := range spec.tenants {
			onShard[tn] = s
		}
	}
	for c := range res.CoreWarmth {
		for tn, w := range res.CoreWarmth[c] {
			spec := specs[onShard[tn]]
			if (c < spec.core0 || c >= spec.core0+spec.cores) && w != 0 {
				t.Errorf("tenant %d warm (%.3f) on core %d outside its shard group [%d,%d)",
					tn, w, c, spec.core0, spec.core0+spec.cores)
			}
		}
	}

	flat := pool
	flat.Shards = 1
	one, err := replaySharded(context.Background(), profiles, flat, replayOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if one.Shards != 0 {
		t.Errorf("one-shard replay reports Shards = %d; the echo marks actual partitioning", one.Shards)
	}
	clamped, err := ReplayPool(context.Background(), profiles[:1], pool)
	if err != nil {
		t.Fatal(err)
	}
	if clamped.Shards != 0 {
		t.Errorf("one-tenant replay at Shards 2 reports Shards = %d; the plan clamps to one shard", clamped.Shards)
	}

	if _, err := ReplayPoolReference(context.Background(), profiles, pool); err == nil {
		t.Error("the per-record reference should reject a sharded pool")
	}
}
