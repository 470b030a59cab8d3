package tenant

import (
	"context"
	"fmt"
	"sort"
	"sync"
)

// This file is the multi-core half of the replay fast path: ReplayPool
// with PoolConfig.Shards > 1 partitions a pool into K sub-pools —
// contiguous core groups plus a load-balanced tenant assignment — replays
// each sub-pool with the batched single-core fast path on its own
// goroutine, and merges the per-shard results into one PoolResult.
//
// The semantics are *static partitioning*, the regime the LBA paper itself
// evaluates (a lifeguard core dedicated per application is the K == cores
// endpoint): each sub-pool's scheduler sees only its own tenants and cores.
// That independence is exactly what makes the shards embarrassingly
// parallel — a global policy (wfq's virtual time, least-lag's earliest-free
// scan, cross-tenant warmth decay) is causally serial, so K >= 2 sharding
// is a different, coarser scheduling point, not a bit-identical speedup of
// the global replay. The determinism contract is therefore:
//
//   - one shard IS the global batched replay: plan, sub-pool and result are
//     byte-identical to the unsharded replay (pinned by the differential
//     suite and the 1-shard cmd-level golden);
//   - for K >= 2, parallel == serial: the merge of concurrently-replayed
//     shards is byte-identical to replaying the same shards one by one
//     (pinned by TestShardedDispatchMatchesBatched across GOMAXPROCS and
//     by the sharded golden artifact), because the plan is deterministic,
//     each shard's replay is the deterministic batched path, and the merge
//     reads shard results in shard order.

// shardSpec is one sub-pool of a shard plan: a contiguous group of global
// core indices and the (ascending) global tenant indices assigned to it.
type shardSpec struct {
	core0   int // first global core index of the group
	cores   int // group size; the group is [core0, core0+cores)
	tenants []int
}

// planShards partitions the pool deterministically. Cores are split into K
// contiguous groups whose sizes differ by at most one (the first
// cores%K groups take the extra core). Tenants are assigned by longest-
// processing-time greedy on their profiled lifeguard cost: heaviest tenant
// first, each to the shard with the least assigned load per core, ties
// toward the lowest shard index — the classic deterministic makespan
// heuristic, so shards finish together and the parallel speedup is not
// throttled by one hot shard. The pool is already validated (Shards <=
// Cores); K is clamped only to the tenant count.
func planShards(profiles []*Profile, pool PoolConfig) []shardSpec {
	k := max(pool.Shards, 1)
	if n := len(profiles); k > n {
		k = n
	}
	specs := make([]shardSpec, k)
	for s := range specs {
		specs[s].core0 = s * pool.Cores / k
		specs[s].cores = (s+1)*pool.Cores/k - specs[s].core0
	}

	// LPT order: load descending, index ascending on ties.
	order := make([]int, len(profiles))
	for i := range order {
		order[i] = i
	}
	loads := make([]uint64, len(profiles))
	for i, p := range profiles {
		loads[i] = p.Result.LgCycles
		// A zero-cost timeline still occupies a tenant slot; clamping to
		// one load unit makes the greedy fill every shard before doubling
		// up (k <= tenants), so no shard is ever empty.
		if loads[i] == 0 {
			loads[i] = 1
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		return loads[order[a]] > loads[order[b]]
	})
	assigned := make([]uint64, k)
	for _, t := range order {
		best := 0
		for s := 1; s < k; s++ {
			// Compare per-core load without division: load_s / cores_s.
			if assigned[s]*uint64(specs[best].cores) < assigned[best]*uint64(specs[s].cores) {
				best = s
			}
		}
		assigned[best] += loads[t]
		specs[best].tenants = append(specs[best].tenants, t)
	}
	for s := range specs {
		sort.Ints(specs[s].tenants)
	}
	return specs
}

// subPool builds the shard's own PoolConfig: the group's core count, with
// the parent's cycled per-tenant Weights *materialised* for the selected
// tenants — cycling is by global tenant index, so a shard must carry each
// tenant's already-resolved weight, not re-cycle a shorter list over a
// renumbered set. The materialised weights are the clamped global ones,
// and tiers derive from weights, so the shard's views are identical to
// the global ones — which is what makes the one-shard sub-pool replay
// exactly the global replay.
func subPool(pool PoolConfig, views []TenantView, spec shardSpec) PoolConfig {
	sub := pool
	sub.Cores = spec.cores
	sub.Shards = 0
	sub.Weights = make([]float64, len(spec.tenants))
	for j, t := range spec.tenants {
		sub.Weights[j] = views[t].Weight
	}
	return sub
}

// replaySharded plans the shards of a validated pool and replays them —
// concurrently, or one by one in shard order when opts.serial (the oracle
// the differential test pins the parallel path against). Every sub-replay
// takes opts. A plan of one shard short-circuits to the global batched
// replay, so its result is the unsharded result, field for field. A
// cancelled ctx aborts every sub-replay at its next decode-window refill
// and the call returns ctx.Err(), never a result.
func replaySharded(ctx context.Context, profiles []*Profile, pool PoolConfig, opts replayOpts) (*PoolResult, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("tenant: no tenants")
	}
	specs := planShards(profiles, pool)
	if len(specs) == 1 {
		sub := pool
		sub.Shards = 0
		return replayMode(ctx, profiles, sub, opts)
	}

	views := pool.tenantViews(len(profiles))
	results := make([]*PoolResult, len(specs))
	errs := make([]error, len(specs))
	replayOne := func(s int) {
		spec := specs[s]
		subProfiles := make([]*Profile, len(spec.tenants))
		for j, t := range spec.tenants {
			subProfiles[j] = profiles[t]
		}
		results[s], errs[s] = replayMode(ctx, subProfiles, subPool(pool, views, spec), opts)
	}
	if !opts.serial {
		var wg sync.WaitGroup
		for s := range specs {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				replayOne(s)
			}(s)
		}
		wg.Wait()
	} else {
		for s := range specs {
			replayOne(s)
		}
	}
	// Deterministic error selection: the lowest shard's error wins, so a
	// parallel failure reports exactly what the serial replay would.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// As in replayMode: a cancel that landed after every shard drained
	// must still surface as ctx.Err(), never as a result.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return mergeShards(pool, specs, results), nil
}

// mergeShards reassembles the global PoolResult from per-shard results:
// tenants return to their global indices, core vectors to their global
// core slots (warmth rows are block-diagonal — a shard's tenants were
// never served outside its cores), and the aggregates are recomputed over
// the global tenant order by the same PoolResult.aggregate finish() uses,
// so the merge is a pure deterministic function of the shard results.
func mergeShards(pool PoolConfig, specs []shardSpec, results []*PoolResult) *PoolResult {
	n := 0
	for _, spec := range specs {
		n += len(spec.tenants)
	}
	merged := &PoolResult{
		Cores:            pool.Cores,
		Weights:          pool.Weights,
		DeadlineCycles:   pool.DeadlineCycles,
		MigrationPenalty: pool.MigrationPenalty,
		Shards:           len(specs),
		Tenants:          make([]TenantResult, n),
		CoreBusyCycles:   make([]uint64, pool.Cores),
		CoreWarmth:       make([][]float64, pool.Cores),
	}
	for c := range merged.CoreWarmth {
		merged.CoreWarmth[c] = make([]float64, n)
	}
	for _, res := range results {
		merged.Policy = res.Policy // every shard ran the same policy
		merged.Churned = merged.Churned || res.Churned
	}
	for s, spec := range specs {
		res := results[s]
		for c := 0; c < spec.cores; c++ {
			merged.CoreBusyCycles[spec.core0+c] = res.CoreBusyCycles[c]
			for j, t := range spec.tenants {
				merged.CoreWarmth[spec.core0+c][t] = res.CoreWarmth[c][j]
			}
		}
		for j, t := range spec.tenants {
			tr := res.Tenants[j]
			// A globally-churned replay carries active-window accounting on
			// every tenant; backfill it for tenants whose own shard was
			// churn-free (all arrived at zero, none departed), exactly as
			// the global replay would have reported them.
			if merged.Churned && !res.Churned {
				tr.ActiveCycles = tr.WallCycles
			}
			merged.Tenants[t] = tr
		}
	}
	merged.aggregate()
	return merged
}
