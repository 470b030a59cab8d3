package tenant

import (
	"context"
	"math/rand"
	"testing"
)

// TestPropertyWFQFairness is the WFQ fairness property over randomized
// weights and timelines on a saturated pool.
//
// A note on what "fairness" can mean here: the pool is placement-only and
// work-conserving — every produced record is scheduled at production time
// and eventually served, so each tenant's served-byte share equals its
// demand share *exactly*, under every policy and any weights. Byte
// throughput is conserved; the currency a placement policy actually
// redistributes is delay. The test therefore pins both halves:
//
//  1. Conservation: per-tenant served bytes equal produced bytes, so
//     served-byte ratios equal demand ratios (trivially "within
//     tolerance" of any target only when demand matches it — weights
//     cannot starve anyone of throughput).
//  2. Delay differentiation: WFQ maps service rank onto the pool, so
//     under saturation the most underserved-by-weight tenant holds the
//     soonest-free cores and the most overserved holds the latest-free
//     core. With distinct weights the uniquely lightest tenant must see
//     the worst mean lag of the set, and the uniquely heaviest must sit
//     within noise of the best (tolerances measured on this workload
//     family: the lightest is >= 2% worse than the heaviest, the
//     heaviest within 2% of the best non-lightest tenant).
func TestPropertyWFQFairness(t *testing.T) {
	weightsBase := []float64{32, 16, 8, 4, 2, 1}
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
		rng := rand.New(rand.NewSource(seed))
		n := len(weightsBase)
		weights := append([]float64(nil), weightsBase...)
		rng.Shuffle(n, func(i, j int) { weights[i], weights[j] = weights[j], weights[i] })

		// Per-tenant sparse (in-burst gap ~40 > cost + transport latency,
		// so a tenant's own channel never serialises it), aggregate
		// saturated (6 tenants * ~16 cost / ~40 gap ~ 2.4 demanded cores
		// on 2) — the regime where core placement, and therefore the
		// policy, decides who waits.
		profiles := synthSet(seed, n, func(r *rand.Rand) []step {
			return burstTimeline(r, 50, 25, 4000, 35, 45, 12, 20)
		})
		servedBits := make([]uint64, n)
		res, err := replayMode(context.Background(), profiles, PoolConfig{Cores: 2, Policy: PolicyWFQ, Weights: weights},
			func(tenant, core int, req Request, charge, finish uint64) {
				servedBits[tenant] += req.Bits
			}, false)
		if err != nil {
			t.Fatal(err)
		}

		// (1) Conservation: every produced byte is scheduled and served,
		// so served-byte ratios equal demand ratios exactly.
		for i := range profiles {
			if servedBits[i] != profiles[i].Result.LogBits {
				t.Errorf("seed %d: tenant %d served %d bits of %d produced (conservation)",
					seed, i, servedBits[i], profiles[i].Result.LogBits)
			}
		}

		// (2) Delay differentiation at the rank extremes.
		lightest, heaviest := 0, 0
		for i := range weights {
			if weights[i] < weights[lightest] {
				lightest = i
			}
			if weights[i] > weights[heaviest] {
				heaviest = i
			}
		}
		lagLight := res.Tenants[lightest].MeanLagCycles
		lagHeavy := res.Tenants[heaviest].MeanLagCycles
		bestOther := -1.0
		for i, tr := range res.Tenants {
			if i == lightest {
				continue
			}
			if lagLight < tr.MeanLagCycles {
				t.Errorf("seed %d: weight-%g tenant lags %.1f, less than weight-%g tenant's %.1f (lightest must wait most)",
					seed, weights[lightest], lagLight, weights[i], tr.MeanLagCycles)
			}
			if i != heaviest && (bestOther < 0 || tr.MeanLagCycles < bestOther) {
				bestOther = tr.MeanLagCycles
			}
		}
		if lagLight < lagHeavy*1.02 {
			t.Errorf("seed %d: lightest tenant's lag %.1f not measurably worse than heaviest's %.1f",
				seed, lagLight, lagHeavy)
		}
		if lagHeavy > bestOther*1.02 {
			t.Errorf("seed %d: heaviest tenant's lag %.1f more than 2%% off the best peer's %.1f",
				seed, lagHeavy, bestOther)
		}
	}
}

// TestPropertyConservationAllPolicies extends the conservation half to
// every registered policy and a non-zero migration penalty: weights,
// tiers, warmth and penalties shift *when* records are served, never
// *whether* — per-tenant record and byte counts are invariant.
func TestPropertyConservationAllPolicies(t *testing.T) {
	profiles := synthSet(42, 4, func(r *rand.Rand) []step {
		return burstTimeline(r, 20, 20, 3000, 5, 25, 8, 24)
	})
	for _, policy := range Policies() {
		pool := PoolConfig{Cores: 3, Policy: policy,
			Weights: []float64{4, 1}, Tiers: []int{0, 1}, MigrationPenalty: 40}
		records := make([]uint64, len(profiles))
		bits := make([]uint64, len(profiles))
		if _, err := replayMode(context.Background(), profiles, pool,
			func(tenant, core int, req Request, charge, finish uint64) {
				records[tenant]++
				bits[tenant] += req.Bits
			}, false); err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		for i, p := range profiles {
			if records[i] != p.Result.Records || bits[i] != p.Result.LogBits {
				t.Errorf("%s: tenant %d served %d records / %d bits, produced %d / %d",
					policy, i, records[i], bits[i], p.Result.Records, p.Result.LogBits)
			}
		}
	}
}
