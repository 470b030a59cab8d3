package tenant

import (
	"context"
	"math/rand"
	"testing"
)

// TestDeadlineLagBoundFeasible is the regression the exact projection
// buys: on a *feasible* synthetic workload — per-tenant record spacing
// above cost plus transport latency (no self-serialisation, no
// backpressure) and aggregate demand under the pool's capacity, so a
// deadline-meeting core exists for essentially every record — the
// deadline policy must hold every tenant's lag p95 under the deadline.
//
// The deadline is set on a histogram bucket edge (255 = 2^8 - 1) because
// LagP95Cycles is a bucket upper bound, not an exact order statistic: a
// true p95 anywhere in [128, 255] reports as at most 255, so the
// assertion is exact rather than rounding-sensitive.
func TestDeadlineLagBoundFeasible(t *testing.T) {
	const deadlineCycles = 255
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		// 3 tenants, 2 cores: records every ~100-140 cycles at cost 20-60
		// is ~0.6 demanded cores — feasible with slack. The transport
		// latency (30) plus the worst cost (60) leaves >= 165 cycles of
		// queueing headroom per record under the 255-cycle deadline.
		profiles := synthSet(seed, 3, func(r *rand.Rand) []step {
			return burstTimeline(r, 40, 20, 3000, 100, 140, 20, 60)
		})
		pool := PoolConfig{Cores: 2, Policy: PolicyDeadline, DeadlineCycles: deadlineCycles}
		res, err := ReplayPool(context.Background(), profiles, pool)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range res.Tenants {
			if tr.StallCycles != 0 {
				t.Fatalf("seed %d/%s: workload must be backpressure-free to be feasible", seed, tr.Name)
			}
			if tr.LagP95Cycles > deadlineCycles {
				t.Errorf("seed %d/%s: lag p95 %d exceeds the %d-cycle deadline on a feasible workload (mean %.0f, max %d)",
					seed, tr.Name, tr.LagP95Cycles, deadlineCycles, tr.MeanLagCycles, tr.MaxLagCycles)
			}
		}
	}
}

// TestDeadlineExactBeatsTighterBound: the same workload under a deadline
// below the transport latency plus minimum cost is infeasible by
// construction — the policy degrades to least-lag and the bound is
// exceeded, proving the p95 assertion above is load-bearing rather than
// trivially satisfied by any configuration.
func TestDeadlineExactBeatsTighterBound(t *testing.T) {
	profiles := synthSet(1, 3, func(r *rand.Rand) []step {
		return burstTimeline(r, 40, 20, 3000, 100, 140, 20, 60)
	})
	// Transport latency 30 + min cost 20 = 50: a 31-cycle bound is
	// unmeetable for every record.
	pool := PoolConfig{Cores: 2, Policy: PolicyDeadline, DeadlineCycles: 31}
	res, err := ReplayPool(context.Background(), profiles, pool)
	if err != nil {
		t.Fatal(err)
	}
	exceeded := false
	for _, tr := range res.Tenants {
		if tr.LagP95Cycles > 31 {
			exceeded = true
		}
	}
	if !exceeded {
		t.Error("an infeasible 31-cycle deadline was reported as met; the lag accounting is too optimistic")
	}
}
