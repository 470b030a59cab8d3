package tenant_test

import (
	"context"
	"fmt"
	"log"
	"reflect"

	"repro/internal/core"
	"repro/internal/tenant"
	"repro/internal/workloads"
)

// The scheduler registry lists every pool policy in evaluation order; the
// first two are the PR-2 baselines, then the SLA-aware tier, then the
// warmth-aware affinity policy.
func ExamplePolicies() {
	for _, p := range tenant.Policies() {
		fmt.Println(p)
	}
	// Output:
	// round-robin
	// least-lag
	// deadline
	// wfq
	// priority
	// affinity
}

// NewScheduler builds a policy from the registry; Pick assigns one record
// to a pool core given every core's live view (free time, the requesting
// tenant's warmth there) and every tenant's live view. Here tenant 0 has
// consumed far more weighted service (virtual time 4096/2 = 2048 vs
// 1024), so WFQ pushes its record onto the busier core and keeps the
// soon-free core for the underserved tenant.
func ExampleNewScheduler() {
	pool := tenant.PoolConfig{Cores: 2, Policy: tenant.PolicyWFQ, Weights: []float64{2, 1}}
	sched, err := tenant.NewScheduler(pool.Policy, pool, 2)
	if err != nil {
		log.Fatal(err)
	}
	views := []tenant.TenantView{
		{Weight: 2, ServedBits: 4096},
		{Weight: 1, ServedBits: 1024},
	}
	cores := []tenant.CoreView{
		{FreeAt: 500, LastTenant: -1},
		{FreeAt: 90, LastTenant: -1},
	}
	core := sched.Pick(tenant.Request{Tenant: 0, Ready: 100, Bits: 32, Cost: 8},
		cores, views)
	fmt.Println(sched.Name(), "sends tenant 0 to core", core)
	// Output:
	// wfq sends tenant 0 to core 0
}

// The affinity policy weighs shadow-cache warmth against queueing: core 1
// frees up 160 cycles earlier, but tenant 0's working set is resident on
// core 0, so serving there avoids the 200-cycle migration charge and wins.
// Projected finishes: 250+8 = 258 on the warm core vs 100+8+200 = 308 on
// the cold one — the idle core's clock (90) is gated by the record only
// becoming ready at cycle 100.
func ExampleNewScheduler_affinity() {
	pool := tenant.PoolConfig{Cores: 2, Policy: tenant.PolicyAffinity, MigrationPenalty: 200}
	sched, err := tenant.NewScheduler(pool.Policy, pool, 1)
	if err != nil {
		log.Fatal(err)
	}
	cores := []tenant.CoreView{
		{FreeAt: 250, Warmth: 1, LastTenant: 0},
		{FreeAt: 90, Warmth: 0, LastTenant: -1},
	}
	core := sched.Pick(tenant.Request{Tenant: 0, Ready: 100, Bits: 32, Cost: 8},
		cores, make([]tenant.TenantView, 1))
	fmt.Println(sched.Name(), "keeps tenant 0 on its warm core", core)
	// Output:
	// affinity keeps tenant 0 on its warm core 0
}

// A churning pool: ApplyChurn staggers arrivals (here one application
// lifetime spaced four lifetimes apart) so tenants roll through the pool
// instead of all contending at once. Each departing tenant stops
// producing at its departure cycle, drains, and releases its channel;
// the result reports when, plus the pool's peak channel concurrency —
// the quantity churn-aware provisioning actually needs. Replays are
// deterministic, so the example output is stable.
func ExampleEngine_RunPool_churn() {
	eng := tenant.NewEngine(1, nil)
	set, err := tenant.FromSuite(3, workloads.Config{Scale: 40_000}, core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	if set, err = tenant.ApplyChurn(set, tenant.Churn{Rate: 4}); err != nil {
		log.Fatal(err)
	}
	res, err := eng.RunPool(context.Background(), set, tenant.PoolConfig{Cores: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("peak concurrency:", res.PeakConcurrency)
	for _, tr := range res.Tenants {
		fmt.Printf("%s arrives at %d, departs at %d\n", tr.Name, tr.ArriveAt, tr.DepartAt)
	}
	// Output:
	// peak concurrency: 2
	// bc arrives at 0, departs at 221110
	// gnuplot arrives at 160000, departs at 434105
	// gs arrives at 320000, departs at 420270
}

// An Engine profiles each tenant once (uncontended, memoized) and replays
// the merged timelines against a shared lifeguard-core pool. The whole
// simulation is deterministic, so examples like this one are stable.
func ExampleEngine_RunPool() {
	eng := tenant.NewEngine(1, nil)
	set, err := tenant.FromSuite(2, workloads.Config{Scale: 40_000}, core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.RunPool(context.Background(), set,
		tenant.PoolConfig{Cores: 1, Policy: tenant.PolicyPriority, Weights: []float64{4, 1}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("policy:", res.Policy)
	fmt.Println("tenants:", len(res.Tenants))
	fmt.Println("monitoring slows tenants down:", res.MeanSlowdown >= 1)
	// Output:
	// policy: priority
	// tenants: 2
	// monitoring slows tenants down: true
}

// Engine.RunPool serves every replay through ReplayPool, the one replay
// entry point: it profiles the tenants (memoized) and replays the
// profiles batched, so replaying the engine's profiles directly gives the
// same result, field for field. The tests pin ReplayPool byte-identical
// to a per-record reference, so the batching can never change a result —
// only how fast it arrives.
func ExampleEngine_RunPool_batched() {
	eng := tenant.NewEngine(1, nil)
	set, err := tenant.FromSuite(2, workloads.Config{Scale: 40_000}, core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	pool := tenant.PoolConfig{Cores: 2, Policy: tenant.PolicyWFQ, MigrationPenalty: 320}
	viaEngine, err := eng.RunPool(context.Background(), set, pool)
	if err != nil {
		log.Fatal(err)
	}
	profiles, err := eng.Profiles(context.Background(), set)
	if err != nil {
		log.Fatal(err)
	}
	direct, err := tenant.ReplayPool(context.Background(), profiles, pool)
	if err != nil {
		log.Fatal(err)
	}

	var records uint64
	for _, tr := range direct.Tenants {
		records += tr.Records
	}
	fmt.Println("records replayed:", records > 0)
	fmt.Println("RunPool is ReplayPool of its profiles:", reflect.DeepEqual(viaEngine, direct))
	// Output:
	// records replayed: true
	// RunPool is ReplayPool of its profiles: true
}
