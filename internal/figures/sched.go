package figures

import (
	"context"
	"fmt"

	"repro/internal/tenant"
)

// SchedPoolSizes is the scheduler figure's X axis. It is sparser than the
// contention figure's 1-8 sweep because the figure's point is the spread
// *between* the registered policies, not the shape of one curve.
func SchedPoolSizes() []int { return []int{1, 2, 4, 8} }

// DefaultAdmissionSLOs are the contention bounds the admission planner
// answers by default: a strict 1.25X (pooling may cost a tenant at most
// 25% over a dedicated lifeguard core) and a relaxed 2X. They bound the
// contention factor, not raw slowdown, so the same values are meaningful
// at every workload scale and for every lifeguard.
func DefaultAdmissionSLOs() []float64 { return []float64{1.25, 2.0} }

// SchedSweep regenerates the scheduler-comparison figure: the tenant set
// served by pools of each size under every registered policy, in
// (policy, cores) order. base supplies the policy inputs shared by all
// cells (weights, the lag deadline, the migration penalty); its Cores and
// Policy are overridden per cell.
func SchedSweep(tenants []tenant.Tenant, sizes []int, base tenant.PoolConfig, opts Options) ([]*tenant.PoolResult, error) {
	var pools []tenant.PoolConfig
	for _, policy := range tenant.Policies() {
		for _, cores := range sizes {
			pool := base
			pool.Cores = cores
			pool.Policy = policy
			pools = append(pools, pool)
		}
	}
	return runMatrix(tenants, pools, opts)
}

// AdmissionPlan answers the admission-control question for every listed
// policy on one pool size: the maximum tenant count the pool can serve
// under each slowdown SLO. All policies share one engine, so each unique
// tenant is profiled exactly once across the whole plan and each extra
// population costs only a replay.
func AdmissionPlan(base tenant.PoolConfig, policies []string, slos []float64, maxTenants int, opts Options) ([]tenant.AdmissionPoint, error) {
	opts = opts.withDefaults()
	eng := tenantEngine(opts)
	var points []tenant.AdmissionPoint
	for _, policy := range policies {
		pool := base
		pool.Policy = policy
		pts, err := eng.PlanAdmissionQuery(context.Background(), opts.workloadConfig(), opts.coreConfig(),
			tenant.AdmissionQuery{Pool: pool, SLOs: slos, MaxTenants: maxTenants})
		if err != nil {
			return nil, fmt.Errorf("figures: %w", err)
		}
		points = append(points, pts...)
	}
	return points, nil
}
