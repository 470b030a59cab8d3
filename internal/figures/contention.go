package figures

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/tenant"
)

// DefaultPoolSizes is the contention figure's X axis: 1-8 lifeguard
// cores, the same span as the paper's parallel-lifeguard discussion.
func DefaultPoolSizes() []int { return []int{1, 2, 3, 4, 5, 6, 7, 8} }

// TenantSet builds the figure's tenant population: n tenants drawn from
// the nine-benchmark suite at the run's scale and design point.
func TenantSet(n int, opts Options) ([]tenant.Tenant, error) {
	opts = opts.withDefaults()
	return tenant.FromSuite(n, opts.workloadConfig(), opts.coreConfig())
}

// tenantEngine builds a tenant engine on the options' experiment runner,
// so tenant baselines share the figure panels' memoized runs and land in
// the same JSON report.
func tenantEngine(opts Options) *tenant.Engine {
	eng := opts.engine()
	return tenant.NewEngine(eng.Workers(), eng)
}

// runMatrix replays the tenant set against every pool on the options'
// engine, one cell per pool in pool order.
func runMatrix(tenants []tenant.Tenant, pools []tenant.PoolConfig, opts Options) ([]*tenant.PoolResult, error) {
	results, err := tenantEngine(opts.withDefaults()).RunMatrix(context.Background(), tenants, pools)
	if err != nil {
		return nil, fmt.Errorf("figures: %w", err)
	}
	return results, nil
}

// ContentionSweep regenerates the contention figure: the tenant set
// served by pools of each size under each policy, in (policy, cores)
// order.
func ContentionSweep(tenants []tenant.Tenant, sizes []int, policies []string, opts Options) ([]*tenant.PoolResult, error) {
	var pools []tenant.PoolConfig
	for _, policy := range policies {
		for _, cores := range sizes {
			pools = append(pools, tenant.PoolConfig{Cores: cores, Policy: policy})
		}
	}
	return runMatrix(tenants, pools, opts)
}

// RunPoolCell simulates one tenant set against one pool configuration —
// the single-cell entry point behind lbasim/lbabench's -tenants flags.
func RunPoolCell(tenants []tenant.Tenant, pool tenant.PoolConfig, opts Options) (*tenant.PoolResult, error) {
	opts = opts.withDefaults()
	res, err := tenantEngine(opts).RunPool(context.Background(), tenants, pool)
	if err != nil {
		return nil, fmt.Errorf("figures: %w", err)
	}
	return res, nil
}

// RenderContention draws aggregate slowdown vs pool size, one bar row
// per (policy, cores) cell — the contention analogue of Figure 2.
func RenderContention(cells []*tenant.PoolResult) string {
	if len(cells) == 0 {
		return ""
	}
	maxVal := 0.0
	for _, c := range cells {
		if c.MeanSlowdown > maxVal {
			maxVal = c.MeanSlowdown
		}
	}
	if maxVal == 0 {
		return ""
	}
	const barW = 50
	scale := float64(barW) / maxVal

	var sb strings.Builder
	sb.WriteString("mean slowdown vs lifeguard-pool size (1.0 = unmonitored)\n")
	lastPolicy := ""
	for _, c := range cells {
		if c.Policy != lastPolicy {
			fmt.Fprintf(&sb, "%s:\n", c.Policy)
			lastPolicy = c.Policy
		}
		bar := int(c.MeanSlowdown*scale + 0.5)
		if bar < 1 {
			bar = 1
		}
		fmt.Fprintf(&sb, "%2d cores %s %.2fX (max %.2fX, util %.0f%%, lag-p95 %d)\n",
			c.Cores, strings.Repeat("█", bar), c.MeanSlowdown, c.MaxSlowdown, 100*c.Utilisation, c.WorstLagP95())
	}
	return sb.String()
}
