package figures

import (
	"fmt"
	"strings"

	"repro/internal/tenant"
)

// AffinityPenalties is the affinity figure's X axis: migration penalties
// in lifeguard cycles, from "warmth is free" (the pre-warmth model, the
// byte-identical baseline) through a few shadow lines' refill (a record's
// handler cost is single-digit cycles) to a whole working set, where a
// policy that interleaves tenants across cores pays for every bounce.
func AffinityPenalties() []uint64 { return []uint64{0, 20, 80, 320} }

// AffinityPolicies are the policies the affinity figure compares: greedy
// least-lag (interleaves freely, worst case under migration costs), wfq
// (rank-stable tenant->core mapping, warmth mostly for free) and the
// warmth-aware affinity policy itself.
func AffinityPolicies() []string {
	return []string{tenant.PolicyLeastLag, tenant.PolicyWFQ, tenant.PolicyAffinity}
}

// AffinitySweep regenerates the core-affinity figure: the tenant set
// served by one pool under every compared policy across the migration
// penalty sweep, in (policy, penalty) order. base supplies the shared
// pool shape (cores, weights, deadline); its Policy and MigrationPenalty
// are overridden per cell.
func AffinitySweep(tenants []tenant.Tenant, penalties []uint64, base tenant.PoolConfig, opts Options) ([]*tenant.PoolResult, error) {
	var pools []tenant.PoolConfig
	for _, policy := range AffinityPolicies() {
		for _, penalty := range penalties {
			pool := base
			pool.Policy = policy
			pool.MigrationPenalty = penalty
			pools = append(pools, pool)
		}
	}
	return runMatrix(tenants, pools, opts)
}

// RenderAffinity draws aggregate slowdown vs migration penalty, one bar
// row per (policy, penalty) cell. Migration accounting is shown per row;
// it reads zero at penalty 0 because the migration model (and with it the
// accounting) is off there — that row is the pre-warmth baseline.
func RenderAffinity(cells []*tenant.PoolResult) string {
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
	sb.WriteString("mean slowdown vs migration penalty (1.0 = unmonitored)\n")
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
		fmt.Fprintf(&sb, "%5d cyc %s %.2fX (max %.2fX, util %.0f%%, %d migrations, %d cold cycles)\n",
			c.MigrationPenalty, strings.Repeat("█", bar), c.MeanSlowdown, c.MaxSlowdown,
			100*c.Utilisation, c.Migrations, c.ColdServeCycles)
	}
	return sb.String()
}
