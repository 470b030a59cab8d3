package figures

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/tenant"
)

// DefaultChurnRates is the churn figure's X axis: arrival spacing in
// units of a tenant's *application* lifetime (the churn horizon derives
// from the workload scale), from a fixed population (rate 0, the
// steady-state planning answer) out to rate 8. The useful range runs
// well past 1 because the monitored service lifetime — production plus
// the lifeguard drain tail that keeps the channel held — is several
// application lifetimes long on a saturated pool; around rate 8 the
// suite's windows stop overlapping (peak concurrency 1) and the pool
// admits every tenant the search can reach.
func DefaultChurnRates() []float64 { return []float64{0, 1, 2, 4, 8} }

// ChurnSweep regenerates the churn planning figure: admissible tenants vs
// churn rate for one pool under one policy. Each rate runs a
// bisection-based admission query (with seeds-many workload-seed
// replications when seeds > 1); the admitted population's peak channel
// concurrency — the capacity churn-aware provisioning actually needs —
// rides along on the points (PeakAtMax) from the planner's own probes,
// and one representative cell per rate (the strictest SLO's admitted
// population) is replayed for the artifact's per-tenant churn rows.
// Points come back in (SLO, rate) order along with those representative
// cells.
func ChurnSweep(base tenant.PoolConfig, rates, slos []float64, maxTenants, seeds int, opts Options) ([]tenant.AdmissionPoint, []*tenant.PoolResult, error) {
	opts = opts.withDefaults()
	eng := tenantEngine(opts)
	ctx := context.Background()

	// answers[rate][slo], gathered per rate, emitted in (SLO, rate) order
	// so the rendered figure groups one SLO's churn curve together.
	answers := make([][]tenant.AdmissionPoint, len(rates))
	var results []*tenant.PoolResult
	for ri, rate := range rates {
		points, err := eng.PlanAdmissionQuery(ctx, opts.workloadConfig(), opts.coreConfig(), tenant.AdmissionQuery{
			Pool:       base,
			SLOs:       slos,
			MaxTenants: maxTenants,
			Churn:      tenant.Churn{Rate: rate},
			Seeds:      seeds,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("figures: %w", err)
		}
		answers[ri] = points
		// One representative cell per rate keeps the artifact readable:
		// the strictest (smallest) SLO's admitted population. slos is an
		// arbitrary caller slice, so find it rather than assume ascending
		// order. This is the only replay the sweep itself pays, and only
		// to emit the cell's per-tenant churn rows.
		strictest := 0
		for i := range points {
			if points[i].SLO < points[strictest].SLO {
				strictest = i
			}
		}
		if p := points[strictest]; p.MaxTenants > 0 {
			set, err := tenant.FromSuite(p.MaxTenants, opts.workloadConfig(), opts.coreConfig())
			if err != nil {
				return nil, nil, fmt.Errorf("figures: %w", err)
			}
			if set, err = tenant.ApplyChurn(set, tenant.Churn{Rate: rate}); err != nil {
				return nil, nil, fmt.Errorf("figures: %w", err)
			}
			res, err := eng.RunPool(ctx, set, base)
			if err != nil {
				return nil, nil, fmt.Errorf("figures: %w", err)
			}
			results = append(results, res)
		}
	}
	var points []tenant.AdmissionPoint
	for si := range slos {
		for ri := range rates {
			points = append(points, answers[ri][si])
		}
	}
	return points, results, nil
}

// RenderChurn draws admissible tenants vs churn rate, one bar row per
// (rate, SLO) point, with the repeated-seed band and the admitted
// population's peak channel concurrency alongside.
func RenderChurn(points []tenant.AdmissionPoint) string {
	if len(points) == 0 {
		return ""
	}
	maxVal := 0
	for _, p := range points {
		if p.TenantsHi > maxVal {
			maxVal = p.TenantsHi
		}
	}
	if maxVal == 0 {
		return ""
	}
	const barW = 50
	scale := float64(barW) / float64(maxVal)

	var sb strings.Builder
	sb.WriteString("admissible tenants vs churn rate (arrival spacing in tenant lifetimes)\n")
	lastSLO := -1.0
	for _, p := range points {
		if p.SLO != lastSLO {
			fmt.Fprintf(&sb, "SLO %.2fX:\n", p.SLO)
			lastSLO = p.SLO
		}
		bar := int(float64(p.MaxTenants)*scale + 0.5)
		if bar < 1 && p.MaxTenants > 0 {
			bar = 1
		}
		detail := fmt.Sprintf("peak %d, %d probes", p.PeakAtMax, p.Probes)
		if p.Seeds > 1 {
			detail = fmt.Sprintf("band %d-%d over %d seeds, %s", p.TenantsLo, p.TenantsHi, p.Seeds, detail)
		}
		if p.FallbackScan {
			detail += ", fallback scan"
		}
		fmt.Fprintf(&sb, "rate %.2f %s %d tenants (%s)\n",
			p.ChurnRate, strings.Repeat("█", bar), p.MaxTenants, detail)
	}
	return sb.String()
}
