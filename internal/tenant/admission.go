package tenant

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/workloads"
)

// AdmissionPoint answers one admission-control query: under the given
// contention SLO, how many suite tenants can this pool serve? The SLO
// bounds each tenant's *contention factor* — wall cycles over its own
// uncontended monitored run — rather than raw slowdown, because the
// lifeguard's intrinsic cost (3.9-9.7X across the suite) is not the
// pool's to control; what admission protects is the extra throttling that
// sharing introduces. The point is derived from the contention-vs-tenant-
// count envelope the planner probes, so it is a planning metric, not a
// promise — the search is over the suite's tenant mix at one workload
// scale (optionally under churn, and optionally replicated across seeds).
type AdmissionPoint struct {
	// SLO is the contention bound (e.g. 1.25 means pooling may cost any
	// tenant at most 25% over a dedicated lifeguard core).
	SLO float64
	// Cores and Policy identify the pool the query was asked of.
	Cores  int
	Policy string
	// MaxTenants is the largest tenant count in [1, Searched] whose
	// worst-tenant contention factor meets the SLO, under the
	// monotone-envelope assumption: if contention is non-decreasing in
	// the tenant count this is exactly the exhaustive scan's answer
	// (guaranteed again, via the reported fallback, whenever the probes
	// themselves disprove monotonicity — FallbackScan). An inversion
	// hiding strictly between probed counts is undetectable without the
	// full scan and can make this conservative (smaller than the scan's
	// answer); that trade is what buys the O(log N) search. 0 means even
	// a single tenant misses the SLO. With Seeds > 1 it is the *minimum*
	// admissible count across the replications (the conservative
	// planning answer); TenantsLo/TenantsHi carry the band.
	MaxTenants int
	// ContentionAtMax is the worst-tenant contention factor measured at
	// MaxTenants (0 when MaxTenants is 0), from the first seed attaining
	// the band minimum.
	ContentionAtMax float64
	// Searched is the search's upper bound: MaxTenants == Searched means
	// the pool never saturated within the search, so the true capacity
	// may be higher.
	Searched int
	// Probes counts the envelope evaluations (pool replays of one tenant
	// count) the query spent, summed across SLOs and seeds — the number a
	// linear scan would pin at Searched*Seeds.
	Probes int
	// FallbackScan reports that the sampled envelope was *non-monotone*
	// — a larger population measured strictly less worst-case contention
	// than a smaller one — so the bisection's answers were discarded and
	// recomputed by the verified full linear scan.
	FallbackScan bool
	// Seeds is the number of workload-seed replications behind the point
	// (1 when the query didn't ask for confidence bands); TenantsLo and
	// TenantsHi are the smallest and largest admissible counts any seed
	// measured. Lo == Hi == MaxTenants when Seeds == 1.
	Seeds     int
	TenantsLo int
	TenantsHi int
	// ChurnRate echoes the churn spec the populations were laid out with
	// (0 = fixed sets).
	ChurnRate float64
	// PeakAtMax is the peak channel concurrency the admitted population
	// measured when the planner probed it (0 when MaxTenants is 0; equal
	// to MaxTenants for fixed sets). It is retained from the envelope's
	// own replay, so reporting it costs nothing extra.
	PeakAtMax int
}

// Row flattens the point into the lba-runner/v1 JSON schema. Band and
// churn fields are emitted only when they carry information (Seeds > 1,
// Rate > 0, a triggered fallback), so fixed-set single-seed artifacts
// keep the schema of the linear-scan era byte for byte.
func (p AdmissionPoint) Row() runner.AdmissionPoint {
	row := runner.AdmissionPoint{
		SLOContentionX:  p.SLO,
		Cores:           p.Cores,
		Policy:          p.Policy,
		MaxTenants:      p.MaxTenants,
		ContentionAtMax: p.ContentionAtMax,
		SearchedTenants: p.Searched,
		FallbackScan:    p.FallbackScan,
		ChurnRate:       p.ChurnRate,
	}
	if p.Seeds > 1 {
		row.Seeds = p.Seeds
		row.TenantsLo = p.TenantsLo
		row.TenantsHi = p.TenantsHi
	}
	return row
}

// AdmissionQuery is the full admission-control question: the pool to ask
// it of, the SLO points to answer, the search bound, and optionally a
// churn layout for the candidate populations and a replication count for
// confidence bands.
type AdmissionQuery struct {
	Pool       PoolConfig
	SLOs       []float64
	MaxTenants int
	// Churn lays out arrival/departure windows over each candidate
	// population (ApplyChurn); the zero value plans fixed sets.
	Churn Churn
	// Seeds replicates the search across workload seeds (Seed +
	// k*SeedStride) and reports the min/max admissible band; 0 or 1 runs
	// the single base seed.
	Seeds int
}

func (q AdmissionQuery) validate() error {
	if q.MaxTenants < 1 {
		return fmt.Errorf("tenant: admission search needs MaxTenants >= 1, got %d", q.MaxTenants)
	}
	if len(q.SLOs) == 0 {
		return fmt.Errorf("tenant: admission search needs at least one SLO point")
	}
	for _, slo := range q.SLOs {
		if slo < 1 {
			return fmt.Errorf("tenant: contention SLO %g < 1 can never be met", slo)
		}
	}
	if q.Seeds < 0 {
		return fmt.Errorf("tenant: admission search needs Seeds >= 0, got %d", q.Seeds)
	}
	return q.Churn.Validate()
}

// envelope memoizes worst-contention evaluations over the tenant count
// for one seed, recording every probed point for the monotonicity check.
type envelope struct {
	eval func(n int) (float64, error)
	vals map[int]float64
}

func (env *envelope) at(n int) (float64, error) {
	if v, ok := env.vals[n]; ok {
		return v, nil
	}
	v, err := env.eval(n)
	if err != nil {
		return 0, err
	}
	env.vals[n] = v
	return v, nil
}

// monotone reports whether the probed points are consistent with a
// non-decreasing envelope: no larger population measured strictly less
// worst-case contention than a smaller one.
func (env *envelope) monotone() bool {
	ns := make([]int, 0, len(env.vals))
	for n := range env.vals {
		ns = append(ns, n)
	}
	sort.Ints(ns)
	for i := 1; i < len(ns); i++ {
		if env.vals[ns[i]] < env.vals[ns[i-1]] {
			return false
		}
	}
	return true
}

// searchAnswer is one SLO's answer from one seed's envelope search.
type searchAnswer struct {
	maxTenants int
	contention float64
}

// bisectMax returns the largest n in [1, maxN] whose envelope value meets
// slo, assuming the envelope is non-decreasing: the contention-vs-count
// curve is probed O(log maxN) times instead of maxN. With a monotone
// envelope the answer is exactly the linear scan's.
func bisectMax(env *envelope, maxN int, slo float64) (searchAnswer, error) {
	top, err := env.at(maxN)
	if err != nil {
		return searchAnswer{}, err
	}
	if top <= slo {
		return searchAnswer{maxTenants: maxN, contention: top}, nil
	}
	lo, hi := 0, maxN // invariant: f(lo) <= slo (vacuous at 0), f(hi) > slo
	var atLo float64
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		v, err := env.at(mid)
		if err != nil {
			return searchAnswer{}, err
		}
		if v <= slo {
			lo, atLo = mid, v
		} else {
			hi = mid
		}
	}
	return searchAnswer{maxTenants: lo, contention: atLo}, nil
}

// admissionSearch answers every SLO against one envelope: bisection
// first, then a verification pass over the probed points. If the probes
// reveal a non-monotone envelope, the bisection's answers are discarded
// and recomputed by the full linear scan (every count in [1, maxN]) —
// the verified fallback. Inversions strictly between probes are
// undetectable without the full scan; the monotone-envelope assumption is
// the documented trade, and the differential test tier pins agreement
// with the scan wherever the measured envelope is monotone.
func admissionSearch(env *envelope, maxN int, slos []float64) (answers []searchAnswer, fallback bool, err error) {
	answers = make([]searchAnswer, len(slos))
	for i, slo := range slos {
		answers[i], err = bisectMax(env, maxN, slo)
		if err != nil {
			return nil, false, err
		}
	}
	if env.monotone() {
		return answers, false, nil
	}
	// Verified fallback: the envelope is provably non-monotone, so redo
	// the answers the way the linear scan defines them — the largest
	// count anywhere in the range that meets the SLO.
	for n := 1; n <= maxN; n++ {
		if _, err := env.at(n); err != nil {
			return nil, true, err
		}
	}
	for i, slo := range slos {
		answers[i] = searchAnswer{}
		for n := 1; n <= maxN; n++ {
			if v := env.vals[n]; v <= slo {
				answers[i] = searchAnswer{maxTenants: n, contention: v}
			}
		}
	}
	return answers, true, nil
}

// PlanAdmissionQuery answers an admission query by monotone-envelope
// bisection: candidate populations are drawn from the suite like
// FromSuite (then churned per the query), the worst-tenant contention
// envelope over the tenant count is probed O(log MaxTenants) times per
// SLO, and a verification pass falls back to the exhaustive linear scan
// — reported via AdmissionPoint.FallbackScan — whenever the probes show
// the envelope is not monotone. The answers carry the monotone-envelope
// caveat documented on AdmissionPoint.MaxTenants: an inversion hiding
// strictly between probes cannot be detected without the full scan and
// makes the answer conservative. With Seeds > 1 the whole search is
// replicated across workload seeds and each point reports the
// min/max admissible band; the headline MaxTenants is the band minimum.
// The engine's profile cache means tenant k is profiled once across all
// populations, seeds excepted, so each probe costs only a replay.
func (e *Engine) PlanAdmissionQuery(ctx context.Context, wcfg workloads.Config, ccfg core.Config, q AdmissionQuery) ([]AdmissionPoint, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	seeds := q.Seeds
	if seeds < 1 {
		seeds = 1
	}

	probes := 0
	fallback := false
	perSeed := make([][]searchAnswer, seeds)
	// The envelope only keeps contention values, but every probe runs a
	// full replay; retain each probed population's peak concurrency on
	// the side so the points (and the churn figure) can report it
	// without replaying the admitted population again.
	perSeedPeaks := make([]map[int]int, seeds)
	for k := 0; k < seeds; k++ {
		seedCfg := wcfg
		seedCfg.Seed = wcfg.Seed + uint64(k)*SeedStride
		peaks := map[int]int{}
		perSeedPeaks[k] = peaks
		env := &envelope{
			vals: map[int]float64{},
			eval: func(n int) (float64, error) {
				set, err := FromSuite(n, seedCfg, ccfg)
				if err != nil {
					return 0, err
				}
				if set, err = ApplyChurn(set, q.Churn); err != nil {
					return 0, err
				}
				res, err := e.RunPool(ctx, set, q.Pool)
				if err != nil {
					return 0, err
				}
				peaks[n] = res.PeakConcurrency
				return res.MaxContentionX, nil
			},
		}
		answers, fell, err := admissionSearch(env, q.MaxTenants, q.SLOs)
		if err != nil {
			return nil, err
		}
		perSeed[k] = answers
		probes += len(env.vals)
		fallback = fallback || fell
	}

	points := make([]AdmissionPoint, 0, len(q.SLOs))
	for i, slo := range q.SLOs {
		pt := AdmissionPoint{
			SLO:          slo,
			Cores:        q.Pool.Cores,
			Policy:       q.Pool.Policy,
			Searched:     q.MaxTenants,
			Probes:       probes,
			FallbackScan: fallback,
			Seeds:        seeds,
			ChurnRate:    q.Churn.Rate,
		}
		if pt.Policy == "" {
			pt.Policy = PolicyLeastLag
		}
		pt.TenantsLo, pt.TenantsHi = perSeed[0][i].maxTenants, perSeed[0][i].maxTenants
		pt.ContentionAtMax = perSeed[0][i].contention
		minSeed := 0
		for k := 1; k < seeds; k++ {
			a := perSeed[k][i]
			if a.maxTenants < pt.TenantsLo {
				pt.TenantsLo, pt.ContentionAtMax = a.maxTenants, a.contention
				minSeed = k
			}
			if a.maxTenants > pt.TenantsHi {
				pt.TenantsHi = a.maxTenants
			}
		}
		pt.MaxTenants = pt.TenantsLo
		if pt.MaxTenants > 0 {
			pt.PeakAtMax = perSeedPeaks[minSeed][pt.MaxTenants]
		}
		points = append(points, pt)
	}
	return points, nil
}
