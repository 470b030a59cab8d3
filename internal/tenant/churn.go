package tenant

import (
	"fmt"
	"math"
)

// SeedStride separates the workload seeds of repeated-seed replications
// (admission confidence bands, lbasim -seeds): replication k runs at
// Seed + k*SeedStride. The stride is large so replication seeds cannot
// collide with FromSuite's per-round +1 offsets below about nine million
// tenants (nine suite benchmarks a round).
const SeedStride = 1_000_003

// Churn describes a rolling tenant population for planning sweeps: instead
// of the whole set arriving at cycle 0 and staying forever, successive
// tenants arrive Rate*Horizon cycles apart and each departs one Horizon
// after its arrival. Rate is therefore the arrival spacing in units of a
// tenant lifetime: at Rate 1 tenant i+1 arrives as tenant i's window ends
// (peak concurrency ~1 regardless of the population size), at Rate 0.5 two
// windows overlap, and at Rate 0 churn is off — ApplyChurn is a strict
// no-op and the set replays exactly like a fixed population.
type Churn struct {
	// Rate spaces successive arrivals by Rate*Horizon cycles (>= 0,
	// finite; 0 disables churn).
	Rate float64 `json:"rate"`
	// Horizon is the nominal tenant lifetime in cycles. 0 derives it from
	// the tenant's workload scale (instructions =~ cycles at CPI 1), which
	// keeps one Rate meaningful across scales.
	Horizon uint64 `json:"horizon,omitempty"`
}

// On reports whether the spec describes any churn at all.
func (c Churn) On() bool { return c.Rate > 0 }

// validate rejects rates outside the model: negative spacing would mean
// tenants arriving before the simulation starts.
func (c Churn) Validate() error {
	if c.Rate < 0 || math.IsInf(c.Rate, 0) || math.IsNaN(c.Rate) {
		return fmt.Errorf("tenant: churn rate %g must be >= 0 and finite", c.Rate)
	}
	return nil
}

// ApplyChurn returns the tenant set with arrival/departure windows laid
// out per the churn spec: tenant i arrives at i*Rate*Horizon and departs
// one Horizon after arriving (stop producing, drain, release the
// channel). With Rate 0 the input is returned unchanged, so a disabled
// churn spec cannot perturb a fixed-set replay. The input slice is not
// modified.
func ApplyChurn(tenants []Tenant, c Churn) ([]Tenant, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if !c.On() {
		return tenants, nil
	}
	// Windows live comfortably below 2^62 cycles, leaving headroom for
	// the arrive+horizon sum and every downstream cycle addition; a
	// larger product would overflow the uint64 conversion silently
	// (implementation-defined in Go), so it is rejected instead.
	const maxWindowCycle = float64(1) * (1 << 62)
	out := make([]Tenant, len(tenants))
	for i, t := range tenants {
		h := c.Horizon
		if h == 0 {
			if t.Workload.Scale <= 0 {
				return nil, fmt.Errorf("tenant: churn needs an explicit horizon or a positive workload scale (tenant %q has scale %d)",
					t.Name, t.Workload.Scale)
			}
			h = uint64(t.Workload.Scale)
		}
		shift := c.Rate * float64(h) * float64(i)
		if shift > maxWindowCycle || float64(h) > maxWindowCycle {
			return nil, fmt.Errorf("tenant: churn window for tenant %d overflows the cycle range (rate %g over horizon %d)",
				i, c.Rate, h)
		}
		t.ArriveAt = uint64(shift + 0.5)
		t.DepartAfter = t.ArriveAt + h
		out[i] = t
	}
	return out, nil
}

// validateWindow rejects malformed per-tenant churn windows. DepartAfter
// is an absolute virtual cycle (0 means the tenant never departs), so a
// non-zero departure at or before the arrival is an empty or inverted
// active window.
func (t Tenant) validateWindow() error {
	if t.DepartAfter > 0 && t.DepartAfter <= t.ArriveAt {
		return fmt.Errorf("tenant %q departs at cycle %d, at or before its arrival at %d",
			t.Name, t.DepartAfter, t.ArriveAt)
	}
	return nil
}
