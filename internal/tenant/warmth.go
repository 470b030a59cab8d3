package tenant

import "math"

// DefaultWarmthHalfLifeBytes is the shadow-cache warmth half-life every
// replay uses: a tenant's warmth on a core halves after the core serves
// 4 KiB of other tenants' log. Like DefaultDeadlineCycles it is a design
// constant, not a derived quantity: a few KiB is the scale at which one
// tenant's shadow working set is evicted from a lifeguard core's private
// cache by another tenant's records.
const DefaultWarmthHalfLifeBytes = 4 << 10

// DefaultWarmthIdleHalfLifeCycles is the wall-clock warmth half-life
// every replay uses: every tenant's warmth on a core halves across 32Ki
// cycles the core sits idle. Idle decay only applies to churned replays
// (see warmthModel.idleDecay); like the byte half-life it is a design
// constant — the scale at which OS and sibling-workload activity evicts
// an unserved shadow working set.
const DefaultWarmthIdleHalfLifeCycles = 32 << 10

// factorCacheBits bounds the precomputed gain/decay factor table. Records
// are at most a few hundred compressed bits, so in practice every serve
// hits the table; larger sizes fall back to computing the factor directly.
const factorCacheBits = 4096

// defaultFactors is the factor table at DefaultWarmthHalfLifeBytes,
// shared read-only by every replay. It is a package-level array, so it
// lives in the binary's data segment, not on the heap.
var defaultFactors = factorTable(DefaultWarmthHalfLifeBytes)

// factorTable computes the gain/decay factor f = 1 - 2^(-bits/(8*halfLife))
// for every record size below factorCacheBits. math.Exp2 is deterministic,
// so a table entry is bit-identical to computing the factor on the spot.
func factorTable(halfLife float64) (t [factorCacheBits]float64) {
	for bits := range t {
		t[bits] = 1 - math.Exp2(-float64(bits)/(8*halfLife))
	}
	return t
}

// warmthModel tracks per-core, per-tenant shadow-cache warmth for one
// replay. A lifeguard core is only fast on a tenant whose shadow-memory
// working set is resident; the model abstracts residency to a bounded
// warmth value in [0, 1]:
//
//   - serving b bytes of tenant t on core c moves t's warmth toward 1
//     with the configured half-life (w += (1-w) * f, f = 1 - 2^(-b/H));
//   - the same service evicts every other tenant u on c by the same
//     factor (w *= 2^(-b/H)).
//
// Because the gain and the decay share one factor, the per-core warmth
// total obeys sum' = sum*(1-f) + f: starting from 0 it converges toward 1
// and never exceeds it — one core holds at most one working set's worth
// of warmth. That bound is the warmth-conservation invariant the fuzz and
// property tiers assert.
//
// On a fixed tenant set warmth depends only on the record-to-core
// assignment and record sizes, never on the clock, so a timing change (a
// migration penalty, a policy's cost projection) cannot feed back into
// the warmth trajectory of a fixed assignment sequence — which is what
// makes the penalty-monotonicity invariant provable for fixed-assignment
// policies like round-robin. Churned replays give up that clock
// independence deliberately: a departed tenant's cores sit idle in wall
// time, and freezing every resident tenant's warmth across the vacancy
// overstates affinity's win, so the replay calls idleDecay for the idle
// span before a serve lands on a core (gated on the churned flag, which
// keeps fixed-set trajectories — and the fixed-set provability argument —
// exactly as before).
//
// serve runs once per replayed record, so the model is written for the
// hot path: warmth lives in one flat row-major [core*stride+tenant] slice
// (one allocation, cache-friendly row walks), and the 2^(-b/H) factor —
// a transcendental that profiling showed dominating the whole replay — is
// precomputed per record size in defaultFactors. math.Exp2 is
// deterministic, so a table entry is bit-identical to recomputing it and
// results cannot change; reset lets a replay arena reuse the slices run
// over run.
type warmthModel struct {
	halfLife     float64                   // bytes of foreign service that halve a warmth
	idleHalfLife float64                   // idle cycles that halve a warmth (churned replays)
	factors      *[factorCacheBits]float64 // gain/decay factor by record bits, at halfLife
	warm         []float64                 // row-major [core*stride + tenant] warmth in [0, 1]
	stride       int                       // tenants per row
	lastCore     []int                     // [tenant] core that served the tenant last, -1 if none
	lastTen      []int                     // [core] tenant served most recently, -1 if none
}

func newWarmthModel(cores, tenants int) *warmthModel {
	m := &warmthModel{}
	m.reset(cores, tenants)
	return m
}

// reset re-dimensions the model for a replay of cores x tenants at the
// default half-lives and clears every warmth, reusing the backing slices
// when they are large enough.
func (m *warmthModel) reset(cores, tenants int) {
	m.halfLife = DefaultWarmthHalfLifeBytes
	m.idleHalfLife = DefaultWarmthIdleHalfLifeCycles
	m.factors = &defaultFactors
	m.stride = tenants
	m.warm = resetFloats(m.warm, cores*tenants)
	m.lastCore = resetInts(m.lastCore, tenants, -1)
	m.lastTen = resetInts(m.lastTen, cores, -1)
}

// resetFloats returns a zeroed float slice of length n, reusing s's
// backing array when it is large enough.
func resetFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// resetInts returns an int slice of length n filled with v, reusing s's
// backing array when it is large enough.
func resetInts(s []int, n, v int) []int {
	if cap(s) < n {
		s = make([]int, n)
	} else {
		s = s[:n]
	}
	for i := range s {
		s[i] = v
	}
	return s
}

// setHalfLives replaces the default half-lives with the non-zero ones
// given: the replay's test seam (replayOpts) for short-lived warmth.
// Production replays pass zeros, which change nothing.
func (m *warmthModel) setHalfLives(halfLifeBytes, idleHalfLifeCycles uint64) {
	if halfLifeBytes > 0 {
		m.halfLife = float64(halfLifeBytes)
		t := factorTable(m.halfLife)
		m.factors = &t
	}
	if idleHalfLifeCycles > 0 {
		m.idleHalfLife = float64(idleHalfLifeCycles)
	}
}

// factor returns the gain/decay factor f = 1 - 2^(-bits/(8*halfLife)),
// from the table for every record size it covers.
func (m *warmthModel) factor(bits uint64) float64 {
	if bits < factorCacheBits {
		return m.factors[bits]
	}
	return 1 - math.Exp2(-float64(bits)/(8*m.halfLife))
}

// warmth returns the tenant's warmth on the core.
func (m *warmthModel) warmth(core, tenant int) float64 { return m.warm[core*m.stride+tenant] }

// lastTenant returns the tenant the core served most recently (-1 if the
// core is untouched).
func (m *warmthModel) lastTenant(core int) int { return m.lastTen[core] }

// serve records that the core consumed bits of the tenant's log: the
// tenant warms toward 1, every co-resident tenant decays, and the
// tenant's last-core pointer advances. It reports whether this serve was
// a migration — the tenant's previous record went to a different core.
func (m *warmthModel) serve(core, tenant int, bits uint64) (migrated bool) {
	f := m.factor(bits)
	d := 1 - f
	row := m.warm[core*m.stride : core*m.stride+m.stride]
	// Split at the served tenant so the decay walks run branch-free; the
	// float expressions are unchanged, so the trajectory is bit-identical
	// to the single branchy loop.
	for u := range row[:tenant] {
		row[u] *= d
	}
	row[tenant] += (1 - row[tenant]) * f
	for u := tenant + 1; u < len(row); u++ {
		row[u] *= d
	}
	migrated = m.lastCore[tenant] >= 0 && m.lastCore[tenant] != core
	m.lastCore[tenant] = core
	m.lastTen[core] = tenant
	return migrated
}

// idleDecay ages every tenant's warmth on a core that sat idle for the
// given wall-clock span: the whole row decays by 2^(-idle/idleHalfLife).
// The replay calls it only on churned replays (see the model doc), from
// both dispatch paths with identical float operations, immediately before
// a serve lands on a core whose last finish predates the record — so the
// migration charge prices the post-vacancy warmth. A uniform scale can
// only lower the per-core warmth total, preserving the conservation
// invariant (sum <= 1), and it never reorders tenants within the row.
func (m *warmthModel) idleDecay(core int, idle uint64) {
	g := math.Exp2(-float64(idle) / m.idleHalfLife)
	row := m.warm[core*m.stride : core*m.stride+m.stride]
	for u := range row {
		row[u] *= g
	}
}

// release evicts a departed tenant's shadow working set: its warmth on
// every core drops to zero (the vacancy decay — a released channel's
// shadow lines are dead and the next tenant's service overwrites them)
// and any last-tenant pointers at it reset. Releasing only ever lowers
// per-core warmth totals, so the conservation invariant (sum <= 1) is
// preserved, and it never touches other tenants' warmth, so a replay
// without departures cannot observe it.
func (m *warmthModel) release(tenant int) {
	cores := len(m.warm) / m.stride
	for c := 0; c < cores; c++ {
		m.warm[c*m.stride+tenant] = 0
		if m.lastTen[c] == tenant {
			m.lastTen[c] = -1
		}
	}
	m.lastCore[tenant] = -1
}

// snapshot copies the warmth matrix for results and invariant checks.
func (m *warmthModel) snapshot() [][]float64 {
	cores := len(m.warm) / m.stride
	out := make([][]float64, cores)
	for c := range out {
		out[c] = append([]float64(nil), m.warm[c*m.stride:c*m.stride+m.stride]...)
	}
	return out
}

// migrationCharge is the extra lifeguard cost of serving a record on a
// core at the given warmth: the full penalty on a stone-cold core, zero on
// a fully warm one, linear in the missing warmth between. It is the single
// place timing touches the warmth model, so a zero penalty makes the whole
// model timing-neutral.
func migrationCharge(penalty uint64, warmth float64) uint64 {
	cold := 1 - warmth
	if cold < 0 {
		cold = 0
	}
	x := float64(penalty) * cold
	// Branch-on-magnitude rounding, equal to math.Round(x) bit for bit:
	// for x in [0, 2^52), x+0.5 is exactly representable (no double
	// rounding), truncation of a non-negative value is floor, and
	// half-away-from-zero equals half-up, so trunc(x+0.5) == Round(x);
	// at or beyond 2^52 a float64 has no fractional part, so Round
	// returns x unchanged and uint64(x) is the identical conversion
	// uint64(math.Round(x)) performs (TestMigrationCharge pins the two
	// equal across both branches). The int64 conversion
	// is a single instruction where math.Round is a library call, and
	// avoiding any call here keeps the whole function within the
	// compiler's inlining budget — it runs once per replayed record plus
	// once per core in the deadline/affinity projections, so both
	// distinctions are measurable. A zero penalty falls through to x == 0
	// and returns 0, as before.
	if x < 1<<52 {
		return uint64(int64(x + 0.5))
	}
	return uint64(x)
}
