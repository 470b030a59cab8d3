package tenant

// This file is the scheduler half of the replay fast path: the built-in
// policies' run methods (BeginRun, PickNext and WarmthSensitive of the
// Scheduler contract), which amortise ranking work over a *run* of
// consecutive records from one tenant, plus the incremental rank
// structures (a maintained core order, a frozen-rivals virtual-time rank)
// they use. The replay half — run discovery in the virtual-time merge —
// lives in pool.go, and runBatched there is the only merge loop outside
// the tests. The per-record reference lives in the tests
// (reference_test.go) and calls only Pick; it is the differential oracle
// the run methods are pinned against, byte for byte, by
// TestBatchedDispatchMatchesPerRecord.

// coreOrder maintains the pool's cores sorted ascending by
// (FreeAt, index) — the order earliestFree and coreByRank's selection
// scan traverse — across scheduler picks. Only a picked core's FreeAt
// ever changes (it grows to the record's finish), so after each pick the
// order is repaired by bubbling that single core rightward: O(cores)
// worst case against the O(cores²) selection scan of the per-record
// path, and O(1) when the core stays put.
type coreOrder struct {
	order []int
	// pending is the index *into order* of the last pick, whose FreeAt
	// may have grown since; -1 when the order is clean.
	pending int
}

// sync brings the order up to date with cores: a full (re)build when the
// pool changed shape, otherwise a single rightward bubble of the pending
// core.
func (o *coreOrder) sync(cores []CoreView) {
	if len(o.order) != len(cores) {
		o.order = resetInts(o.order[:0], len(cores), 0)
		for i := range o.order {
			o.order[i] = i
		}
		// Insertion sort by (FreeAt, index); pools are a handful of cores.
		for i := 1; i < len(o.order); i++ {
			for j := i; j > 0 && coreLess(cores, o.order[j], o.order[j-1]); j-- {
				o.order[j], o.order[j-1] = o.order[j-1], o.order[j]
			}
		}
		o.pending = -1
		return
	}
	if o.pending < 0 {
		return
	}
	// The pending core's FreeAt only ever grows: bubble it right.
	for j := o.pending; j+1 < len(o.order) && coreLess(cores, o.order[j+1], o.order[j]); j++ {
		o.order[j], o.order[j+1] = o.order[j+1], o.order[j]
	}
	o.pending = -1
}

// at returns the pos-th core in ascending (FreeAt, index) order and
// remembers it as pending for the next sync.
func (o *coreOrder) at(pos int) int {
	o.pending = pos
	return o.order[pos]
}

// atWarm returns the pos-th core in ascending (FreeAt, Warmth descending,
// index) order — coreViewLess's warm order — given an order maintained on
// (FreeAt, index). FreeAt is the primary key of both orders, so positions
// partition into the same equal-FreeAt groups; the warmth tie-break only
// permutes cores *within* the group containing pos, and the group members
// sit index-ascending in the maintained order. The group is scanned by
// selection exactly like coreByRank's per-record walk, so the two paths
// pick the same core from the same views.
func (o *coreOrder) atWarm(pos int, cores []CoreView) int {
	lo, hi := pos, pos+1
	f := cores[o.order[pos]].FreeAt
	for lo > 0 && cores[o.order[lo-1]].FreeAt == f {
		lo--
	}
	for hi < len(o.order) && cores[o.order[hi]].FreeAt == f {
		hi++
	}
	if hi-lo == 1 {
		o.pending = pos
		return o.order[pos]
	}
	group := o.order[lo:hi]
	prev, pick := -1, -1
	for k := lo; ; k++ {
		best := -1
		for _, c := range group {
			if c == prev || (prev >= 0 && warmTieLess(cores, c, prev)) {
				continue // selected in an earlier round
			}
			if best < 0 || warmTieLess(cores, c, best) {
				best = c
			}
		}
		if k == pos {
			pick = best
			break
		}
		prev = best
	}
	// pending must be the pick's true position in the maintained order —
	// the bubble repair starts there — which within a tie group is not
	// necessarily pos.
	for q := range group {
		if group[q] == pick {
			o.pending = lo + q
			break
		}
	}
	return pick
}

// warmTieLess orders cores of one equal-FreeAt tie group: warmest first,
// ties toward the lowest index — coreViewLess with the FreeAt key equal.
func warmTieLess(cores []CoreView, a, b int) bool {
	if cores[a].Warmth != cores[b].Warmth {
		return cores[a].Warmth > cores[b].Warmth
	}
	return a < b
}

// coreLess orders core indices by (FreeAt, index) ascending — the exact
// tie-break earliestFree and coreByRank use.
func coreLess(cores []CoreView, a, b int) bool {
	if cores[a].FreeAt != cores[b].FreeAt {
		return cores[a].FreeAt < cores[b].FreeAt
	}
	return a < b
}

// rankEntry is one frozen rival in a vtimeTracker snapshot.
type rankEntry struct {
	tier  int // 0 for pure-WFQ ordering
	vtime float64
	idx   int
}

// rankLess orders entries lexicographically by (tier, vtime, index) —
// priority's strict order; wfq uses it with every tier equal.
func rankLess(a, b rankEntry) bool {
	if a.tier != b.tier {
		return a.tier < b.tier
	}
	if a.vtime != b.vtime {
		return a.vtime < b.vtime
	}
	return a.idx < b.idx
}

// vtimeTracker computes the running tenant's service rank incrementally
// across a run. BeginRun snapshots every *rival* (active tenant other
// than the runner) sorted by (tier, vtime, index); within the run rivals
// are frozen while the runner's virtual time only grows, so its rank —
// the count of rivals strictly ahead of it — advances monotonically and
// each PickNext costs O(1) amortised instead of the per-record path's
// O(tenants) rescan.
type vtimeTracker struct {
	rivals []rankEntry
	pos    int // rivals[:pos] are ahead of the runner
	self   rankEntry

	// vt caches each tenant's virtual time so begin does not divide per
	// rival. A tenant's vtime only changes while it is the runner (every
	// serve flows through this scheduler), so refreshing the *previous*
	// run's tenant on entry keeps every cached value exact: it is the
	// same ServedBits/Weight division vtime() would do, just done once
	// per run instead of once per rival per run.
	vt      []float64
	lastRun int // tenant of the previous run, -1 before the first
}

// begin snapshots the rivals of tenant t. tiered selects priority's
// (tier, vtime, index) order; wfq passes false and every tier reads 0.
func (k *vtimeTracker) begin(t int, tenants []TenantView, tiered bool) {
	if len(k.vt) != len(tenants) {
		k.vt = make([]float64, len(tenants)) // zero vtimes: nothing served yet
		k.lastRun = -1
	}
	if k.lastRun >= 0 {
		k.vt[k.lastRun] = tenants[k.lastRun].vtime()
	}
	k.lastRun = t
	k.rivals = k.rivals[:0]
	for i := range tenants {
		if i == t {
			continue
		}
		v := &tenants[i]
		if v.Done || v.Absent {
			continue
		}
		e := rankEntry{vtime: k.vt[i], idx: i}
		if tiered {
			e.tier = v.Tier
		}
		k.rivals = append(k.rivals, e)
	}
	for i := 1; i < len(k.rivals); i++ {
		for j := i; j > 0 && rankLess(k.rivals[j], k.rivals[j-1]); j-- {
			k.rivals[j], k.rivals[j-1] = k.rivals[j-1], k.rivals[j]
		}
	}
	k.self = rankEntry{idx: t}
	if tiered {
		k.self.tier = tenants[t].Tier
	}
	k.pos = 0
}

// rank returns the runner's current rank and the active tenant count,
// advancing the frozen-rivals cursor past everyone now ahead of it.
func (k *vtimeTracker) rank(self *TenantView) (rank, active int) {
	k.self.vtime = self.vtime()
	for k.pos < len(k.rivals) && rankLess(k.rivals[k.pos], k.self) {
		k.pos++
	}
	return k.pos, len(k.rivals) + 1
}

// --- Run methods of the built-in policies -------------------------------

// roundRobin's rotation ignores every view, so the batch path is the
// per-record decision with the refresh overhead skipped.
func (r *roundRobin) BeginRun(int, []CoreView, []TenantView) {}

func (r *roundRobin) PickNext(req Request, cores []CoreView, tenants []TenantView) int {
	return r.Pick(req, cores, tenants)
}

func (*roundRobin) WarmthSensitive() bool { return false }

func (l *leastLag) BeginRun(int, []CoreView, []TenantView) {}

func (l *leastLag) PickNext(_ Request, cores []CoreView, _ []TenantView) int {
	// The previous pick's FreeAt update lands after PickNext returns, so
	// the order is repaired on entry, not on commit.
	l.ord.sync(cores)
	return l.ord.at(0)
}

func (*leastLag) WarmthSensitive() bool { return false }

func (w *wfq) BeginRun(t int, _ []CoreView, tenants []TenantView) {
	w.rank.begin(t, tenants, false)
}

func (w *wfq) PickNext(req Request, cores []CoreView, tenants []TenantView) int {
	w.ord.sync(cores)
	rank, active := w.rank.rank(&tenants[req.Tenant])
	pos := rankPos(rank, active, len(cores))
	if w.penalty > 0 {
		return w.ord.atWarm(pos, cores)
	}
	return w.ord.at(pos)
}

// WarmthSensitive gates the replay's warmth upkeep on the tie-break
// actually being live: at penalty zero wfq never reads CoreView.Warmth.
func (w *wfq) WarmthSensitive() bool { return w.penalty > 0 }

func (p *priority) BeginRun(t int, _ []CoreView, tenants []TenantView) {
	p.rank.begin(t, tenants, true)
}

func (p *priority) PickNext(req Request, cores []CoreView, tenants []TenantView) int {
	p.ord.sync(cores)
	rank, active := p.rank.rank(&tenants[req.Tenant])
	pos := rankPos(rank, active, len(cores))
	if p.penalty > 0 {
		return p.ord.atWarm(pos, cores)
	}
	return p.ord.at(pos)
}

// WarmthSensitive mirrors wfq's penalty gate.
func (p *priority) WarmthSensitive() bool { return p.penalty > 0 }

// deadline and affinity rank cores by projected finish, which prices the
// migration charge from CoreView.Warmth — so they are always warmth
// sensitive: the replay keeps the warmth views exact (see the Scheduler
// doc) and the per-record decision logic runs unchanged.

func (deadline) BeginRun(int, []CoreView, []TenantView) {}

func (d deadline) PickNext(req Request, cores []CoreView, tenants []TenantView) int {
	return d.Pick(req, cores, tenants)
}

func (deadline) WarmthSensitive() bool { return true }

func (a *affinity) BeginRun(int, []CoreView, []TenantView) {}

func (a *affinity) PickNext(req Request, cores []CoreView, tenants []TenantView) int {
	return a.Pick(req, cores, tenants)
}

func (*affinity) WarmthSensitive() bool { return true }

// rankPos maps a service rank onto a position in the ascending core
// order — the closed form of coreByRank's placement rule.
func rankPos(rank, active, cores int) int {
	if active <= 1 || cores == 1 {
		return 0
	}
	pos := rank * (cores - 1) / (active - 1)
	if pos >= cores {
		pos = cores - 1
	}
	return pos
}
