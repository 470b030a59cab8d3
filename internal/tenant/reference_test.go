package tenant

import (
	"context"
	"fmt"

	"repro/internal/logbuf"
)

// This file is the per-record reference replay: the differential oracle
// the production replay (ReplayPool, runBatched) is pinned deep-equal
// against. It replays one scheduler Pick per record with a full view
// refresh and re-ranking from scratch — the code shape the replay had
// before the batched fast path existed — through the production setup,
// cancellation check and finish, on a brand-new arena and fresh channels,
// so it never reuses a buffer.

// replayReference is the per-record reference replay of a single,
// unsharded pool, in ReplayPool's signature. A pool asking for two or
// more shards is rejected: static partitioning is a different scheduling
// point, with no per-record reference.
func replayReference(ctx context.Context, profiles []*Profile, pool PoolConfig) (*PoolResult, error) {
	if err := pool.Validate(); err != nil {
		return nil, err
	}
	if pool.Shards > 1 {
		return nil, fmt.Errorf("tenant: the per-record reference replays one pool, got Shards %d", pool.Shards)
	}
	return runReference(ctx, profiles, pool, replayOpts{})
}

// runReference is replayMode with runPerRecord in place of runBatched,
// and a brand-new arena and channels in place of pooled ones.
func runReference(ctx context.Context, profiles []*Profile, pool PoolConfig, opts replayOpts) (*PoolResult, error) {
	var r replayer
	if err := r.start(ctx, profiles, pool, opts, new(replayArena)); err != nil {
		return nil, err
	}
	for i := range r.states {
		ts := &r.states[i]
		logbuf.Put(ts.ch)
		ts.ch = logbuf.New(ts.prof.Tenant.Config.Channel)
	}
	return r.end(r.runPerRecord())
}

// commit lands a scheduling decision: charge the migration cost of the
// chosen core's coldness, then warm it — the record lands in whatever
// shadow state the core has *before* this serve, aged first by any idle
// vacancy on a churned replay (warmthModel.idleDecay; fixed-set warmth
// stays purely assignment-driven, never clock-driven), so a zero penalty
// leaves timing bit-for-bit unchanged. This is the reference form of the
// per-record accounting: runBatched carries a hand-inlined copy (fused
// warmth pass, hoisted state) that must stay in lockstep with it, and the
// differential dispatch test pins the two byte-identical. Only
// runPerRecord calls it.
func (r *replayer) commit(ti, core int, now uint64, req Request) error {
	if core < 0 || core >= r.pool.Cores {
		return fmt.Errorf("tenant: scheduler %s picked core %d of %d", r.sched.Name(), core, r.pool.Cores)
	}
	ts := &r.states[ti]
	if r.churned && now > r.cores[core].FreeAt {
		r.warmth.idleDecay(core, now-r.cores[core].FreeAt)
	}
	charge := migrationCharge(r.pool.MigrationPenalty, r.warmth.warmth(core, ti))
	migrated := r.warmth.serve(core, ti, req.Bits)
	cost := req.Cost + charge
	stall, finish := ts.ch.ProduceAt(now, req.Bits, cost, r.cores[core].FreeAt)
	ts.offset += stall
	r.cores[core].FreeAt = finish
	r.busy[core] += cost
	ts.lags.add(finish - now)

	v := &r.views[ti]
	v.Records++
	v.ServedBits += req.Bits
	v.ServedCost += cost
	v.LastLagCycles = finish - now
	if r.pool.MigrationPenalty > 0 {
		if migrated {
			v.Migrations++
		}
		v.ColdServeCycles += charge
	}
	v.Done = ts.done()
	if ts.depart != 0 {
		r.retire(ti) // only departing tenants can retire; skip the call otherwise
	}
	if r.opts.obs != nil {
		r.opts.obs(ti, core, req, charge, finish)
	}
	return nil
}

// runPerRecord is the reference merge loop: one full O(tenants) scan and
// one scheduler Pick (with a full view refresh) per record — the code
// shape the replay had before the batched fast path existed.
func (r *replayer) runPerRecord() error {
	for {
		// Merge by adjusted production time; ties break toward the lowest
		// tenant index, and a tenant's own steps stay strictly in order.
		ti := -1
		var tmin uint64
		for i := range r.states {
			ts := &r.states[i]
			if ts.done() {
				continue
			}
			if n := ts.next(); ti < 0 || n < tmin {
				ti, tmin = i, n
			}
		}
		if ti < 0 {
			return nil
		}
		ts := &r.states[ti]
		s := ts.cur.head()
		ts.cur.advance()
		// A refill just reset the cursor to the window's start: the
		// once-per-window cancellation point.
		if ts.cur.pos == 0 && r.cancelled() {
			return r.ctx.Err()
		}
		now := s.cycle + ts.arrive + ts.offset
		if r.arrivals < len(r.agenda) {
			r.flipArrivals(now)
		}
		if s.bits == drainMark {
			// Syscall containment: this tenant waits for its own channel
			// only; other tenants are unaffected (per-application
			// containment, as in the paper).
			ts.offset += ts.ch.Drain(now)
			r.views[ti].Done = ts.done()
			if ts.depart != 0 {
				r.retire(ti)
			}
			continue
		}
		r.refresh(ti)
		req := Request{Tenant: ti, Ready: now, Bits: uint64(s.bits), Cost: uint64(s.cost)}
		if err := r.commit(ti, r.sched.Pick(req, r.cores, r.views), now, req); err != nil {
			return err
		}
	}
}

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
