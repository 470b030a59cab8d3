package tenant

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/logbuf"
	"repro/internal/prog"
)

// drainMark distinguishes a syscall-containment step from a record step
// in a timeline. Record sizes are bounded far below it (a record is at
// most a few hundred compressed bits); the capture boundary enforces that
// bound explicitly (see the width contract in timeline.go) instead of
// trusting it.
const drainMark = ^uint32(0)

// step is one timed entry of a tenant's uncontended timeline: a produced
// record (bits, cost) or a syscall drain point (bits == drainMark). Steps
// are appended in true execution order and replayed strictly in order;
// cycles are non-decreasing because the application clock is monotonic.
type step struct {
	cycle uint64
	bits  uint32
	cost  uint32
}

// Profile is a tenant's uncontended LBA execution: the production
// timeline plus everything timing-independent. Profiles are shared
// through the engine's memoization cache and must be treated as
// immutable — replay reads them concurrently. The timeline is held in
// its compact segment encoding (see timeline.go), not as a live []step:
// the memo cache stays O(encoded bytes) and replay decodes through
// bounded windows.
type Profile struct {
	Tenant Tenant
	tl     Timeline
	// Result is the uncontended LBA run (functional outcome, app cycles
	// without transport stalls, lifeguard busy cycles, log volume). Its
	// WallCycles are app-only: the channel is applied at replay time.
	Result *core.Result
	// Base is the unmonitored baseline, the slowdown denominator.
	Base *core.Result
	// DedicatedWall is the tenant's wall clock when served by a dedicated
	// lifeguard core (its timeline replayed through a private channel with
	// no pool floor) — the contention-factor denominator. By the
	// decomposition contract it equals core.RunLBA's WallCycles.
	DedicatedWall uint64

	// ready is closed once Result, Base and DedicatedWall hold their final
	// values; it is nil for every finished profile. Only the profiles
	// Engine.RunPool replays while they are still being recorded carry
	// one (their tl is a streamTimeline), and those never leave RunPool.
	ready chan struct{}
}

// complete returns p once its producer has filled Result, Base and
// DedicatedWall: at once for a finished profile, after the wait for one
// still being recorded. The replay reads those fields only through it.
// A profile whose producer failed completes with zero-valued results,
// after the replay's context has been cancelled, so whatever the replay
// computes from them is discarded.
func (p *Profile) complete() *Profile {
	if p.ready != nil {
		<-p.ready
	}
	return p
}

// Steps reports the timeline length (records + drain points).
func (p *Profile) Steps() int {
	if p.tl == nil {
		return 0
	}
	return p.tl.Len()
}

// TimelineBytes reports the resident size of the timeline's encoded form
// (typically ~3 B/step for the segment encoding, 0 for generator-backed
// synthetic timelines).
func (p *Profile) TimelineBytes() int {
	if t, ok := p.tl.(*segTimeline); ok {
		return t.EncodedBytes()
	}
	return 0
}

// recorder implements core.TransportObserver by encoding steps into
// timeline segments as they arrive, and computes the dedicated-core wall
// online: each step also goes through a private channel with no pool
// floor, exactly as dedicatedWall would replay it after the run, so the
// finished profile needs no second walk of its timeline. The observer
// interface cannot return errors, so width-contract violations latch
// into err and profiling fails when buildProfile checks it: a record
// whose compressed size reached drainMark would otherwise be misread as a
// syscall drain at replay, and an over-wide cost would silently wrap (the
// bug this replaces narrowed both with unchecked uint32 conversions).
type recorder struct {
	enc   timelineEncoder
	clock dedicatedClock // over a pooled channel (logbuf.Get)
	err   error
}

// newRecorder returns a recorder whose dedicated clock runs on a pooled
// channel configured as cfg; out, when non-nil, receives every flushed
// segment. finish or release returns the channel.
func newRecorder(cfg logbuf.Config, out *streamTimeline) *recorder {
	return &recorder{enc: timelineEncoder{out: out}, clock: dedicatedClock{ch: logbuf.Get(cfg)}}
}

func (r *recorder) Record(appCycle, bits, lgCost uint64) {
	if r.err != nil {
		return
	}
	if bits > maxStepBits {
		r.err = fmt.Errorf("tenant: record at app cycle %d is %d bits; the step encoding carries at most %d (drain sentinel reserved)", appCycle, bits, maxStepBits)
		return
	}
	if lgCost > maxStepCost {
		r.err = fmt.Errorf("tenant: record at app cycle %d costs %d lifeguard cycles; the step encoding carries at most %d", appCycle, lgCost, maxStepCost)
		return
	}
	r.add(step{cycle: appCycle, bits: uint32(bits), cost: uint32(lgCost)})
}

func (r *recorder) Syscall(appCycle uint64) {
	if r.err != nil {
		return
	}
	r.add(step{cycle: appCycle, bits: drainMark})
}

// add encodes s and advances the dedicated clock by it.
func (r *recorder) add(s step) {
	if r.err = r.enc.append(s); r.err == nil {
		r.clock.step(s)
	}
}

// finish closes the recording of a run whose app clock ended at
// appCycles: the timeline and its dedicated-core wall. It releases the
// channel.
func (r *recorder) finish(appCycles uint64) (*segTimeline, uint64) {
	wall := r.clock.wall(appCycles)
	r.release()
	return r.enc.finish(), wall
}

// release returns the channel to the pool.
func (r *recorder) release() {
	if r.clock.ch != nil {
		logbuf.Put(r.clock.ch)
		r.clock.ch = nil
	}
}

// buildProfile runs one tenant uncontended on its built program and
// packages its timeline; out, when non-nil, receives the timeline's
// segments as they are recorded. The caller sets Base.
func buildProfile(t Tenant, program *prog.Program, out *streamTimeline) (*Profile, error) {
	rec := newRecorder(t.Config.Channel, out)
	defer rec.release()
	res, err := core.ProfileLBA(program, t.Lifeguard, t.Config, rec)
	if err != nil {
		return nil, fmt.Errorf("tenant %q: %w", t.Name, err)
	}
	if rec.err != nil {
		return nil, fmt.Errorf("tenant %q: %w", t.Name, rec.err)
	}
	tl, wall := rec.finish(res.AppCycles)
	return &Profile{Tenant: t, tl: tl, Result: res, DedicatedWall: wall}, nil
}

// SyntheticStep is one generated entry of a synthetic timeline: either a
// record (Bits, Cost) or a syscall drain point. Cycles must be
// non-decreasing in the index and Bits/Cost must respect the step width
// contract; NewSyntheticProfile validates both.
type SyntheticStep struct {
	Cycle uint64
	Bits  uint64
	Cost  uint64
	Drain bool
}

// NewSyntheticProfile wraps a generator-backed timeline in a Profile the
// replay accepts: gen(i) yields step i, n is the timeline length, pad is
// the application slack after the last step. gen must be a pure function
// of i — the timeline is re-generated on every traversal, which is what
// lets an arbitrarily long synthetic tenant occupy O(1) resident memory
// (the bench CLI's streaming section and the 100M-step memory assertion
// are built on this). The single validation pass here also derives the
// aggregate counters the result invariants check against.
func NewSyntheticProfile(name string, n int, pad uint64, gen func(i int) SyntheticStep) (*Profile, error) {
	var records, logBits, cost, last uint64
	for i := 0; i < n; i++ {
		g := gen(i)
		if g.Cycle < last {
			return nil, fmt.Errorf("tenant: synthetic step %d at cycle %d precedes step %d at cycle %d", i, g.Cycle, i-1, last)
		}
		last = g.Cycle
		if g.Drain {
			continue
		}
		if g.Bits > maxStepBits {
			return nil, fmt.Errorf("tenant: synthetic step %d is %d bits; the step encoding carries at most %d", i, g.Bits, maxStepBits)
		}
		if g.Cost > maxStepCost {
			return nil, fmt.Errorf("tenant: synthetic step %d costs %d; the step encoding carries at most %d", i, g.Cost, maxStepCost)
		}
		records++
		logBits += g.Bits
		cost += g.Cost
	}
	appCycles := last + pad
	cfg := core.DefaultConfig()
	tl := &genTimeline{n: n, gen: gen}
	return &Profile{
		Tenant: Tenant{Name: name, Benchmark: "synthetic", Config: cfg},
		tl:     tl,
		Result: &core.Result{AppCycles: appCycles, WallCycles: appCycles,
			Records: records, LogBits: logBits, LgCycles: cost},
		Base:          &core.Result{WallCycles: appCycles + 1},
		DedicatedWall: dedicatedWall(tl, cfg.Channel, appCycles),
	}, nil
}

// dedicatedWall replays a timeline through a private channel with no pool
// floor — the dedicated-core reference the contention factor divides by.
// It is the single-tenant special case of the pool replay: floor 0 and a
// one-core pool are equivalent because a lone channel's in-order
// consumption (lastFinish) already serialises its records.
func dedicatedWall(tl Timeline, cfg logbuf.Config, appCycles uint64) uint64 {
	var cur stepCursor
	cur.open(tl, make([]step, DefaultStepWindow), 0, 0)
	ch := logbuf.Get(cfg)
	defer logbuf.Put(ch)
	return dedicatedWallOn(ch, &cur, appCycles, nil)
}

// dedicatedWallOn is dedicatedWall against a caller-supplied channel and
// cursor, already configured (or Reset/opened) for the tenant.
// Retirement uses it with a pooled channel and a window from the replay's
// ring, so mid-replay departures allocate neither; the cursor's churn
// truncation is what replays a departed tenant's window exactly (raw step
// cycles — arrive shifts only the truncation point, not the dedicated
// clock). A non-nil done channel
// makes the walk abort at the next decode-window refill once it fires;
// the returned wall is then partial and MUST be discarded — replayMode
// re-checks the context before assembling any result, so a cancelled
// retirement can never leak a truncated clock into a PoolResult.
func dedicatedWallOn(ch *logbuf.Channel, cur *stepCursor, appCycles uint64, done <-chan struct{}) uint64 {
	clock := dedicatedClock{ch: ch}
	for !cur.done() {
		s := cur.head()
		cur.advance()
		if cur.pos == 0 && done != nil {
			select {
			case <-done:
				return 0
			default:
			}
		}
		clock.step(s)
	}
	return clock.wall(appCycles)
}

// dedicatedClock is a tenant's wall clock on a dedicated lifeguard core,
// advanced one timeline step at a time: the application produces into
// its private channel with no pool floor, and every stall the channel
// imposes (backpressure, a syscall drain) shifts the rest of the
// timeline. dedicatedWallOn walks a recorded timeline through one; the
// recorder advances one as it records.
type dedicatedClock struct {
	ch     *logbuf.Channel
	offset uint64 // accumulated stalls
}

func (d *dedicatedClock) step(s step) {
	now := s.cycle + d.offset
	if s.bits == drainMark {
		d.offset += d.ch.Drain(now)
		return
	}
	stall, _ := d.ch.ProduceAt(now, uint64(s.bits), uint64(s.cost), 0)
	d.offset += stall
}

// wall closes the channel at the application's final cycle and returns
// the wall clock.
func (d *dedicatedClock) wall(appCycles uint64) uint64 {
	return d.ch.Finish(appCycles + d.offset)
}
