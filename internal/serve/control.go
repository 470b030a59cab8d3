package serve

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/tenant"
)

// This file is the daemon's background half: a single replay goroutine
// that re-simulates the live population through the memoized engine
// whenever membership changes. The loop owns lastResult; handlers only
// read it under the mutex. A membership change mid-replay cancels the
// in-flight replay (the satellite-1 context plumbing is what makes that
// abort land within one decode window) and the loop immediately starts
// over on the new population — a stale result is never installed.

// membershipChangedLocked marks the population dirty, aborts any replay
// now simulating a stale population, and wakes the loop. Callers hold
// s.mu.
func (s *Server) membershipChangedLocked() {
	s.bumpGenLocked()
	if s.cancelRun != nil {
		s.cancelRun()
	}
	s.kickReplay()
}

// bumpGenLocked moves popGen ahead of resultGen, opening the idle
// channel WaitIdle blocks on if it is not open already.
func (s *Server) bumpGenLocked() {
	s.popGen++
	if s.idle == nil {
		s.idle = make(chan struct{})
	}
}

// installedLocked records that a result covering generation gen is
// installed, waking WaitIdle once that is the current generation.
func (s *Server) installedLocked(gen int) {
	s.resultGen = gen
	if gen == s.popGen && s.idle != nil {
		close(s.idle)
		s.idle = nil
	}
}

// kickReplay wakes the control loop without blocking (the channel holds
// one pending wake; the loop re-checks generations anyway).
func (s *Server) kickReplay() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

func (s *Server) controlLoop() {
	defer close(s.done)
	for {
		select {
		case <-s.root.Done():
			return
		case <-s.kick:
		}
		for s.replayOnce() {
		}
	}
}

// replayOnce simulates the current population once; it reports whether
// the population moved again while it ran (the loop then goes straight
// into the next replay instead of waiting for a kick).
func (s *Server) replayOnce() bool {
	s.mu.Lock()
	gen := s.popGen
	if s.resultGen == gen {
		s.mu.Unlock()
		return false
	}
	ids := append([]int(nil), s.order...)
	pop := make([]tenant.Tenant, len(ids))
	var drainingIDs []int
	for i, id := range ids {
		lt := s.live[id]
		pop[i] = lt.tn
		if lt.draining {
			drainingIDs = append(drainingIDs, id)
		}
	}
	if len(pop) == 0 {
		// Nothing to simulate: the empty population's result is "no
		// result", and any drained tenants are already gone from order.
		s.lastResult = nil
		s.lastIDs = nil
		s.installedLocked(gen)
		s.mu.Unlock()
		return false
	}
	ctx, cancel := context.WithCancel(s.root)
	s.cancelRun = cancel
	s.mu.Unlock()

	// Draining tenants keep producing to their natural end, then drain
	// and release their channel — drain-then-release departure rather
	// than mid-flight truncation. The profile's app span is the departure
	// point past which no records exist; profiling here is a memo hit for
	// every tenant the pool has already served.
	var err error
	for i := range pop {
		if !isDraining(ids[i], drainingIDs) {
			continue
		}
		var p *tenant.Profile
		if p, err = s.eng.Profile(ctx, pop[i]); err != nil {
			break
		}
		pop[i].DepartAfter = p.Result.AppCycles
		if pop[i].DepartAfter <= pop[i].ArriveAt {
			pop[i].DepartAfter = pop[i].ArriveAt + 1
		}
	}
	var res *tenant.PoolResult
	if err == nil {
		res, err = s.eng.RunPool(ctx, pop, s.cfg.Pool)
	}
	cancel()
	// The snapshot is written before the result is installed, so a
	// WaitIdle that returns has seen its outcome, and off the lock, so
	// its fsyncs never hold up a read.
	var werr error
	if err == nil {
		werr = s.store.WriteArtifact("pool.json", res.Cell())
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.cancelRun = nil
	if err != nil {
		if errors.Is(err, context.Canceled) {
			// Either shutdown (loop exits on root.Done) or a membership
			// change already bumped popGen; rerun against the new set.
			s.replaysCancelled++
			return s.root.Err() == nil
		}
		// A failed replay leaves the previous result standing; surface
		// the failure through staleness (Fresh stays false) and LastError
		// rather than crashing the daemon.
		s.lastErr = err
		s.replayFailures++
		return s.popGen != gen
	}
	s.replays++
	// A snapshot that failed to persist does not unseat the result; it
	// is reported like a failed replay.
	s.lastErr = nil
	if werr != nil {
		s.lastErr = fmt.Errorf("serve: writing the pool snapshot: %w", werr)
		s.replayFailures++
	}
	s.lastResult = res
	s.lastIDs = ids
	s.installedLocked(gen)
	// Drained tenants leave the live set now that a replay has served
	// their full window; their rows stay in lastResult/lastIDs as the
	// final accounting until the next membership change replays without
	// them.
	// Removing a drained tenant is not a new membership generation: the
	// result just installed served its full window, so resultGen == gen
	// already covers the shrunken set. A membership change that raced in
	// after the replay finished keeps popGen > gen and triggers a rerun.
	for _, id := range drainingIDs {
		delete(s.live, id)
		s.order = removeID(s.order, id)
	}
	return s.popGen != s.resultGen
}

func isDraining(id int, draining []int) bool {
	for _, d := range draining {
		if d == id {
			return true
		}
	}
	return false
}

// WaitIdle blocks until the latest finished replay covers the current
// population (or ctx expires) — the test and shutdown barrier. It wakes
// when the replay loop installs that result.
func (s *Server) WaitIdle(ctx context.Context) error {
	s.mu.Lock()
	idle := s.idle
	s.mu.Unlock()
	if idle == nil {
		return nil
	}
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-s.root.Done():
		return errors.New("serve: server shut down")
	}
}

// LastError reports the most recent failure to replay or to persist the
// pool snapshot (nil after a replay that did both).
func (s *Server) LastError() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}

// Shutdown drains gracefully: wait (bounded by ctx) for the in-flight
// replay to cover the final population, then stop the loop and close the
// store. The HTTP listener must already be shut down — the caller owns
// it — so no new membership changes can arrive.
func (s *Server) Shutdown(ctx context.Context) error {
	_ = s.WaitIdle(ctx) // best effort: a hung replay falls through to the hard cancel
	s.rootCancel()
	<-s.done
	return s.store.Close()
}
