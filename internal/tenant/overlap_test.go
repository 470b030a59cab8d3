package tenant

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/osmodel"
	"repro/internal/runner"
	"repro/internal/workloads"
)

// The tests in this file pin Engine.RunPool's overlap of profiling and
// replay: a tenant missing from the memo is replayed from its timeline
// while it is still being recorded, and the outcome must be what a
// replay of the finished profiles gives.

// overlapScale keeps the overlap tier cheap under -race while every
// tenant below still spans two or more timeline segments.
const overlapScale = 5_000

// overlapEngine is the tier's one shared engine: its memo holds the
// finished reference profiles, and the fresh engines whose RunPool must
// stream share its experiment runner, so baselines run once.
var overlapEngine = sync.OnceValue(func() *Engine { return NewEngine(2, nil) })

// overlapSet returns four suite tenants whose timelines span 2 to 5
// segments (bc, mcf, water, zchaff), fixed or churned: with churn the
// windows truncate some tenants mid-timeline, so the replay retires them
// while their profiles are still being recorded.
func overlapSet(t *testing.T, churned bool) []Tenant {
	t.Helper()
	wcfg := workloads.Config{Scale: overlapScale, Seed: 1, Threads: 2}
	var set []Tenant
	for _, i := range []int{0, 4, 7, 8} {
		set = append(set, SuiteTenant(i, wcfg, core.DefaultConfig()))
	}
	if !churned {
		return set
	}
	set, err := ApplyChurn(set, Churn{Rate: 0.5, Horizon: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestOnlineDedicatedWallMatchesWalk pins the recorder's online
// dedicated-core clock to the post-run walk it replaces: for every suite
// program under every lifeguard, and for every tenant of the replay fuzz
// corpus fed through a recorder step by step, the recorder's wall equals
// dedicatedWall over the finished timeline, and the recorded timeline is
// the corpus timeline.
func TestOnlineDedicatedWallMatchesWalk(t *testing.T) {
	t.Parallel()
	eng := overlapEngine()
	var set []Tenant
	for i := range workloads.All() {
		for _, lg := range core.LifeguardNames() {
			tn := SuiteTenant(i, workloads.Config{Scale: 5_000}, core.DefaultConfig())
			tn.Name, tn.Lifeguard = tn.Name+"/"+lg, lg
			set = append(set, tn)
		}
	}
	profiles, err := eng.Profiles(context.Background(), set)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range profiles {
		if want := dedicatedWall(p.tl, p.Tenant.Config.Channel, p.Result.AppCycles); p.DedicatedWall != want {
			t.Errorf("%s: online DedicatedWall %d, the walk gives %d", p.Tenant.Name, p.DedicatedWall, want)
		}
	}

	for _, p := range corpusProfiles(t) {
		rec := newRecorder(p.Tenant.Config.Channel, nil)
		steps := materialise(p.tl)
		for _, s := range steps {
			if s.bits == drainMark {
				rec.Syscall(s.cycle)
			} else {
				rec.Record(s.cycle, uint64(s.bits), uint64(s.cost))
			}
		}
		if rec.err != nil {
			t.Fatalf("%s: %v", p.Tenant.Name, rec.err)
		}
		tl, wall := rec.finish(p.Result.AppCycles)
		if want := dedicatedWall(p.tl, p.Tenant.Config.Channel, p.Result.AppCycles); wall != want {
			t.Errorf("%s: online wall %d, the walk gives %d", p.Tenant.Name, wall, want)
		}
		if got := materialise(tl); !reflect.DeepEqual(append([]step{}, got...), append([]step{}, steps...)) {
			t.Errorf("%s: the recorder encoded %d steps that differ from the corpus timeline's %d", p.Tenant.Name, len(got), len(steps))
		}
	}
}

// TestRunPoolStreamingMatchesFinished is the overlap differential:
// RunPool on an engine that has profiled nothing — every tenant is
// replayed from a timeline still being recorded — deep-equals ReplayPool
// of the finished profiles, for every policy, fixed and churned sets,
// unsharded, one shard and four, with the migration model on.
func TestRunPoolStreamingMatchesFinished(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	shared := overlapEngine()
	for _, churned := range []bool{false, true} {
		set := overlapSet(t, churned)
		profiles, err := shared.Profiles(ctx, set)
		if err != nil {
			t.Fatal(err)
		}
		for _, policy := range Policies() {
			for _, shards := range []int{0, 1, 4} {
				pool := PoolConfig{Cores: 4, Policy: policy, Shards: shards, MigrationPenalty: 320}
				t.Run(fmt.Sprintf("churned=%v/%s/shards=%d", churned, policy, shards), func(t *testing.T) {
					t.Parallel()
					want, err := ReplayPool(ctx, profiles, pool)
					if err != nil {
						t.Fatal(err)
					}
					fresh := NewEngine(2, shared.Runner())
					got, err := fresh.RunPool(ctx, set, pool)
					if err != nil {
						t.Fatal(err)
					}
					if fresh.profiles.Misses() != uint64(len(set)) {
						t.Fatalf("the fresh engine profiled %d tenants, want %d", fresh.profiles.Misses(), len(set))
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("streamed RunPool differs from the replay of the finished profiles:\n got %+v\nwant %+v", got, want)
					}
				})
			}
		}
	}
}

// TestRunPoolProfileFailsMidStream pins the failure path: a tenant whose
// profiling run exhausts its instruction budget after publishing
// segments fails RunPool with the error Engine.Profile reports for it
// (the text RunPool returned when it profiled before replaying), leaves
// nothing in the memo, cancels the replay and leaks no goroutine.
func TestRunPoolProfileFailsMidStream(t *testing.T) {
	ctx := context.Background()
	set := overlapSet(t, false)
	bad := set[2] // water: 5 segments at overlapScale
	full, err := overlapEngine().Profile(ctx, bad)
	if err != nil {
		t.Fatal(err)
	}
	bad.Config.Machine.MaxInstructions = full.Result.Instructions * 3 / 4
	set[2] = bad

	// The budget runs out past the first segment, so the stream has
	// been published to when the profile fails.
	st := newStreamTimeline(nil)
	if _, err := NewEngine(1, nil).produce(ctx, profileTenant(bad), st); err == nil || st.Len() < segmentSteps {
		t.Fatalf("precondition: produce with a 3/4 budget returned %v after %d published steps, want an error after >= %d", err, st.Len(), segmentSteps)
	}
	_, today := NewEngine(1, nil).Profile(ctx, bad)
	if !errors.Is(today, osmodel.ErrBudget) {
		t.Fatalf("precondition: Profile error %v is not the budget", today)
	}

	before := runtime.NumGoroutine()
	eng := NewEngine(2, nil)
	for _, shards := range []int{0, 2} {
		res, err := eng.RunPool(ctx, set, PoolConfig{Cores: 2, Policy: PolicyLeastLag, Shards: shards})
		if err == nil || err.Error() != today.Error() {
			t.Fatalf("shards %d: RunPool error %v, want %q", shards, err, today)
		}
		if res != nil {
			t.Fatalf("shards %d: a failed RunPool returned a result", shards)
		}
	}
	if _, ok := eng.profiles.Peek(profileKey(bad)); ok {
		t.Error("the failed profile is in the memo")
	}

	// A failed profile cancels the replay. bc fails before it fills its
	// first segment, so the replay cannot get past its setup before the
	// failure and must serve nothing after it.
	early := overlapSet(t, false)
	first, err := overlapEngine().Profile(ctx, early[0])
	if err != nil {
		t.Fatal(err)
	}
	early[0].Config.Machine.MaxInstructions = first.Result.Instructions * 3 / 4
	served := 0
	_, err = NewEngine(2, nil).runPool(ctx, early, PoolConfig{Cores: 2, Policy: PolicyLeastLag},
		replayOpts{obs: func(ti, core int, req Request, charge, finish uint64) { served++ }})
	if !errors.Is(err, osmodel.ErrBudget) {
		t.Fatalf("RunPool with bc failing: %v, want the budget error", err)
	}
	if served != 0 {
		t.Errorf("the replay served %d records after a profile failed", served)
	}
	waitGoroutines(t, before)
}

// TestRunPoolCancelBlockedOnStream pins cancellation while the replay
// waits for a profile: the replay returns context.Canceled within the
// refill-boundary bound of TestReplayCancelAbortsWithinWindow, RunPool
// returns only after the profiling it started has finished, no goroutine
// outlives the call, and the next RunPool of the set is all memo hits.
func TestRunPoolCancelBlockedOnStream(t *testing.T) {
	const window = 256
	bg := context.Background()
	set := overlapSet(t, false)
	pool := PoolConfig{Cores: 1, Policy: PolicyLeastLag}

	t.Run("empty-stream", func(t *testing.T) {
		// The last tenant's key is claimed elsewhere and held, so its
		// stream stays empty and the replay blocks in its first refill.
		before := runtime.NumGoroutine()
		eng := NewEngine(2, nil)
		if _, err := eng.Profiles(bg, set[:3]); err != nil {
			t.Fatal(err)
		}
		release, holder := holdClaim(eng, set[3])

		ctx, cancel := context.WithCancel(bg)
		served, after := 0, 0
		done := make(chan error, 1)
		go func() {
			_, err := eng.runPool(ctx, set, pool, replayOpts{window: window,
				obs: func(ti, core int, req Request, charge, finish uint64) {
					served++
					if ctx.Err() != nil {
						after++
					}
				}})
			done <- err
		}()
		// Cancel once the replay is parked on the empty stream and the
		// producer waits for the held claim; the replay must leave the
		// stream while the claim is still held.
		waitStack(t, true, "(*streamSource).Next")
		waitStack(t, true, "(*Engine).acquire", "runner.(*Memo")
		cancel()
		waitStack(t, false, "(*streamSource).Next")
		select {
		case err := <-done:
			t.Fatalf("RunPool returned (%v) while a profile it waits for was still in flight", err)
		default:
		}
		close(release)
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
		if err := <-holder; err != nil {
			t.Fatal(err)
		}
		if served != 0 || after != 0 {
			t.Errorf("%d records served (%d after the cancel) before the empty stream's first step", served, after)
		}
		waitGoroutines(t, before)
		checkAllHits(t, eng, set, pool)
	})

	t.Run("mid-stream", func(t *testing.T) {
		// One tenant, profiled by this RunPool: the replay reads its
		// stream as it grows and is cancelled part-way through it.
		before := runtime.NumGoroutine()
		eng := NewEngine(2, nil)
		ctx, cancel := context.WithCancel(bg)
		defer cancel()
		served, after := 0, 0
		one := set[2:3]
		res, err := eng.runPool(ctx, one, pool, replayOpts{window: window,
			obs: func(ti, core int, req Request, charge, finish uint64) {
				served++
				if served == 10 {
					cancel()
				}
				if served > 10 {
					after++
				}
			}})
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("want context.Canceled and no result, got %v, %v", res, err)
		}
		if after > window {
			t.Errorf("%d records served after cancel; the refill check bounds it by the %d-step window", after, window)
		}
		waitGoroutines(t, before)
		checkAllHits(t, eng, one, pool)
	})
}

// TestRunPoolAdoptsProfileClaimedElsewhere pins the producer that finds
// its tenant's key already claimed: it waits for the other caller's
// profile and hands all of its segments to the replay's stream, so the
// result still equals the replay of the finished profiles.
func TestRunPoolAdoptsProfileClaimedElsewhere(t *testing.T) {
	ctx := context.Background()
	set := overlapSet(t, false)
	pool := PoolConfig{Cores: 2, Policy: PolicyLeastLag}
	profiles, err := overlapEngine().Profiles(ctx, set)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReplayPool(ctx, profiles, pool)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(2, nil)
	release, holder := holdClaim(eng, set[1])
	done := make(chan error, 1)
	var got *PoolResult
	go func() {
		var err error
		got, err = eng.RunPool(ctx, set, pool)
		done <- err
	}()
	waitStack(t, true, "(*Engine).acquire", "runner.(*Memo")
	close(release)
	if err := <-holder; err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("RunPool over a profile claimed elsewhere differs from the replay of the finished profiles:\n got %+v\nwant %+v", got, want)
	}
}

// holdClaim claims tn's memo key on eng from another goroutine and holds
// it until release is closed, then produces the profile there; holder
// reports that goroutine's outcome.
func holdClaim(eng *Engine, tn Tenant) (release chan struct{}, holder chan error) {
	release, holder = make(chan struct{}), make(chan error, 1)
	claimed := make(chan struct{})
	go func() {
		_, err := eng.profiles.Do(context.Background(), profileKey(tn), func() (*Profile, error) {
			close(claimed)
			<-release
			return eng.produce(context.Background(), profileTenant(tn), nil)
		})
		holder <- err
	}()
	<-claimed
	return release, holder
}

// profileKey is the memo key Engine.Profile and RunPool use for t.
func profileKey(t Tenant) string { return runner.HashKey(profileTenant(t)) }

// checkAllHits replays set again on eng and fails unless every profile
// came from the memo.
func checkAllHits(t *testing.T, eng *Engine, set []Tenant, pool PoolConfig) {
	t.Helper()
	misses, hits := eng.profiles.Misses(), eng.profiles.Hits()
	if _, err := eng.RunPool(context.Background(), set, pool); err != nil {
		t.Fatal(err)
	}
	if got := eng.profiles.Misses() - misses; got != 0 {
		t.Errorf("the RunPool after the cancelled one profiled %d tenants again", got)
	}
	if got := eng.profiles.Hits() - hits; got != uint64(len(set)) {
		t.Errorf("the RunPool after the cancelled one hit the memo %d times, want %d", got, len(set))
	}
}

// waitStack returns once some goroutine's stack holds every one of
// frames (present) or once none does (!present): the test's way to wait
// until a goroutine is parked where it must be, or has left.
func waitStack(t *testing.T, present bool, frames ...string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		found := false
	stacks:
		for _, g := range bytes.Split(buf[:runtime.Stack(buf, true)], []byte("\n\n")) {
			for _, f := range frames {
				if !bytes.Contains(g, []byte(f)) {
					continue stacks
				}
			}
			found = true
			break
		}
		if found == present {
			return
		}
	}
	t.Fatalf("after 10s, a goroutine parked in %q: %v, want %v", frames, !present, present)
}

// waitGoroutines fails unless the goroutine count falls back to before
// within a second (exiting goroutines finish just after they signal).
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines left running, %d before:\n%s", runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
