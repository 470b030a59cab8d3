package tenant

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

// longSyntheticProfile builds a drain-free synthetic tenant of n records —
// cheap to generate, expensive to replay in full — for the cancellation
// tier.
func longSyntheticProfile(t *testing.T, name string, n int) *Profile {
	t.Helper()
	p, err := NewSyntheticProfile(name, n, 64, func(i int) SyntheticStep {
		return SyntheticStep{Cycle: uint64(i) * 4, Bits: 8, Cost: 2}
	})
	if err != nil {
		t.Fatalf("synthetic profile: %v", err)
	}
	return p
}

// TestReplayCancelledBeforeStart pins the entry check: a context that is
// already cancelled aborts every replay path — batched, sharded and the
// per-record reference (and Engine.RunPool) — before any merge work,
// returning ctx.Err() and no result.
func TestReplayCancelledBeforeStart(t *testing.T) {
	profiles := []*Profile{longSyntheticProfile(t, "a", 1000), longSyntheticProfile(t, "b", 1000)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, c := range []struct {
		name   string
		replay replayFunc
		shards int
	}{
		{"batched", ReplayPool, 0},
		{"per-record", replayReference, 0},
		{"sharded", ReplayPool, 2},
	} {
		res, err := c.replay(ctx, profiles, PoolConfig{Cores: 2, Policy: PolicyLeastLag, Shards: c.shards})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: want context.Canceled, got %v", c.name, err)
		}
		if res != nil {
			t.Errorf("%s: cancelled replay must not return a result", c.name)
		}
	}

	eng := NewEngine(1, nil)
	set, err := FromSuite(1, workloads.Config{Scale: 2000, Seed: 1, Threads: 2}, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunPool(ctx, set, PoolConfig{Cores: 1, Policy: PolicyLeastLag}); !errors.Is(err, context.Canceled) {
		t.Errorf("Engine.RunPool: want context.Canceled, got %v", err)
	}
}

// TestReplayCancelAbortsWithinWindow is the acceptance bound: a context
// cancelled mid-replay aborts the merge within one decode window — the
// cancellation check sits at cursor-refill boundaries, so at most
// one window's worth more records are served after the cancel lands.
func TestReplayCancelAbortsWithinWindow(t *testing.T) {
	const window = 256
	const cancelAt = 10
	for _, c := range []struct {
		name   string
		replay func(context.Context, []*Profile, PoolConfig, replayOpts) (*PoolResult, error)
	}{
		{"batched", replayMode},
		{"per-record", runReference},
	} {
		profiles := []*Profile{longSyntheticProfile(t, "long", 100_000)}
		pool := PoolConfig{Cores: 1, Policy: PolicyLeastLag}
		ctx, cancel := context.WithCancel(context.Background())
		served, after := 0, 0
		res, err := c.replay(ctx, profiles, pool, replayOpts{window: window,
			obs: func(ti, core int, req Request, charge, finish uint64) {
				served++
				if served == cancelAt {
					cancel()
				}
				if served > cancelAt {
					after++
				}
			}})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: want context.Canceled, got %v", c.name, err)
		}
		if res != nil {
			t.Fatalf("%s: cancelled replay must not return a result", c.name)
		}
		if after > window {
			t.Errorf("%s: %d records served after cancel; the refill check bounds it by the %d-step window", c.name, after, window)
		}
	}
}

// gateTimeline wraps a timeline and closes signal once `after` steps have
// been decoded by any traversal — the deterministic hook the sharded
// cancellation test uses to cancel only once the replay is provably in
// flight. Gates that share a signal channel must share once too, so the
// channel is closed exactly once however many gates fire.
type gateTimeline struct {
	inner  Timeline
	after  int
	signal chan struct{}
	once   *sync.Once
	mu     sync.Mutex
	seen   int
}

func (g *gateTimeline) Len() int { return g.inner.Len() }

func (g *gateTimeline) Open() StepSource { return &gateSource{g: g, src: g.inner.Open()} }

type gateSource struct {
	g   *gateTimeline
	src StepSource
}

func (s *gateSource) Next(dst []step) int {
	n := s.src.Next(dst)
	s.g.mu.Lock()
	s.g.seen += n
	fire := s.g.seen >= s.g.after
	s.g.mu.Unlock()
	if fire {
		s.g.once.Do(func() { close(s.g.signal) })
	}
	return n
}

// TestShardedReplayCancelMidFlight cancels a sharded replay once its
// decode has demonstrably started and asserts the whole fan-out aborts
// with ctx.Err() instead of waiting out the timelines.
func TestShardedReplayCancelMidFlight(t *testing.T) {
	const steps = 500_000
	profiles := []*Profile{
		longSyntheticProfile(t, "a", steps),
		longSyntheticProfile(t, "b", steps),
	}
	signal := make(chan struct{})
	once := new(sync.Once)
	for _, p := range profiles {
		p.tl = &gateTimeline{inner: p.tl, after: steps / 10, signal: signal, once: once}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-signal
		cancel()
	}()
	res, err := ReplayPool(ctx, profiles, PoolConfig{Cores: 2, Policy: PolicyLeastLag, Shards: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res != nil {
		t.Fatal("cancelled sharded replay must not return a result")
	}
}

// TestPoolValidatedAtEntryPoints pins the validation boundary: a pool shape
// PoolConfig.Validate rejects is an error at every entry point a
// PoolConfig enters the replay through — Engine.RunPool before any
// profiling runs.
func TestPoolValidatedAtEntryPoints(t *testing.T) {
	profiles := []*Profile{longSyntheticProfile(t, "w", 100)}
	pool := PoolConfig{Cores: 1, Policy: PolicyLeastLag, Shards: 2}
	eng := NewEngine(1, nil)

	cases := []struct {
		name, want string
		call       func() error
	}{
		{"ReplayPool/batched", "lifeguard core", func() error {
			unsharded := pool
			unsharded.Shards, unsharded.Cores = 0, 0
			_, err := ReplayPool(context.Background(), profiles, unsharded)
			return err
		}},
		{"ReplayPool/per-record", "unknown scheduling policy", func() error {
			unsharded := pool
			unsharded.Shards, unsharded.Policy = 0, "fifo?"
			_, err := replayReference(context.Background(), profiles, unsharded)
			return err
		}},
		{"ReplayPool/sharded", "shards 2 outside", func() error {
			_, err := ReplayPool(context.Background(), profiles, pool)
			return err
		}},
		{"Engine.RunPool", "shards 2 outside", func() error {
			set, err := FromSuite(1, workloads.Config{Scale: 2000, Seed: 1, Threads: 2}, core.DefaultConfig())
			if err != nil {
				return err
			}
			_, err = eng.RunPool(context.Background(), set, pool)
			if n := eng.ProfileCacheLen(); n != 0 {
				t.Errorf("an invalid pool profiled %d tenants before it was rejected", n)
			}
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.call()
			if err == nil {
				t.Fatal("invalid pool accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error does not name the invalid shape (want %q): %v", tc.want, err)
			}
		})
	}
}
