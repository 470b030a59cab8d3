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
		{"per-record", ReplayPoolReference, 0},
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
// StepWindow more records are served after the cancel lands.
func TestReplayCancelAbortsWithinWindow(t *testing.T) {
	const window = 256
	const cancelAt = 10
	for _, perRecord := range []bool{false, true} {
		profiles := []*Profile{longSyntheticProfile(t, "long", 100_000)}
		pool := PoolConfig{Cores: 1, Policy: PolicyLeastLag, StepWindow: window}
		ctx, cancel := context.WithCancel(context.Background())
		served, after := 0, 0
		res, err := replayMode(ctx, profiles, pool, func(ti, core int, req Request, charge, finish uint64) {
			served++
			if served == cancelAt {
				cancel()
			}
			if served > cancelAt {
				after++
			}
		}, perRecord)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("perRecord=%v: want context.Canceled, got %v", perRecord, err)
		}
		if res != nil {
			t.Fatalf("perRecord=%v: cancelled replay must not return a result", perRecord)
		}
		if after > window {
			t.Errorf("perRecord=%v: %d records served after cancel; the refill check bounds it by the %d-step window", perRecord, after, window)
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

// TestNegativeStepWindowRejected pins the validation boundary: a negative
// decode window is an error everywhere a PoolConfig enters the replay,
// not a silent coercion to DefaultStepWindow.
func TestNegativeStepWindowRejected(t *testing.T) {
	profiles := []*Profile{longSyntheticProfile(t, "w", 100)}
	pool := PoolConfig{Cores: 1, Policy: PolicyLeastLag, StepWindow: -1}

	cases := []struct {
		name string
		call func() error
	}{
		{"ReplayPool/batched", func() error {
			_, err := ReplayPool(context.Background(), profiles, pool)
			return err
		}},
		{"ReplayPool/per-record", func() error {
			_, err := ReplayPoolReference(context.Background(), profiles, pool)
			return err
		}},
		{"ReplayPool/sharded", func() error {
			sharded := pool
			sharded.Shards = 2
			_, err := ReplayPool(context.Background(), profiles, sharded)
			return err
		}},
		{"Engine.RunPool", func() error {
			set, err := FromSuite(1, workloads.Config{Scale: 2000, Seed: 1, Threads: 2}, core.DefaultConfig())
			if err != nil {
				return err
			}
			_, err = NewEngine(1, nil).RunPool(context.Background(), set, pool)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.call()
			if err == nil {
				t.Fatal("negative StepWindow accepted")
			}
			if !strings.Contains(err.Error(), "step window") {
				t.Fatalf("error does not name the step window: %v", err)
			}
		})
	}
}
