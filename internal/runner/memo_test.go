package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// TestMemoBoundedEvictsLRU pins the bounded table's contract: the cap
// holds, the least-recently-used key is the one evicted, and a hit
// refreshes recency.
func TestMemoBoundedEvictsLRU(t *testing.T) {
	ctx := context.Background()
	m := NewMemoBounded[int](2)
	val := func(v int) func() (int, error) {
		return func() (int, error) { return v, nil }
	}
	for i, key := range []string{"a", "b"} {
		if got, _ := m.Do(ctx, key, val(i)); got != i {
			t.Fatalf("Do(%q) = %d, want %d", key, got, i)
		}
	}
	// Refresh "a", then insert "c": "b" is now the LRU entry and must be
	// the one to go.
	if _, err := m.Do(ctx, "a", val(-1)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Do(ctx, "c", val(2)); err != nil {
		t.Fatal(err)
	}
	if got := m.Len(); got != 2 {
		t.Fatalf("Len = %d, want the cap of 2", got)
	}
	if _, ok := m.Peek("b"); ok {
		t.Error("LRU key b survived eviction")
	}
	if _, ok := m.Peek("a"); !ok {
		t.Error("recently-hit key a was evicted")
	}
	// A re-Do of the evicted key is a miss: its function runs again.
	misses := m.Misses()
	if got, _ := m.Do(ctx, "b", val(7)); got != 7 {
		t.Fatalf("recomputed b = %d, want 7", got)
	}
	if m.Misses() != misses+1 {
		t.Error("re-Do of an evicted key did not recompute")
	}
}

// TestMemoBoundedStaysBounded is the growth bound itself: a churning key
// population never pushes the table past its cap.
func TestMemoBoundedStaysBounded(t *testing.T) {
	ctx := context.Background()
	const limit = 8
	m := NewMemoBounded[int](limit)
	for i := 0; i < 10*limit; i++ {
		if _, err := m.Do(ctx, fmt.Sprintf("k%d", i), func() (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
		if got := m.Len(); got > limit {
			t.Fatalf("after %d inserts Len = %d, cap is %d", i+1, got, limit)
		}
	}
	if got := len(m.Keys()); got != limit {
		t.Fatalf("Keys reports %d entries, want %d", got, limit)
	}
}

// TestMemoBoundedNeverEvictsInFlight: an unfinished computation survives
// the cap (its waiters hold the entry), and single-flight semantics are
// preserved across a concurrent eviction pass.
func TestMemoBoundedNeverEvictsInFlight(t *testing.T) {
	ctx := context.Background()
	m := NewMemoBounded[int](1)
	release := make(chan struct{})
	started := make(chan struct{})
	got := make(chan int, 1)
	go func() {
		v, _ := m.Do(ctx, "slow", func() (int, error) {
			close(started)
			<-release
			return 42, nil
		})
		got <- v
	}()
	<-started
	// This insert overflows the cap while "slow" is in flight; eviction
	// must take the completed entry, not the running one.
	if _, err := m.Do(ctx, "fast", func() (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	close(release)
	if v := <-got; v != 42 {
		t.Fatalf("in-flight computation returned %d, want 42", v)
	}
	// A second Do on the slow key while it was in flight would have
	// shared the entry; after completion it is either cached or a clean
	// recompute — never a corrupt slot.
	if v, _ := m.Do(ctx, "slow", func() (int, error) { return 42, nil }); v != 42 {
		t.Fatalf("post-flight Do = %d, want 42", v)
	}
}

// TestMemoUnboundedOrderIsFirstClaim pins the pre-existing contract the
// Engine report depends on: without a cap, hits do not reorder Keys and
// nothing is ever evicted.
func TestMemoUnboundedOrderIsFirstClaim(t *testing.T) {
	ctx := context.Background()
	m := NewMemo[int]()
	for i, key := range []string{"x", "y", "z"} {
		if _, err := m.Do(ctx, key, func() (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Do(ctx, "x", func() (int, error) { return -1, nil }); err != nil {
		t.Fatal(err)
	}
	keys := m.Keys()
	want := []string{"x", "y", "z"}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("Keys = %v, want first-claim order %v", keys, want)
		}
	}
	if m.Limit() != 0 {
		t.Errorf("unbounded Limit = %d, want 0", m.Limit())
	}
}

var errBoom = errors.New("boom")

// TestMemoErrorIsNotCached: a failed computation leaves no entry behind,
// so the next caller recomputes instead of inheriting the failure.
func TestMemoErrorIsNotCached(t *testing.T) {
	ctx := context.Background()
	m := NewMemoBounded[int](4)
	if _, err := m.Do(ctx, "k", func() (int, error) { return 0, errBoom }); !errors.Is(err, errBoom) {
		t.Fatalf("first Do err = %v, want %v", err, errBoom)
	}
	if m.Len() != 0 || len(m.Keys()) != 0 {
		t.Fatalf("failed entry retained: Len %d, Keys %v", m.Len(), m.Keys())
	}
	if _, ok := m.Peek("k"); ok {
		t.Fatal("Peek reports a failed key as cached")
	}
	got, err := m.Do(ctx, "k", func() (int, error) { return 7, nil })
	if err != nil || got != 7 {
		t.Fatalf("retry Do = %d, %v; want 7, nil", got, err)
	}
	if m.Misses() != 2 || m.Hits() != 0 {
		t.Errorf("hits/misses = %d/%d, want 0/2", m.Hits(), m.Misses())
	}
	if got, _ := m.Do(ctx, "k", func() (int, error) { return -1, nil }); got != 7 {
		t.Errorf("success not cached: got %d, want 7", got)
	}
}

// TestMemoCancelledClaimerLiveWaiter: a waiter whose own context is live
// does not inherit the claimer's cancellation; it claims the key afresh
// and computes the value itself. A waiter handed an ordinary error does
// share it.
func TestMemoCancelledClaimerLiveWaiter(t *testing.T) {
	for _, c := range []struct {
		name    string
		claimed error
		want    int
		wantErr error
	}{
		{"context error is retried", context.Canceled, 42, nil},
		{"deadline error is retried", context.DeadlineExceeded, 42, nil},
		{"plain error is shared", errBoom, 0, errBoom},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := NewMemo[int]()
			started, release := make(chan struct{}), make(chan struct{})
			claimer := make(chan error, 1)
			go func() {
				_, err := m.Do(context.Background(), "k", func() (int, error) {
					close(started)
					<-release
					return 0, c.claimed
				})
				claimer <- err
			}()
			<-started
			type outcome struct {
				v   int
				err error
			}
			waiter := make(chan outcome, 1)
			go func() {
				v, err := m.Do(context.Background(), "k", func() (int, error) { return 42, nil })
				waiter <- outcome{v, err}
			}()
			for m.Hits() == 0 { // the waiter has joined the in-flight entry
				runtime.Gosched()
			}
			close(release)
			if err := <-claimer; !errors.Is(err, c.claimed) {
				t.Fatalf("claimer err = %v, want %v", err, c.claimed)
			}
			got := <-waiter
			if got.v != c.want || !errors.Is(got.err, c.wantErr) {
				t.Fatalf("waiter = %d, %v; want %d, %v", got.v, got.err, c.want, c.wantErr)
			}
			wantLen := 0
			if c.wantErr == nil {
				wantLen = 1
			}
			if m.Len() != wantLen {
				t.Errorf("Len = %d, want %d", m.Len(), wantLen)
			}
		})
	}
}

// TestMemoWaiterOwnCancelReturnsPromptly: a waiter whose own context is
// cancelled gives up with its own error and leaves the in-flight
// computation (and its eventual value) alone.
func TestMemoWaiterOwnCancelReturnsPromptly(t *testing.T) {
	m := NewMemo[int]()
	started, release := make(chan struct{}), make(chan struct{})
	claimer := make(chan int, 1)
	go func() {
		v, _ := m.Do(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			return 5, nil
		})
		claimer <- v
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Do(ctx, "k", func() (int, error) { return -1, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter err = %v, want context.Canceled", err)
	}
	close(release)
	if v := <-claimer; v != 5 {
		t.Fatalf("claimer = %d, want 5", v)
	}
	if v, ok := m.Peek("k"); !ok || v != 5 {
		t.Errorf("Peek = %d, %v; want 5, true", v, ok)
	}
}

// TestMemoBoundedFailuresKeepLRUInvariants: failures interleaved with
// successes never occupy a slot, never appear in Keys, and leave the LRU
// order and cap exactly as the successes alone would.
func TestMemoBoundedFailuresKeepLRUInvariants(t *testing.T) {
	ctx := context.Background()
	m := NewMemoBounded[int](2)
	ok := func(v int) func() (int, error) { return func() (int, error) { return v, nil } }
	fail := func() (int, error) { return 0, errBoom }
	steps := []struct {
		key string
		fn  func() (int, error)
	}{
		{"a", ok(1)}, {"x", fail}, {"b", ok(2)}, {"y", fail}, {"a", ok(-1)}, {"c", ok(3)}, {"z", fail},
	}
	for _, s := range steps {
		m.Do(ctx, s.key, s.fn)
		if m.Len() > m.Limit() {
			t.Fatalf("after %q Len = %d, cap %d", s.key, m.Len(), m.Limit())
		}
	}
	// "a" was refreshed before "c" arrived, so "b" was the LRU victim.
	if keys := m.Keys(); len(keys) != 2 || keys[0] != "a" || keys[1] != "c" {
		t.Fatalf("Keys = %v, want [a c]", keys)
	}
	if v, _ := m.Peek("a"); v != 1 {
		t.Errorf("a = %d, want the first success 1", v)
	}
}
