package runner

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// HashKey content-hashes any JSON-marshalable value into a short hex key.
// Two values with equal JSON encodings share a key; this is the hashing
// behind Job.Key and the tenant profile cache.
func HashKey(v any) string {
	blob, err := json.Marshal(v)
	if err != nil {
		// Keys are hashed from plain exported data; this cannot fail.
		panic(fmt.Sprintf("runner: hashing key: %v", err))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:16])
}

// memoEntry is one memoization slot. The first goroutine to claim a key
// runs the computation; later arrivals wait on done and share the outcome.
type memoEntry[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Memo is a content-keyed, single-flight memoization table: concurrent Do
// calls with equal keys run the function once and share the result. It is
// the generic core of the Engine's job cache and is reused by the tenant
// simulation for per-tenant profiles and admission envelope points.
// Cached values are shared between callers and must be treated as
// immutable; errors are never cached.
type Memo[V any] struct {
	mu    sync.Mutex
	cache map[string]*memoEntry[V]
	// order holds the cached keys: first-claim order when the table is
	// unbounded (the deterministic snapshot the Engine's report relies
	// on), least-recently-used first when bounded (hits move keys to the
	// back, so the front is always the eviction candidate).
	order []string
	limit int // > 0 caps len(cache); <= 0 is unbounded

	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewMemo returns an empty unbounded table.
func NewMemo[V any]() *Memo[V] {
	return &Memo[V]{cache: make(map[string]*memoEntry[V])}
}

// NewMemoBounded returns an empty table that retains at most limit
// completed entries, evicting the least recently used once the cap is
// exceeded — the churn-safe variant for caches whose key population is
// open-ended (a serving daemon's tenant profiles, say) rather than a
// fixed experiment matrix. In-flight computations are never evicted, so
// the table can transiently exceed the cap by the number of concurrent
// first claims. limit <= 0 means unbounded, identical to NewMemo.
func NewMemoBounded[V any](limit int) *Memo[V] {
	return &Memo[V]{cache: make(map[string]*memoEntry[V]), limit: limit}
}

// Do returns the memoized value for key, computing it with fn on first
// claim. The context only bounds the wait on an in-flight result — a
// computation that has started always runs to completion. Only successes
// are kept: a failed computation is dropped from the table before its
// waiters wake, so the next caller recomputes. A waiter handed another
// caller's context error while its own context is still live claims the
// key afresh instead of inheriting the cancellation.
func (m *Memo[V]) Do(ctx context.Context, key string, fn func() (V, error)) (V, error) {
	var zero V
	for {
		if err := ctx.Err(); err != nil {
			return zero, err
		}
		m.mu.Lock()
		ent, ok := m.cache[key]
		if !ok {
			break // claim it, still holding the lock
		}
		m.touchLocked(key)
		m.mu.Unlock()
		m.hits.Add(1)
		select {
		case <-ent.done:
		case <-ctx.Done():
			return zero, ctx.Err()
		}
		if ent.err != nil && isContextErr(ent.err) && ctx.Err() == nil {
			continue
		}
		return ent.val, ent.err
	}
	ent := &memoEntry[V]{done: make(chan struct{})}
	m.cache[key] = ent
	m.order = append(m.order, key)
	m.mu.Unlock()

	m.misses.Add(1)
	ent.val, ent.err = fn()

	m.mu.Lock()
	if ent.err != nil {
		delete(m.cache, key)
		m.order = removeKey(m.order, key)
	}
	close(ent.done)
	if m.limit > 0 {
		m.evictLocked()
	}
	m.mu.Unlock()
	return ent.val, ent.err
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func removeKey(order []string, key string) []string {
	if i := slices.Index(order, key); i >= 0 {
		return slices.Delete(order, i, i+1)
	}
	return order
}

// touchLocked moves key to the back of the recency order. Unbounded
// tables skip it so their order stays the deterministic first-claim
// snapshot.
func (m *Memo[V]) touchLocked(key string) {
	if m.limit <= 0 {
		return
	}
	for i, k := range m.order {
		if k == key {
			copy(m.order[i:], m.order[i+1:])
			m.order[len(m.order)-1] = key
			return
		}
	}
}

// evictLocked drops least-recently-used completed entries until the
// table is back under its cap. Entries still in flight are skipped —
// their waiters hold the entry pointer, and evicting an unfinished
// computation would let an equal key run twice concurrently.
func (m *Memo[V]) evictLocked() {
	for len(m.cache) > m.limit {
		evicted := false
		for i, key := range m.order {
			ent := m.cache[key]
			select {
			case <-ent.done:
			default:
				continue
			}
			delete(m.cache, key)
			m.order = append(m.order[:i], m.order[i+1:]...)
			evicted = true
			break
		}
		if !evicted {
			return // everything over the cap is in flight; retry on the next Do
		}
	}
}

// Peek returns the completed value for key without blocking; ok is false
// when the key is absent or still in flight. A completed entry still in
// the table is a success: failures leave it before their done closes.
func (m *Memo[V]) Peek(key string) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ent, ok := m.cache[key]; ok {
		select {
		case <-ent.done:
			return ent.val, true
		default:
		}
	}
	var zero V
	return zero, false
}

// Keys returns the cached keys — in first-claim order for an unbounded
// table, least-recently-used first for a bounded one.
func (m *Memo[V]) Keys() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.order...)
}

// Len reports how many entries the table currently holds (including
// in-flight computations).
func (m *Memo[V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cache)
}

// Limit reports the retention cap; 0 or less means unbounded.
func (m *Memo[V]) Limit() int { return m.limit }

// Hits reports how many Do calls were served from the cache (including
// waits on an in-flight computation).
func (m *Memo[V]) Hits() uint64 { return m.hits.Load() }

// Misses reports how many Do calls actually executed their function.
func (m *Memo[V]) Misses() uint64 { return m.misses.Load() }
