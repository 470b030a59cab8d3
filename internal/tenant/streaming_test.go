package tenant

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
)

// sliceTimeline is the materialised []step timeline — the pre-streaming
// representation, kept as the differential oracle the encoded path is
// pinned byte-identical against (and as the cheap way for tests to build
// hand-written timelines).
type sliceTimeline []step

func (t sliceTimeline) Len() int { return len(t) }

func (t sliceTimeline) Open() StepSource { s := sliceSource(t); return &s }

type sliceSource []step

func (s *sliceSource) Next(dst []step) int {
	n := copy(dst, *s)
	*s = (*s)[n:]
	return n
}

// encodeSteps round-trips a materialised timeline into the segment
// encoding — the test tier's bridge between the slice oracle and the
// streaming path (segSteps <= 0 selects the production segment size).
func encodeSteps(steps []step, segSteps int) (Timeline, error) {
	enc := timelineEncoder{segSteps: segSteps}
	for _, s := range steps {
		if s.bits != drainMark && uint64(s.bits) > maxStepBits {
			return nil, fmt.Errorf("tenant: step bits %d exceed the width contract (max %d)", s.bits, maxStepBits)
		}
		if err := enc.append(s); err != nil {
			return nil, err
		}
	}
	return enc.finish(), nil
}

// materialise decodes a timeline into one contiguous []step — the test
// tier's bridge back to the pre-streaming representation. Replay code
// never calls it.
func materialise(tl Timeline) []step {
	if tl == nil {
		return nil
	}
	out := make([]step, 0, tl.Len())
	var win [256]step
	src := tl.Open()
	for {
		n := src.Next(win[:])
		if n == 0 {
			return out
		}
		out = append(out, win[:n]...)
	}
}

// churnLimit returns how many leading steps of the profile fall inside the
// tenant's active window: every step whose shifted cycle is at most the
// departure cycle. Steps are in non-decreasing cycle order, so the window
// is a prefix. The streaming replay applies the same cut inside
// stepCursor.fill; this materialised form is the test tier's oracle.
func churnLimit(steps []step, arrive, depart uint64) int {
	if depart == 0 {
		return len(steps)
	}
	return sort.Search(len(steps), func(i int) bool { return steps[i].cycle+arrive > depart })
}

// withTimeline returns a shallow profile copy replaying the given
// timeline representation — the streaming differential tier swaps
// representations without touching any other profile field.
func withTimeline(p *Profile, tl Timeline) *Profile {
	cp := *p
	cp.tl = tl
	return &cp
}

// streamSuite builds a synthetic tenant set with drains spliced between
// records, so syscall containment interleaves with window refills, and
// optional deterministic churn windows whose edges land mid-timeline.
func streamSuite(churn bool) []*Profile {
	profiles := synthSet(11, 5, func(rng *rand.Rand) []step {
		steps := burstTimeline(rng, 6, 25, 700, 5, 40, 15, 60)
		out := steps[:0:0]
		for i, s := range steps {
			out = append(out, s)
			if i%23 == 11 {
				out = append(out, step{cycle: s.cycle + 3, bits: drainMark})
			}
		}
		return out
	})
	if churn {
		windows := []struct{ arrive, depart uint64 }{
			{0, 0}, {0, 2048}, {800, 0}, {256, 1024}, {64, 6000},
		}
		for i, w := range windows {
			cp := *profiles[i]
			cp.Tenant.ArriveAt, cp.Tenant.DepartAfter = w.arrive, w.depart
			profiles[i] = &cp
		}
	}
	return profiles
}

// TestStreamingReplayMatchesMaterialised pins the streaming replay — tiny
// encoded segments decoded through a tiny window, so every refill and
// segment boundary is crossed many times — deep-equal to the materialised
// sliceTimeline path replayed with a window larger than any timeline,
// across every policy × churn on/off × shards 1-4 × migration penalty
// off/on. The unsharded cell is additionally pinned to the per-record
// oracle, extending the TestBatchedDispatchMatchesPerRecord contract to
// the representation axis: encoding and windowing are pure memory
// optimisations, never visible in any output field.
func TestStreamingReplayMatchesMaterialised(t *testing.T) {
	for _, churn := range []bool{false, true} {
		base := streamSuite(churn)
		slice := make([]*Profile, len(base))
		stream := make([]*Profile, len(base))
		for i, p := range base {
			steps := materialise(p.tl)
			slice[i] = withTimeline(p, sliceTimeline(steps))
			enc, err := encodeSteps(steps, 7)
			if err != nil {
				t.Fatal(err)
			}
			stream[i] = withTimeline(p, enc)
		}
		name := "fixed"
		if churn {
			name = "churned"
		}
		t.Run(name, func(t *testing.T) {
			for _, policy := range Policies() {
				for shards := 1; shards <= 4; shards++ {
					for _, penalty := range []uint64{0, 320} {
						label := fmt.Sprintf("%s/%dsh/p%d", policy, shards, penalty)
						pool := PoolConfig{
							Cores: 4, Policy: policy, MigrationPenalty: penalty, Shards: shards,
						}
						// Through the planner at every shard count, so its
						// one-plan short-circuit streams too.
						want, err := replaySharded(context.Background(), slice, pool, replayOpts{window: 1 << 20})
						if err != nil {
							t.Fatalf("%s: materialised replay: %v", label, err)
						}
						got, err := replaySharded(context.Background(), stream, pool, replayOpts{window: 5})
						if err != nil {
							t.Fatalf("%s: streaming replay: %v", label, err)
						}
						if !reflect.DeepEqual(got, want) {
							a, _ := json.Marshal(got)
							b, _ := json.Marshal(want)
							t.Errorf("%s: streaming and materialised results diverge\nstreaming:    %s\nmaterialised: %s", label, a, b)
						}
						if shards == 1 {
							oracle, err := ReplayPoolReference(context.Background(), slice, pool)
							if err != nil {
								t.Fatalf("%s: per-record replay: %v", label, err)
							}
							if !reflect.DeepEqual(got, oracle) {
								t.Errorf("%s: streaming replay diverges from the per-record oracle", label)
							}
						}
					}
				}
			}
		})
	}
}

// TestTimelineRoundTrip pins the segment encoding lossless at every
// boundary the width contract names: bits one below the drain sentinel,
// the maximum cost, huge cycle deltas, repeated cycles, drains first and
// last, and segment sizes down to one step per segment.
func TestTimelineRoundTrip(t *testing.T) {
	steps := []step{
		{cycle: 0, bits: drainMark},
		{cycle: 0, bits: 0, cost: 0},
		{cycle: 3, bits: uint32(maxStepBits), cost: ^uint32(0)},
		{cycle: 3, bits: 1, cost: 1},
		{cycle: 1 << 60, bits: 127, cost: 300},
		{cycle: 1 << 60, bits: drainMark},
		{cycle: 1<<60 + 1, bits: drainMark},
	}
	for _, segSteps := range []int{1, 2, 3, 5, 7, 0} {
		tl, err := encodeSteps(steps, segSteps)
		if err != nil {
			t.Fatalf("segSteps %d: %v", segSteps, err)
		}
		if tl.Len() != len(steps) {
			t.Errorf("segSteps %d: Len %d, want %d", segSteps, tl.Len(), len(steps))
		}
		if got := materialise(tl); !reflect.DeepEqual(got, steps) {
			t.Errorf("segSteps %d: round trip %+v, want %+v", segSteps, got, steps)
		}
		// Decoding through a window smaller than a segment (and vice
		// versa) must see the same sequence.
		var cur stepCursor
		cur.open(tl, make([]step, 2), 0, 0)
		var got []step
		for !cur.done() {
			got = append(got, cur.head())
			cur.advance()
		}
		if !reflect.DeepEqual(got, steps) {
			t.Errorf("segSteps %d: cursor walk %+v, want %+v", segSteps, got, steps)
		}
	}
	if _, err := encodeSteps([]step{{cycle: 10}, {cycle: 9}}, 0); err == nil {
		t.Error("encoding a non-monotone timeline succeeded")
	}
}

// TestRecorderWidthContract is the regression test for the capture-
// boundary narrowing bug: an adversarial observer feed whose record sizes
// reach the drain sentinel (or whose costs exceed 32 bits) must fail
// profiling loudly instead of being silently narrowed — the old code's
// uint32(bits) turned a 2^32-1-bit record into a syscall drain, and
// wrapped large costs.
func TestRecorderWidthContract(t *testing.T) {
	t.Run("valid-extremes", func(t *testing.T) {
		rec := &recorder{}
		rec.Record(5, maxStepBits, maxStepCost)
		rec.Syscall(6)
		rec.Record(6, 0, 0)
		if rec.err != nil {
			t.Fatalf("in-contract extremes rejected: %v", rec.err)
		}
		got := materialise(rec.enc.finish())
		want := []step{
			{cycle: 5, bits: uint32(maxStepBits), cost: ^uint32(0)},
			{cycle: 6, bits: drainMark},
			{cycle: 6, bits: 0, cost: 0},
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("recorded %+v, want %+v", got, want)
		}
	})
	t.Run("bits-at-sentinel", func(t *testing.T) {
		rec := &recorder{}
		rec.Record(1, uint64(drainMark), 10)
		if rec.err == nil {
			t.Fatal("a drainMark-sized record was accepted (would replay as a syscall drain)")
		}
	})
	t.Run("bits-beyond-32", func(t *testing.T) {
		rec := &recorder{}
		rec.Record(1, 1<<33, 10)
		if rec.err == nil {
			t.Fatal("a 2^33-bit record was accepted (old code narrowed it mod 2^32)")
		}
	})
	t.Run("cost-beyond-32", func(t *testing.T) {
		rec := &recorder{}
		rec.Record(1, 64, 1<<32)
		if rec.err == nil {
			t.Fatal("a 2^32-cycle cost was accepted (old code wrapped it to 0)")
		}
	})
	t.Run("non-monotone-clock", func(t *testing.T) {
		rec := &recorder{}
		rec.Record(100, 64, 10)
		rec.Record(99, 64, 10)
		if rec.err == nil {
			t.Fatal("a rewinding application clock was accepted")
		}
	})
	t.Run("errors-latch", func(t *testing.T) {
		rec := &recorder{}
		rec.Record(1, uint64(drainMark), 10)
		first := rec.err
		rec.Record(2, 64, 10)
		rec.Syscall(3)
		if rec.err != first {
			t.Errorf("later steps overwrote the first error: %v", rec.err)
		}
		if rec.enc.n != 0 {
			t.Errorf("%d steps encoded after the contract violation", rec.enc.n)
		}
	})
}

// TestStepCursorWindows drives the cursor's churn truncation across every
// alignment of departure, window edge and segment edge, against the
// churnLimit prefix as oracle.
func TestStepCursorWindows(t *testing.T) {
	steps := make([]step, 24)
	for i := range steps {
		steps[i] = step{cycle: uint64(i) * 8, bits: 32 + uint32(i), cost: 10}
		if i%6 == 5 {
			steps[i] = step{cycle: steps[i].cycle, bits: drainMark}
		}
	}
	for _, segSteps := range []int{1, 3, 4, 8, 0} {
		tl, err := encodeSteps(steps, segSteps)
		if err != nil {
			t.Fatal(err)
		}
		for _, window := range []int{1, 2, 3, 4, 8, 24, 50} {
			for _, arrive := range []uint64{0, 5, 8} {
				// Departures landing exactly on a step cycle, one off it,
				// and exactly where a window/segment boundary falls.
				for _, depart := range []uint64{0, 1, 8, 9, 24, 31, 32, 63, 64, 65, 200, 1000} {
					if depart != 0 && depart <= arrive {
						continue
					}
					want := steps[:churnLimit(steps, arrive, depart)]
					var cur stepCursor
					cur.open(tl, make([]step, window), arrive, depart)
					var got []step
					for !cur.done() {
						got = append(got, cur.head())
						cur.advance()
					}
					if len(got) == 0 && len(want) == 0 {
						continue
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seg %d win %d arrive %d depart %d: cursor saw %d steps, churnLimit prefix holds %d",
							segSteps, window, arrive, depart, len(got), len(want))
					}
				}
			}
		}
	}
}

// TestWindowRingRecycle pins the ring's recycling contract: put buffers
// are handed back by get (no allocation), stale-sized buffers are
// dropped on reset, and foreign-sized buffers are never admitted.
func TestWindowRingRecycle(t *testing.T) {
	var ring windowRing
	ring.reset(8)
	a := ring.get()
	if len(a) != 8 {
		t.Fatalf("got a %d-step window, want 8", len(a))
	}
	ring.put(a)
	b := ring.get()
	if &a[0] != &b[0] {
		t.Error("ring allocated a fresh window while holding a free one")
	}
	ring.put(b)
	ring.put(make([]step, 3)) // wrong size: must not be admitted
	if n := len(ring.free); n != 1 {
		t.Errorf("ring holds %d buffers after a foreign-size put, want 1", n)
	}
	ring.reset(8) // same size: free list survives
	if n := len(ring.free); n != 1 {
		t.Errorf("same-size reset dropped the free list (%d buffers)", n)
	}
	ring.reset(16) // new size: stale buffers dropped
	if n := len(ring.free); n != 0 {
		t.Errorf("ring kept %d stale buffers across a resize", n)
	}
	if c := ring.get(); len(c) != 16 {
		t.Errorf("got a %d-step window after resize, want 16", len(c))
	}
}

// TestStreamingArenaWindowReuse pins the windowRing's end-to-end effect:
// after a warm-up replay, repeated batched replays of the same pool draw
// every decoded window from the arena's ring instead of allocating —
// the allocation ceiling below fails if windows leak out of the ring
// (TestBatchedReplaySteadyStateAllocs covers the same property on the
// real suite; this variant isolates the window path with a tiny window
// size so many refills happen per replay).
func TestStreamingArenaWindowReuse(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on its own account")
	}
	profiles := streamSuite(false)
	pool := PoolConfig{Cores: 2, Policy: PolicyLeastLag}
	tiny := replayOpts{window: 8}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if _, err := replayMode(context.Background(), profiles, pool, tiny); err != nil {
		t.Fatal(err)
	}
	const ceiling = 30.0
	got := testing.AllocsPerRun(5, func() {
		if _, err := replayMode(context.Background(), profiles, pool, tiny); err != nil {
			t.Fatal(err)
		}
	})
	if got > ceiling {
		t.Errorf("steady-state streaming replay allocates %.0f objects/run, ceiling %v — decoded windows are not being recycled", got, ceiling)
	}
}

// TestSyntheticProfileHeapBounded is the tentpole's acceptance criterion:
// a 100M-step synthetic tenant must replay in O(window) memory — the
// live-heap growth of its replay is asserted both absolutely (a
// materialised timeline would hold 1.6 GB of steps) and relative to a
// 100x shorter tenant (peak heap independent of timeline length). GC is
// disabled across each measurement so the delta is deterministic live
// allocation, not collector timing.
func TestSyntheticProfileHeapBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation multiplies both memory and runtime")
	}
	if testing.Short() {
		t.Skip("replays 101M steps")
	}
	gen := func(i int) SyntheticStep {
		s := SyntheticStep{Cycle: uint64(i) * 40, Bits: 64 + uint64(i%61), Cost: 18 + uint64(i%7)}
		if i%4096 == 4095 {
			s = SyntheticStep{Cycle: uint64(i) * 40, Drain: true}
		}
		return s
	}
	replayHeap := func(n int) uint64 {
		p, err := NewSyntheticProfile(fmt.Sprintf("stream-%d", n), n, 5000, gen)
		if err != nil {
			t.Fatal(err)
		}
		if p.Steps() != n || p.TimelineBytes() != 0 {
			t.Fatalf("synthetic profile holds %d steps in %d resident bytes, want %d in 0",
				p.Steps(), p.TimelineBytes(), n)
		}
		pool := PoolConfig{Cores: 1, Policy: PolicyLeastLag}
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := ReplayPool(context.Background(), []*Profile{p}, pool)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Tenants[0].Records; got != p.Result.Records {
			t.Fatalf("replay served %d records, profile holds %d", got, p.Result.Records)
		}
		return after.HeapAlloc - before.HeapAlloc
	}
	small := replayHeap(1_000_000)
	big := replayHeap(100_000_000)
	t.Logf("replay live-heap growth: 1M steps %d B, 100M steps %d B", small, big)
	// Absolute ceiling: far below the 1.6 GB a materialised 100M-step
	// timeline would occupy, generous enough for result assembly noise.
	if limit := uint64(64 << 20); big > limit {
		t.Errorf("100M-step replay grew the live heap by %d B, ceiling %d", big, limit)
	}
	// Independence: 100x the timeline must not cost more than the short
	// replay plus slack — peak heap scales with the window, not the trace.
	if big > small+(8<<20) {
		t.Errorf("live-heap growth scales with timeline length: %d B at 100M steps vs %d B at 1M", big, small)
	}
}

// FuzzStreamingWindows fuzzes the representation axis: random timelines
// (drains included) cut by random churn windows, encoded with fuzzed
// segment sizes and replayed through fuzzed window sizes, must replay
// deep-equal to the materialised sliceTimeline path, and the cursor must
// see exactly the churnLimit prefix. Seeds pin the corner the issue
// names: drains and arrivals/departures landing exactly on window edges.
func FuzzStreamingWindows(f *testing.F) {
	// Window 4, segment 4, drain at step 3, departure exactly on the
	// cycle of step 7 (the last step of the second window).
	f.Add([]byte{4, 4, 0, 56}, uint16(3), uint16(7))
	// Segment 1 (every step its own segment), window 1, departure one
	// cycle before an arrival-shifted drain.
	f.Add([]byte{1, 1, 8, 55}, uint16(0), uint16(5))
	// Window larger than the timeline, arrival after the departure of a
	// sibling; mass cut at cycle 0.
	f.Add([]byte{9, 2, 16, 1}, uint16(1), uint16(2))
	f.Fuzz(func(t *testing.T, knobs []byte, drainAt, departStep uint16) {
		if len(knobs) < 4 {
			t.Skip()
		}
		window := int(knobs[0])%9 + 1
		segSteps := int(knobs[1])%9 + 1
		arrive := uint64(knobs[2])
		const n = 12
		steps := make([]step, n)
		for i := range steps {
			steps[i] = step{cycle: uint64(i) * 8, bits: 40 + uint32(i), cost: 12}
		}
		d := int(drainAt) % n
		steps[d] = step{cycle: steps[d].cycle, bits: drainMark}
		// Departure aligned to a step's shifted cycle (or off the end).
		depart := uint64(0)
		if ds := int(departStep) % (n + 4); ds < n {
			depart = steps[ds].cycle + arrive
			if depart <= arrive {
				depart = arrive + 1
			}
		}
		if knobs[3]%2 == 1 && depart != 0 {
			depart++ // also probe one-past-a-step alignment
		}
		enc, err := encodeSteps(steps, segSteps)
		if err != nil {
			t.Fatal(err)
		}
		// Cursor vs churnLimit oracle.
		want := steps[:churnLimit(steps, arrive, depart)]
		var cur stepCursor
		cur.open(enc, make([]step, window), arrive, depart)
		var got []step
		for !cur.done() {
			got = append(got, cur.head())
			cur.advance()
		}
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("seg %d win %d arrive %d depart %d: cursor saw %d steps, oracle holds %d",
				segSteps, window, arrive, depart, len(got), len(want))
		}
		// Full-replay differential: one churned tenant plus one resident.
		mk := func(tl Timeline, arrive, depart uint64) *Profile {
			p := synthProfile("fuzz-stream", steps, 400)
			cp := *p
			cp.tl = tl
			cp.Tenant.ArriveAt, cp.Tenant.DepartAfter = arrive, depart
			return &cp
		}
		slice := []*Profile{mk(sliceTimeline(steps), arrive, depart), mk(sliceTimeline(steps), 0, 0)}
		stream := []*Profile{mk(enc, arrive, depart), mk(enc, 0, 0)}
		pool := PoolConfig{Cores: 2, Policy: PolicyLeastLag, MigrationPenalty: 64}
		wantRes, err := replayMode(context.Background(), slice, pool, replayOpts{window: 1 << 16})
		if err != nil {
			t.Fatal(err)
		}
		gotRes, err := replayMode(context.Background(), stream, pool, replayOpts{window: window})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotRes, wantRes) {
			a, _ := json.Marshal(gotRes)
			b, _ := json.Marshal(wantRes)
			t.Errorf("seg %d win %d: streaming replay diverges\nstreaming:    %s\nmaterialised: %s", segSteps, window, a, b)
		}
	})
}
