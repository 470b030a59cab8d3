package tenant

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// This file is the bounded-window timeline pipeline. Profiling no longer
// materialises a tenant's full []step in memory: the recorder packs steps
// into fixed-size delta-encoded segments (VPC-style — varint cycle deltas
// and small varint bits/cost fields), the memo layer caches those compact
// segments, and replay consumes them through a StepSource iterator into a
// small ring of decoded windows recycled as tenants retire them. Replay
// timing is bit-for-bit identical to the materialised path: the encoding
// is lossless and the merge still sees exactly the same step sequence.

// Width contract of the step encoding. A record step carries its
// compressed size and lifeguard cost as uint32 fields; bits additionally
// shares its field with the drain sentinel. The capture boundary
// (recorder.Record) and the synthetic-timeline constructor reject values
// outside these bounds instead of silently narrowing them — a record
// whose size reached drainMark would replay as a syscall drain.
const (
	// maxStepBits is the largest compressed record size one step can
	// carry: drainMark is reserved for syscall-drain steps.
	maxStepBits = uint64(drainMark) - 1
	// maxStepCost is the largest per-record lifeguard cost one step can
	// carry.
	maxStepCost = uint64(^uint32(0))
)

// segmentSteps is the recorder's segment granularity: how many steps one
// encoded segment holds. Segments are flushed to exact-size buffers, so
// the only over-allocation is the recorder's single in-progress buffer.
const segmentSteps = 4096

// DefaultStepWindow is the decoded-window size every replay reads
// timelines through: 1024 steps is 16 KiB of decoded steps per live
// tenant, comfortably L2-resident, and large enough that refill cost is
// noise (see docs/performance.md). Results do not depend on it; the
// tests drive other sizes through the replay's test seam (replayOpts).
const DefaultStepWindow = 1024

// StepSource streams a timeline's steps in order. Next fills dst with as
// many decoded steps as fit and returns how many it wrote; 0 means the
// source is exhausted (a source never returns 0 before exhaustion, but
// may return short, non-zero counts at segment boundaries). Sources are
// single-use and not safe for concurrent use; open a fresh one per
// traversal.
type StepSource interface {
	Next(dst []step) int
}

// Timeline is an immutable step sequence: the profile-side representation
// replay iterates via Open. Implementations must be safe for concurrent
// Open calls — profiles are shared through the memo cache and replayed
// concurrently.
type Timeline interface {
	// Len reports the total step count (records + drain points).
	Len() int
	// Open starts a fresh traversal from the first step.
	Open() StepSource
}

// segTimeline is the production timeline: delta-encoded step segments.
// Encoding (per step): varint(cycle - previous cycle), then varint(0) for
// a drain step or varint(bits+1) followed by varint(cost) for a record
// step. Cycle deltas chain across segments (segment N's first delta is
// relative to segment N-1's last cycle); a step never straddles a segment
// boundary. Typical profiled timelines encode to ~3 bytes/step against 16
// for the materialised form, and most steps are all single-byte varints:
// the encoder writes and the decoder reads such a byte directly, falling
// back to encoding/binary only for a value of 0x80 or more. Both forms
// produce and accept exactly the same bytes.
type segTimeline struct {
	segs [][]byte
	n    int
}

func (t *segTimeline) Len() int { return t.n }

func (t *segTimeline) Open() StepSource { return &segSource{segs: t.segs} }

// EncodedBytes reports the resident encoded size of the timeline.
func (t *segTimeline) EncodedBytes() int {
	total := 0
	for _, seg := range t.segs {
		total += len(seg)
	}
	return total
}

// segSource decodes a segTimeline in order. Decode errors panic: segments
// are produced only by timelineEncoder in this package, so a malformed
// byte is a corrupted internal invariant, not an input error.
type segSource struct {
	segs [][]byte
	si   int    // current segment
	off  int    // byte offset inside it
	prev uint64 // last decoded cycle (delta base)
}

// Panic messages of a corrupt or truncated segment, one per field.
const (
	corruptDelta = "tenant: corrupt step segment (cycle delta)"
	corruptCode  = "tenant: corrupt step segment (bits code)"
	corruptCost  = "tenant: corrupt step segment (cost)"
)

func (s *segSource) Next(dst []step) int {
	k := 0
	for k < len(dst) {
		for s.si < len(s.segs) && s.off >= len(s.segs[s.si]) {
			s.si++
			s.off = 0
		}
		if s.si >= len(s.segs) {
			break
		}
		seg, off, prev := s.segs[s.si], s.off, s.prev
		for ; k < len(dst) && off < len(seg); k++ {
			var v uint64
			if b := seg[off]; b < 0x80 {
				v, off = uint64(b), off+1
			} else {
				v, off = uvarintAt(seg, off, corruptDelta)
			}
			prev += v
			st := step{cycle: prev, bits: drainMark}
			if off < len(seg) && seg[off] < 0x80 {
				v, off = uint64(seg[off]), off+1
			} else {
				v, off = uvarintAt(seg, off, corruptCode)
			}
			if v != 0 {
				st.bits = uint32(v - 1)
				if off < len(seg) && seg[off] < 0x80 {
					st.cost, off = uint32(seg[off]), off+1
				} else {
					v, off = uvarintAt(seg, off, corruptCost)
					st.cost = uint32(v)
				}
			}
			dst[k] = st
		}
		s.off, s.prev = off, prev
	}
	return k
}

// uvarintAt decodes the varint at seg[off:] and returns it with the
// offset past it; a truncated or overlong varint panics with msg.
func uvarintAt(seg []byte, off int, msg string) (uint64, int) {
	v, w := binary.Uvarint(seg[off:])
	if w <= 0 {
		panic(msg)
	}
	return v, off + w
}

// timelineEncoder packs steps into the segment encoding incrementally.
// The recorder feeds it from the TransportObserver callbacks, so profiling
// holds one in-progress segment buffer plus the finished exact-size
// segments — never the decoded timeline.
type timelineEncoder struct {
	segSteps int // steps per segment; <= 0 selects segmentSteps
	segs     [][]byte
	buf      []byte
	inSeg    int
	n        int
	prev     uint64 // last appended cycle (delta base, chained across segments)
}

func (e *timelineEncoder) append(s step) error {
	if s.cycle < e.prev {
		return fmt.Errorf("tenant: step at cycle %d precedes its predecessor at %d; timelines are non-decreasing by the application-clock contract", s.cycle, e.prev)
	}
	delta, code := s.cycle-e.prev, uint64(0)
	if s.bits != drainMark {
		code = uint64(s.bits) + 1
	}
	switch {
	case delta < 0x80 && code == 0:
		e.buf = append(e.buf, byte(delta), 0)
	case delta < 0x80 && code < 0x80 && s.cost < 0x80:
		e.buf = append(e.buf, byte(delta), byte(code), byte(s.cost))
	default:
		e.buf = binary.AppendUvarint(e.buf, delta)
		e.buf = binary.AppendUvarint(e.buf, code)
		if code != 0 {
			e.buf = binary.AppendUvarint(e.buf, uint64(s.cost))
		}
	}
	e.prev = s.cycle
	e.inSeg++
	e.n++
	limit := e.segSteps
	if limit <= 0 {
		limit = segmentSteps
	}
	if e.inSeg >= limit {
		e.flush()
	}
	return nil
}

func (e *timelineEncoder) flush() {
	if e.inSeg == 0 {
		return
	}
	seg := make([]byte, len(e.buf))
	copy(seg, e.buf)
	e.segs = append(e.segs, seg)
	e.buf = e.buf[:0]
	e.inSeg = 0
}

func (e *timelineEncoder) finish() *segTimeline {
	e.flush()
	return &segTimeline{segs: e.segs, n: e.n}
}

// genTimeline is a generator-backed timeline: steps are produced on the
// fly from a pure function of the index, so a 100M-step synthetic tenant
// occupies O(1) memory. gen must be deterministic — every Open must see
// the same sequence — and its output is width-validated once at
// construction (NewSyntheticProfile).
type genTimeline struct {
	n   int
	gen func(i int) SyntheticStep
}

func (t *genTimeline) Len() int { return t.n }

func (t *genTimeline) Open() StepSource { return &genSource{t: t} }

type genSource struct {
	t *genTimeline
	i int
}

func (s *genSource) Next(dst []step) int {
	k := 0
	for k < len(dst) && s.i < s.t.n {
		g := s.t.gen(s.i)
		st := step{cycle: g.Cycle, bits: drainMark}
		if !g.Drain {
			st.bits = uint32(g.Bits)
			st.cost = uint32(g.Cost)
		}
		dst[k] = st
		s.i++
		k++
	}
	return k
}

// stepCursor is a tenant's windowed read position in its timeline: replay
// looks at head(), advances, and the cursor refills its window from the
// source as it drains. The churn window (arrive/depart) truncates the
// stream exactly where churnLimit would have cut the materialised slice:
// the first step whose shifted cycle passes the departure ends the
// stream. A cursor is opened over a caller-supplied window buffer (drawn
// from the replay's windowRing) and must not be copied once opened.
type stepCursor struct {
	src     StepSource
	seg     segSource // inline storage for segment timelines (avoids a per-open allocation)
	win     []step
	pos, n  int
	srcDone bool
	arrive  uint64
	depart  uint64 // 0 = never departs
}

// open starts the cursor at the timeline's first step. A nil timeline is
// a valid empty timeline (profiles built by tests may omit it).
func (c *stepCursor) open(tl Timeline, win []step, arrive, depart uint64) {
	c.win = win
	c.pos, c.n = 0, 0
	c.srcDone = false
	c.arrive, c.depart = arrive, depart
	switch t := tl.(type) {
	case nil:
		c.src = nil
		c.srcDone = true
	case *segTimeline:
		c.seg = segSource{segs: t.segs}
		c.src = &c.seg
	default:
		c.src = tl.Open()
	}
	c.fill()
}

// fill refills the window from the source and applies the churn
// truncation: once any decoded step's shifted cycle passes the departure,
// the stream ends at the first such step (steps are in non-decreasing
// cycle order, so the active window is a prefix — the same prefix
// churnLimit selects).
func (c *stepCursor) fill() {
	if c.srcDone {
		c.pos, c.n = 0, 0
		return
	}
	c.pos = 0
	c.n = c.src.Next(c.win)
	if c.n == 0 {
		c.srcDone = true
		return
	}
	if c.depart != 0 && c.win[c.n-1].cycle+c.arrive > c.depart {
		c.n = sort.Search(c.n, func(i int) bool { return c.win[i].cycle+c.arrive > c.depart })
		c.srcDone = true
	}
}

func (c *stepCursor) done() bool { return c.pos >= c.n }

// head returns the current step; callers must check done() first.
func (c *stepCursor) head() step { return c.win[c.pos] }

func (c *stepCursor) advance() {
	c.pos++
	if c.pos >= c.n && !c.srcDone {
		c.fill()
	}
}

// close releases the cursor's window back to the ring and drops its
// source, so neither the arena nor a retired tenant retains decoded state.
func (c *stepCursor) close(ring *windowRing) {
	if c.win != nil {
		ring.put(c.win)
		c.win = nil
	}
	c.src = nil
	c.seg = segSource{}
	c.srcDone = true
}

// windowRing recycles decoded-step window buffers within a replay and,
// held in the arena, across replays: retiring tenants return their
// windows for later scratch use, and finish() returns the rest, so
// steady-state replays allocate no window memory at all. Buffers of a
// stale size (a test replayed at another window) are dropped rather than
// reused.
type windowRing struct {
	size int
	free [][]step
}

func (r *windowRing) reset(size int) {
	if r.size != size {
		r.free = r.free[:0]
		r.size = size
	}
}

func (r *windowRing) get() []step {
	if n := len(r.free); n > 0 {
		w := r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
		return w
	}
	return make([]step, r.size)
}

func (r *windowRing) put(w []step) {
	if len(w) == r.size {
		r.free = append(r.free, w)
	}
}
