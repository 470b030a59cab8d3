// Package logbuf models the LBA log transport: a bounded buffer in the
// memory hierarchy that decouples the application core (producer) from the
// lifeguard core (consumer).
//
// Per the paper (§2): "the application core and the lifeguard core are not
// synchronized. They coordinate only through the log buffer, and hence log
// entry consumption at the lifeguard core typically lags behind event
// retirement on the application core." The only interlocks are:
//
//   - backpressure: a full buffer stalls the application core, and
//   - containment: at a syscall the application stalls until the lifeguard
//     has consumed every record produced before the syscall.
//
// The Channel implements an exact discrete-time model of this coupling: the
// caller reports when each record is produced (application cycle), how big
// it is (compressed bits), and how long the lifeguard takes to process it;
// the Channel computes consumption times, stalls, and the resulting wall
// clock.
//
// # Performance notes
//
// Produce/ProduceAt/Drain are the per-record inner loop of every replay
// (internal/tenant batches millions of them per pool cell), so the Channel
// is written to stay allocation-free in steady state: the in-flight ring
// is a power-of-two slice addressed by mask (no modulo in push/pop) that
// only grows when occupancy exceeds its capacity, and Reset returns a
// Channel to its initial state while retaining the grown ring — the hook
// the tenant replay's buffer arena uses to reuse channels across replays.
// See docs/performance.md for measured costs.
package logbuf

import "sync"

// Config sizes the transport.
type Config struct {
	// CapacityBytes is the log buffer size. The paper's design places the
	// buffer in the cache hierarchy; 64 KiB (one eighth of the shared L2)
	// is the default design point.
	CapacityBytes uint64
	// TransportLatency is the pipeline delay, in cycles, between a record
	// retiring on the application core and becoming visible to the
	// lifeguard core (compression, L2 traversal, decompression). It adds
	// lag, not throughput cost.
	TransportLatency uint64
}

// DefaultConfig returns the evaluation's transport configuration.
func DefaultConfig() Config {
	return Config{CapacityBytes: 64 << 10, TransportLatency: 30}
}

// Configuration clamp bounds. Tiny buffers are legitimate (degenerate)
// design points — a record that outgrows the buffer simply degrades to
// synchronous operation — but a capacity so large its bit count overflows
// arithmetic, or a transport latency beyond any plausible pipeline, is
// outside the model's design space; absurd values are clamped rather than
// rejected so sweeps that shade into nonsense degrade gracefully instead
// of wedging the discrete-time model.
const (
	MaxCapacityBytes    = 1 << 30 // 1 GiB; beyond this the buffer never fills
	MaxTransportLatency = 1 << 20 // ~1M cycles; beyond this lag is meaningless
)

// Normalised returns cfg with zero and absurd values replaced: the
// all-zero Config selects the full default design point (preserving the
// documented zero-value behaviour), a zero capacity alone takes the
// default capacity, and out-of-range values clamp to the bounds above.
func (cfg Config) Normalised() Config {
	if cfg == (Config{}) {
		return DefaultConfig()
	}
	if cfg.CapacityBytes == 0 {
		cfg.CapacityBytes = DefaultConfig().CapacityBytes
	}
	if cfg.CapacityBytes > MaxCapacityBytes {
		cfg.CapacityBytes = MaxCapacityBytes
	}
	if cfg.TransportLatency > MaxTransportLatency {
		cfg.TransportLatency = MaxTransportLatency
	}
	return cfg
}

// Stats describes transport behaviour over a run.
type Stats struct {
	Produced       uint64 // records pushed
	TotalBits      uint64 // compressed bits moved
	StallEvents    uint64 // producer stalls due to a full buffer
	StallCycles    uint64 // cycles the producer lost to backpressure
	DrainEvents    uint64 // containment drains (syscalls)
	DrainCycles    uint64 // cycles the producer lost to drains
	MaxOccupancyB  uint64 // high-water mark, bytes
	FinalLagCycles uint64 // lifeguard lag at the end of the run
}

type entry struct {
	bits   uint64
	finish uint64 // cycle at which the lifeguard finishes this record
}

// Channel is the discrete-time producer/consumer model. It is not safe for
// concurrent use; the simulation is single-threaded and deterministic.
type Channel struct {
	cfg          Config
	capacityBits uint64

	// ring is a power-of-two circular buffer addressed through mask, so
	// push/pop run without a modulo — they are the replay's innermost ops.
	ring  []entry
	mask  int
	head  int
	count int

	inflightBits uint64
	lastFinish   uint64 // lifeguard-side completion time of the newest record

	stats Stats
}

// New returns a channel with the given configuration, normalised per
// Config.Normalised.
func New(cfg Config) *Channel {
	ch := &Channel{ring: make([]entry, 1024), mask: 1023}
	ch.Reset(cfg)
	return ch
}

// channels holds released channels, ring included, for runs that each
// need one channel for their whole length (core.RunLBA, a tenant's
// dedicated-core walk): without it every run regrows a ring from 1024
// entries, to about 2 MB for a profiled suite tenant. The pool empties
// itself over two collections, so idle rings do not stay on the heap.
var channels = sync.Pool{New: func() any { return New(Config{}) }}

// Get returns a channel reset to cfg, reusing a released channel's ring
// when the pool holds one. A reset channel is observationally identical
// to a fresh one (Reset), so Get can change only allocation counts.
func Get(cfg Config) *Channel {
	ch := channels.Get().(*Channel)
	ch.Reset(cfg)
	return ch
}

// Put releases ch for a later Get. The caller must not use ch again.
func Put(ch *Channel) { channels.Put(ch) }

// Reset returns the channel to its initial state under cfg (normalised per
// Config.Normalised), retaining the allocated ring. It is the buffer-reuse
// hook for callers that replay many runs back to back — a reset channel is
// observationally identical to a freshly constructed one, so reuse cannot
// change results, only allocation counts.
func (ch *Channel) Reset(cfg Config) {
	cfg = cfg.Normalised()
	ch.cfg = cfg
	ch.capacityBits = cfg.CapacityBytes * 8
	ch.head, ch.count = 0, 0
	ch.inflightBits, ch.lastFinish = 0, 0
	ch.stats = Stats{}
}

// Config returns the channel's normalised configuration.
func (ch *Channel) Config() Config { return ch.cfg }

// Stats returns a copy of the accumulated statistics.
func (ch *Channel) Stats() Stats {
	s := ch.stats
	return s
}

// Occupancy returns the bytes currently in flight (produced, not consumed)
// assuming the producer clock is at appCycle.
func (ch *Channel) Occupancy(appCycle uint64) uint64 {
	ch.drainConsumed(appCycle)
	return ch.inflightBits / 8
}

// LifeguardFinish returns the lifeguard-side cycle at which every record
// produced so far has been consumed.
func (ch *Channel) LifeguardFinish() uint64 { return ch.lastFinish }

func (ch *Channel) push(e entry) {
	if ch.count == len(ch.ring) {
		ch.grow()
	}
	ch.ring[(ch.head+ch.count)&ch.mask] = e
	ch.count++
}

// grow doubles the ring, unwrapping the live entries to the front. Cold:
// it runs only when occupancy first exceeds the current ring size.
func (ch *Channel) grow() {
	grown := make([]entry, len(ch.ring)*2)
	for i := 0; i < ch.count; i++ {
		grown[i] = ch.ring[(ch.head+i)&ch.mask]
	}
	ch.ring = grown
	ch.mask = len(grown) - 1
	ch.head = 0
}

func (ch *Channel) front() *entry { return &ch.ring[ch.head] }

func (ch *Channel) pop() {
	ch.inflightBits -= ch.front().bits
	ch.head = (ch.head + 1) & ch.mask
	ch.count--
}

// drainConsumed removes records the lifeguard has finished by appCycle.
func (ch *Channel) drainConsumed(appCycle uint64) {
	for ch.count > 0 && ch.front().finish <= appCycle {
		ch.pop()
	}
}

// Produce records that the application emitted one record at appCycle with
// the given compressed size and lifeguard processing cost (dispatch +
// handler cycles). It returns the backpressure stall imposed on the
// application core (0 in the common, decoupled case).
func (ch *Channel) Produce(appCycle uint64, bits uint64, lgCost uint64) (stall uint64) {
	stall, _ = ch.ProduceAt(appCycle, bits, lgCost, 0)
	return stall
}

// ProduceAt is Produce with an external lower bound on when the consumer
// may begin this record: startFloor is the cycle at which the lifeguard
// core serving this channel becomes free. A dedicated lifeguard core has
// floor 0 (ordering alone gates consumption); a core shared across
// tenants (internal/tenant) is busy with other channels' records until
// the pool scheduler's clock says otherwise. It additionally returns the
// cycle at which the lifeguard finishes the record, which is what a
// shared-pool scheduler feeds back as the next floor.
func (ch *Channel) ProduceAt(appCycle, bits, lgCost, startFloor uint64) (stall, finish uint64) {
	// The ring cursors live in locals for the whole call — drain, stall
	// and push all mutate them, and this function is the innermost op of
	// every replay, so a handful of avoided loads and stores per record
	// is measurable. Written back once before returning.
	ring, mask := ch.ring, ch.mask
	head, count, inflight := ch.head, ch.count, ch.inflightBits

	// Drop records the lifeguard has finished by appCycle (drainConsumed).
	for count > 0 && ring[head].finish <= appCycle {
		inflight -= ring[head].bits
		head = (head + 1) & mask
		count--
	}

	// Backpressure: wait for the oldest records to be consumed until the
	// new one fits. A record larger than the whole buffer degenerates to
	// fully-synchronous operation (wait for empty, then accept).
	stalledTo := appCycle
	for count > 0 && inflight+bits > ch.capacityBits {
		if f := ring[head].finish; f > stalledTo {
			stalledTo = f
		}
		inflight -= ring[head].bits
		head = (head + 1) & mask
		count--
	}
	if stalledTo > appCycle {
		stall = stalledTo - appCycle
		ch.stats.StallEvents++
		ch.stats.StallCycles += stall
	}

	// The record becomes visible to the lifeguard after the transport
	// pipeline delay; the lifeguard processes records in order, and no
	// earlier than its core frees up.
	ready := stalledTo + ch.cfg.TransportLatency
	start := ready
	if ch.lastFinish > start {
		start = ch.lastFinish
	}
	if startFloor > start {
		start = startFloor
	}
	finish = start + lgCost
	ch.lastFinish = finish

	if count == len(ring) {
		ch.head, ch.count = head, count
		ch.grow()
		ring, mask, head = ch.ring, ch.mask, ch.head
	}
	ring[(head+count)&mask] = entry{bits: bits, finish: finish}
	count++
	inflight += bits
	ch.head, ch.count, ch.inflightBits = head, count, inflight

	if b := inflight / 8; b > ch.stats.MaxOccupancyB {
		ch.stats.MaxOccupancyB = b
	}
	ch.stats.Produced++
	ch.stats.TotalBits += bits
	return stall, finish
}

// Drain implements the syscall containment rule: the application, at
// appCycle, must wait until the lifeguard has consumed every record
// produced so far. Returns the stall imposed on the application core.
func (ch *Channel) Drain(appCycle uint64) (stall uint64) {
	if ch.lastFinish > appCycle {
		stall = ch.lastFinish - appCycle
		ch.stats.DrainCycles += stall
	}
	ch.stats.DrainEvents++
	// Everything is consumed once the app resumes.
	for ch.count > 0 {
		ch.pop()
	}
	return stall
}

// Finish closes the run: given the application's final cycle, it returns
// the wall-clock cycle at which the lifeguard finishes the remaining log.
func (ch *Channel) Finish(appCycle uint64) (wall uint64) {
	wall = appCycle
	if ch.lastFinish > wall {
		wall = ch.lastFinish
		ch.stats.FinalLagCycles = ch.lastFinish - appCycle
	}
	return wall
}
