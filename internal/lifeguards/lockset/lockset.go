// Package lockset implements the LockSet lifeguard: it "detects possible
// data races in multithreaded programs using the LockSet algorithm" (paper
// §3, after Savage et al.'s Eraser, TOCS 1997).
//
// For every shared variable (an 8-byte word of heap or global memory) the
// lifeguard maintains a state machine and a candidate lockset C(v) — the
// set of locks that has protected *every* access so far. On each access,
// C(v) is intersected with the locks the accessing thread currently holds;
// if C(v) becomes empty while the variable is in the shared-modified state,
// no single lock protects the variable, and a race is reported.
//
// States follow Eraser: Virgin → Exclusive(t) (first thread only) →
// Shared (read by a second thread) / SharedModified (written by a second
// thread). Stack addresses are thread-private and filtered early, as in
// Eraser.
package lockset

import (
	"fmt"

	"repro/internal/event"
	"repro/internal/isa"
	"repro/internal/lifeguard"
)

// Variable states.
const (
	stVirgin byte = iota
	stExclusive
	stShared
	stSharedMod
)

// Handler instruction budgets.
const (
	// Eraser's per-access path is the most expensive of the three
	// lifeguards: hash the word address into the shadow index, decode the
	// state machine, fetch the candidate lockset, intersect it with the
	// thread's held set, and write the refined set back.
	costFilter    = 8  // region filter + word-address hash
	costStateStep = 42 // state decode + lockset fetch/writeback setup
	costPerLock   = 6  // per element of the intersection loop
	costLockOp    = 48 // insert/remove on the thread's sorted lock list
)

// wordShift selects the 8-byte monitoring granularity.
const wordShift = 3

// varChunk is how many variable records newVar allocates at a time.
const varChunk = 256

// varInfo is one word's monitoring state; the zero value is stVirgin.
type varInfo struct {
	state byte
	owner uint8    // valid in stExclusive
	cset  []uint64 // candidate lockset, sorted; nil means "all locks"
}

// LockSet is the Eraser-style data-race lifeguard.
type LockSet struct {
	meter lifeguard.Meter
	// held[tid] is the sorted set of lock addresses thread tid holds.
	held map[uint8][]uint64
	// vars maps word address -> monitoring state. The metered shadow
	// accesses model the per-word shadow index Eraser maintains.
	vars       map[uint64]*varInfo
	spare      []varInfo // unused records of the current chunk (newVar)
	reported   map[uint64]bool
	violations []lifeguard.Violation
}

// New returns a LockSet charging its work to meter.
func New(meter lifeguard.Meter) *LockSet {
	return &LockSet{
		meter:    meter,
		held:     make(map[uint8][]uint64),
		vars:     make(map[uint64]*varInfo),
		reported: make(map[uint64]bool),
	}
}

// Name implements lifeguard.Lifeguard.
func (l *LockSet) Name() string { return "LockSet" }

// Violations implements lifeguard.Lifeguard.
func (l *LockSet) Violations() []lifeguard.Violation { return l.violations }

// Finish implements lifeguard.Lifeguard (nothing to finalise).
func (l *LockSet) Finish() {}

// Handlers implements lifeguard.Lifeguard.
func (l *LockSet) Handlers() map[event.Type]lifeguard.Handler {
	return map[event.Type]lifeguard.Handler{
		event.TLoad:   l.onRead,
		event.TStore:  l.onWrite,
		event.TLock:   l.onLock,
		event.TUnlock: l.onUnlock,
	}
}

func (l *LockSet) onLock(seq uint64, r *event.Record) {
	l.meter.Instr(costLockOp)
	l.meter.Shadow(r.Addr, 8, true) // lock metadata touch
	set := l.held[r.TID]
	// Sorted insert (sets are tiny: programs hold a handful of locks).
	i := 0
	for i < len(set) && set[i] < r.Addr {
		i++
	}
	if i < len(set) && set[i] == r.Addr {
		return // re-acquisition recorded once
	}
	set = append(set, 0)
	copy(set[i+1:], set[i:])
	set[i] = r.Addr
	l.held[r.TID] = set
}

func (l *LockSet) onUnlock(seq uint64, r *event.Record) {
	l.meter.Instr(costLockOp)
	l.meter.Shadow(r.Addr, 8, true)
	set := l.held[r.TID]
	for i, a := range set {
		if a == r.Addr {
			l.held[r.TID] = append(set[:i], set[i+1:]...)
			return
		}
	}
}

func (l *LockSet) onRead(seq uint64, r *event.Record)  { l.onAccess(seq, r, false) }
func (l *LockSet) onWrite(seq uint64, r *event.Record) { l.onAccess(seq, r, true) }

// onAccess runs the Eraser state machine for one memory access.
func (l *LockSet) onAccess(seq uint64, r *event.Record, write bool) {
	l.meter.Instr(costFilter)
	region := isa.RegionOf(r.Addr)
	if region != isa.RegionHeap && region != isa.RegionData {
		return // stack and code are thread-private / immutable
	}

	word := r.Addr >> wordShift
	// Shadow-word lookup: the per-variable state index.
	l.meter.Shadow(word<<wordShift, 8, false)
	v := l.vars[word]
	if v == nil {
		v = l.newVar()
		l.vars[word] = v
	}

	l.meter.Instr(costStateStep)
	switch v.state {
	case stVirgin:
		v.state = stExclusive
		v.owner = r.TID
		l.meter.Shadow(word<<wordShift, 8, true)

	case stExclusive:
		if r.TID == v.owner {
			return // still thread-private
		}
		// Second thread: variable becomes shared; C(v) starts as the
		// current thread's lockset.
		if write {
			v.state = stSharedMod
		} else {
			v.state = stShared
		}
		v.cset = append([]uint64(nil), l.held[r.TID]...)
		l.meter.Instr(uint64(costPerLock * len(v.cset)))
		l.meter.Shadow(word<<wordShift, 8, true)
		l.check(seq, r, v)

	case stShared:
		if write {
			v.state = stSharedMod
		}
		l.intersect(v, r.TID)
		l.meter.Shadow(word<<wordShift, 8, true)
		l.check(seq, r, v)

	case stSharedMod:
		l.intersect(v, r.TID)
		l.meter.Shadow(word<<wordShift, 8, true)
		l.check(seq, r, v)
	}
}

// newVar returns a virgin variable record, carved from a chunk so that a
// program touching many shared words allocates once per chunk, not once
// per word.
func (l *LockSet) newVar() *varInfo {
	if len(l.spare) == 0 {
		l.spare = make([]varInfo, varChunk)
	}
	v := &l.spare[0]
	l.spare = l.spare[1:]
	return v
}

// intersect refines C(v) with the accessing thread's held locks.
func (l *LockSet) intersect(v *varInfo, tid uint8) {
	held := l.held[tid]
	l.meter.Instr(uint64(costPerLock * (len(v.cset) + 1)))
	out := v.cset[:0]
	for _, lock := range v.cset {
		if containsSorted(held, lock) {
			out = append(out, lock)
		}
	}
	v.cset = out
}

func containsSorted(set []uint64, x uint64) bool {
	for _, a := range set {
		if a == x {
			return true
		}
		if a > x {
			return false
		}
	}
	return false
}

// check reports a race when the candidate set is empty in shared-modified
// state; each word is reported once.
func (l *LockSet) check(seq uint64, r *event.Record, v *varInfo) {
	if v.state != stSharedMod || len(v.cset) != 0 {
		return
	}
	word := r.Addr >> wordShift
	if l.reported[word] {
		return
	}
	l.reported[word] = true
	l.violations = append(l.violations, lifeguard.Violation{
		Kind: "data-race",
		Seq:  seq,
		PC:   r.PC,
		Addr: r.Addr,
		TID:  r.TID,
		Msg: fmt.Sprintf("word %#x written by multiple threads with no common lock",
			word<<wordShift),
	})
}

// HeldLocks reports thread tid's current lockset; for tests.
func (l *LockSet) HeldLocks(tid uint8) []uint64 {
	return append([]uint64(nil), l.held[tid]...)
}

// VarState reports the Eraser state of the word containing addr; for tests.
func (l *LockSet) VarState(addr uint64) (state byte, cset []uint64, known bool) {
	v := l.vars[addr>>wordShift]
	if v == nil {
		return 0, nil, false
	}
	return v.state, append([]uint64(nil), v.cset...), true
}
