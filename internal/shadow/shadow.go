// Package shadow provides the shadow-memory substrate used by lifeguards to
// track per-address metadata (allocation state for AddrCheck, taint bits
// for TaintCheck, variable state for LockSet).
//
// Shadow state lives in a disjoint region of the (simulated) address space;
// every access is reported to a lifeguard.Meter so the owning environment
// can price it — through the lifeguard core's caches in LBA mode, or the
// application core's caches in DBI mode (where shadow traffic competes with
// the application, one of the two overhead sources the paper attributes to
// software-only tools).
package shadow

import (
	"repro/internal/lifeguard"
	"repro/internal/mem"
)

// Base is the start of the shadow region in the simulated address space,
// far above all application regions.
const Base uint64 = 1 << 40

// AddrOf maps an application address to its shadow address at byte
// granularity.
func AddrOf(app uint64) uint64 { return Base + app }

// Memory is a byte-granular shadow map: one shadow byte per 2^granShift
// application bytes. The backing memory is private, so it is keyed by the
// shadow offset (app >> granShift) rather than by AddrOf: offsets of
// application addresses fall in mem.Memory's page directory, not its map.
// AddrOf stays the address meters charge to the caches.
type Memory struct {
	data  *mem.Memory
	gran  uint
	meter lifeguard.Meter
}

// New returns a shadow memory with one shadow byte per 2^granShift app
// bytes, charging accesses to meter.
func New(granShift uint, meter lifeguard.Meter) *Memory {
	return &Memory{data: mem.NewMemory(), gran: granShift, meter: meter}
}

// Get reads the shadow byte covering app.
func (s *Memory) Get(app uint64) byte {
	s.meter.Shadow(app>>s.gran, 1, false)
	return s.data.Byte(app >> s.gran)
}

// Set writes the shadow byte covering app.
func (s *Memory) Set(app uint64, v byte) {
	s.meter.Shadow(app>>s.gran, 1, true)
	s.data.SetByte(app>>s.gran, v)
}

// GetSpan reads the shadow bytes covering [app, app+size) into dst and
// returns the number of shadow bytes. It charges a single metered access
// (the span fits one shadow word for all ISA access sizes).
func (s *Memory) GetSpan(app uint64, size uint8, dst *[8]byte) int {
	first := app >> s.gran
	last := (app + uint64(size) - 1) >> s.gran
	n := int(last-first) + 1
	if n > 8 {
		n = 8
	}
	s.meter.Shadow(first, uint8(n), false)
	s.data.ReadBytes(first, dst[:n])
	return n
}

// SetRange sets every shadow byte covering [app, app+length) to v. The
// metered cost is one access per 64-byte shadow line, matching a hardware
// or memset-style fill rather than a byte loop.
func (s *Memory) SetRange(app, length uint64, v byte) {
	if length == 0 {
		return
	}
	first := app >> s.gran
	last := (app + length - 1) >> s.gran
	for line := first &^ 63; line <= last; line += 64 {
		s.meter.Shadow(line, 8, true)
	}
	s.data.Fill(first, last-first+1, v)
}

// AllInRange reports whether every shadow byte covering [app, app+size)
// equals v; a single metered access, like GetSpan.
func (s *Memory) AllInRange(app uint64, size uint8, v byte) bool {
	var span [8]byte
	n := s.GetSpan(app, size, &span)
	for i := 0; i < n; i++ {
		if span[i] != v {
			return false
		}
	}
	return true
}

// Footprint reports materialised shadow pages (tests and reports).
func (s *Memory) Footprint() uint64 { return s.data.Footprint() }
