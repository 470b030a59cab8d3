package mem

import "fmt"

// Latencies gives the access times of each level in core cycles. The values
// are additive along the miss path: an L1 miss that hits in L2 costs
// L1Hit+L2Hit; an L2 miss costs L1Hit+L2Hit+DRAM.
type Latencies struct {
	L1Hit uint64
	L2Hit uint64
	DRAM  uint64
}

// DefaultLatencies are the latencies used throughout the evaluation.
func DefaultLatencies() Latencies {
	return Latencies{L1Hit: 1, L2Hit: 10, DRAM: 100}
}

// HierarchyConfig describes the full cache hierarchy of the simulated chip
// multiprocessor.
type HierarchyConfig struct {
	Cores int // number of cores, each with private split L1s
	L1I   CacheConfig
	L1D   CacheConfig
	L2    CacheConfig // shared
	Lat   Latencies
}

// DefaultHierarchyConfig returns the paper's configuration: 16KB private
// split L1 caches and a 512KB shared L2, for the given core count.
func DefaultHierarchyConfig(cores int) HierarchyConfig {
	return HierarchyConfig{
		Cores: cores,
		L1I:   CacheConfig{Name: "L1I", SizeB: 16 << 10, Assoc: 2, LineB: 64},
		L1D:   CacheConfig{Name: "L1D", SizeB: 16 << 10, Assoc: 2, LineB: 64, WriteBck: true},
		L2:    CacheConfig{Name: "L2", SizeB: 512 << 10, Assoc: 8, LineB: 64, WriteBck: true},
		Lat:   DefaultLatencies(),
	}
}

// Hierarchy models the chip's cache hierarchy: per-core private split L1
// caches in front of one shared L2. It provides per-core Ports through
// which the CPU (and the lifeguard dispatch engine) issue timed accesses.
type Hierarchy struct {
	cfg   HierarchyConfig
	l2    Cache
	ports []Port
	// L2 bandwidth accounting for the log transport (bytes moved through
	// the shared cache on behalf of the log).
	logBytes uint64
	// solo, once MirrorSoloL2 is called, is the L2 core 0 would have were
	// it alone on the chip: core 0's L2 traffic goes to it as well.
	// sharedDRAM and soloDRAM add up the DRAM latency core 0 paid on the
	// shared L2 and would have paid on the solo one.
	solo                 *Cache
	sharedDRAM, soloDRAM uint64
}

// NewHierarchy builds the hierarchy. It panics on invalid configuration.
// The ports and caches are held by value, so beyond its caches' tag
// arrays a hierarchy costs two allocations: itself and its ports.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	if cfg.Cores <= 0 {
		panic(fmt.Errorf("mem: hierarchy needs at least one core, got %d", cfg.Cores))
	}
	h := &Hierarchy{cfg: cfg, ports: make([]Port, cfg.Cores)}
	h.l2.init(cfg.L2)
	for i := range h.ports {
		p := &h.ports[i]
		p.hier, p.core = h, i
		p.l1i.init(cfg.L1I)
		p.l1d.init(cfg.L1D)
	}
	return h
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// Port returns core i's access port.
func (h *Hierarchy) Port(i int) *Port { return &h.ports[i] }

// L2Stats returns the shared L2 statistics.
func (h *Hierarchy) L2Stats() CacheStats { return h.l2.Stats() }

// ChargeLogTransport accounts n bytes of log traffic moving through the L2.
// The log transport medium in the paper is the cache hierarchy; we track the
// bandwidth it consumes so the ablations can report it.
func (h *Hierarchy) ChargeLogTransport(n uint64) { h.logBytes += n }

// LogTransportBytes reports the cumulative log traffic through the L2.
func (h *Hierarchy) LogTransportBytes() uint64 { return h.logBytes }

// MirrorSoloL2 gives core 0 a solo L2 of the shared one's geometry,
// which sees only core 0's traffic: its L1 misses and its dirty-victim
// writebacks. Call it before the first access. Core 0's L1s are private,
// so they see the same accesses whatever else runs on the chip; the solo
// L2 then holds exactly what the L2 of a one-core hierarchy would, and
// SoloCycles turns core 0's cycle count into that hierarchy's.
func (h *Hierarchy) MirrorSoloL2() {
	h.solo = NewCache(h.cfg.L2)
	h.ports[0].solo = h.solo
}

// SoloCycles converts cycles core 0 spent on this hierarchy into the
// cycles it would have spent with the solo L2 in place of the shared one
// (see MirrorSoloL2): the two differ only in which of core 0's L2
// accesses went on to DRAM.
func (h *Hierarchy) SoloCycles(cycles uint64) uint64 {
	return cycles - h.sharedDRAM + h.soloDRAM
}

// Port is one core's view of the hierarchy: private L1I and L1D backed by
// the shared L2. All methods return the access latency in cycles.
type Port struct {
	hier *Hierarchy
	core int
	l1i  Cache
	l1d  Cache
	solo *Cache // core 0's solo L2 once MirrorSoloL2 is called, else nil
}

// Core returns the owning core's index.
func (p *Port) Core() int { return p.core }

// L1IStats and L1DStats return the private cache statistics.
func (p *Port) L1IStats() CacheStats { return p.l1i.Stats() }

// L1DStats returns the private data-cache statistics.
func (p *Port) L1DStats() CacheStats { return p.l1d.Stats() }

// FetchInst charges an instruction fetch at pc and returns its latency.
func (p *Port) FetchInst(pc uint64) uint64 {
	return p.accessThrough(&p.l1i, pc, false)
}

// Data charges a data access of size bytes at addr (write if wr) and
// returns its latency. Accesses that straddle a line boundary are split and
// charged per line, like a real in-order core.
func (p *Port) Data(addr uint64, size uint8, wr bool) uint64 {
	if size == 0 {
		size = 1
	}
	lineB := uint64(p.l1d.cfg.LineB)
	first := addr &^ (lineB - 1)
	last := (addr + uint64(size) - 1) &^ (lineB - 1)
	lat := p.accessThrough(&p.l1d, addr, wr)
	for line := first + lineB; line <= last; line += lineB {
		lat += p.accessThrough(&p.l1d, line, wr)
	}
	return lat
}

// accessThrough performs the two-level lookup: L1, then shared L2, then
// DRAM, returning total latency. Dirty L1 victims are written back into
// the L2 (charged as an L2 access without extra latency on the critical
// path, the usual writeback-buffer assumption).
func (p *Port) accessThrough(l1 *Cache, addr uint64, wr bool) uint64 {
	lat := p.hier.cfg.Lat.L1Hit
	res := l1.Access(addr, wr)
	if res.Hit {
		return lat
	}
	if res.Writeback {
		p.hier.l2.Access(res.VictimAddr, true) // victim writeback, off critical path
	}
	lat += p.hier.cfg.Lat.L2Hit
	l2res := p.hier.l2.Access(addr, false)
	if p.solo != nil {
		p.mirror(res, addr, l2res.Hit)
	}
	if l2res.Hit {
		return lat
	}
	return lat + p.hier.cfg.Lat.DRAM
}

// mirror replays one L1 miss of core 0 (res, at addr) on the solo L2 in
// the order the shared L2 saw it, writeback first, and adds up the DRAM
// latency each L2 charges for it; sharedHit is the shared L2's outcome.
func (p *Port) mirror(res AccessResult, addr uint64, sharedHit bool) {
	h := p.hier
	if res.Writeback {
		p.solo.Access(res.VictimAddr, true)
	}
	if !p.solo.Access(addr, false).Hit {
		h.soloDRAM += h.cfg.Lat.DRAM
	}
	if !sharedHit {
		h.sharedDRAM += h.cfg.Lat.DRAM
	}
}
