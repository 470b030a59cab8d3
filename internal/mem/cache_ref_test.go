package mem

import (
	"math/rand"
	"testing"
)

// refCache is Cache.Access as a plain set scan, with no memo of the last
// line: the reference the memoized cache must match access for access.
type refCache struct {
	sets     [][]cacheLine
	setMask  uint64
	lineBits uint
	writeBck bool
	clock    uint64
	stats    CacheStats
}

func newRefCache(cfg CacheConfig) *refCache {
	c := NewCache(cfg) // borrow the geometry
	return &refCache{sets: c.sets, setMask: c.setMask, lineBits: c.lineBits, writeBck: cfg.WriteBck}
}

func (c *refCache) access(addr uint64, write bool) AccessResult {
	c.clock++
	c.stats.Accesses++
	tag := addr >> c.lineBits
	set := c.sets[tag&c.setMask]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.stats.Hits++
			set[i].lru = c.clock
			if write && c.writeBck {
				set[i].dirty = true
			}
			return AccessResult{Hit: true}
		}
	}
	c.stats.Misses++
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	res := AccessResult{}
	if set[victim].valid {
		c.stats.Evictions++
		if set[victim].dirty {
			c.stats.Writebacks++
			res.Writeback = true
			res.VictimAddr = set[victim].tag << c.lineBits
		}
	}
	set[victim] = cacheLine{tag: tag, valid: true, lru: c.clock}
	if write && c.writeBck {
		set[victim].dirty = true
	}
	return res
}

func (c *refCache) flush() {
	for _, set := range c.sets {
		for i := range set {
			if set[i].valid && set[i].dirty {
				c.stats.Writebacks++
			}
			set[i] = cacheLine{}
		}
	}
}

// refData is Port.Data over reference caches: the same line split and
// the same L1 → L2 → DRAM walk as accessThrough.
func refData(l1, l2 *refCache, lat Latencies, lineB, addr uint64, size uint8, wr bool) uint64 {
	through := func(a uint64) uint64 {
		res := l1.access(a, wr)
		if res.Hit {
			return lat.L1Hit
		}
		if res.Writeback {
			l2.access(res.VictimAddr, true)
		}
		if l2.access(a, false).Hit {
			return lat.L1Hit + lat.L2Hit
		}
		return lat.L1Hit + lat.L2Hit + lat.DRAM
	}
	first := addr &^ (lineB - 1)
	last := (addr + uint64(size) - 1) &^ (lineB - 1)
	total := through(addr)
	for line := first + lineB; line <= last; line += lineB {
		total += through(line)
	}
	return total
}

// nearAddr draws an address for a random access sequence: mostly a
// repeat of the previous line (same-line runs, at any offset), else one
// of a few lines per set, so sets fill, evict and write back.
func nearAddr(r *rand.Rand, prev uint64, lines int) uint64 {
	if r.Intn(3) > 0 {
		return prev&^63 | uint64(r.Intn(64))
	}
	return uint64(r.Intn(lines))*64 + uint64(r.Intn(64))
}

// The same-line memo in Cache.Access changes no outcome: random read and
// write sequences, with same-line runs and flushes, give the set scan's
// AccessResult on every access and its statistics after every step, for
// write-back and write-through caches.
func TestCacheMatchesSetScanReference(t *testing.T) {
	for _, cfg := range []CacheConfig{
		{Name: "wb", SizeB: 1024, Assoc: 2, LineB: 64, WriteBck: true},
		{Name: "wt", SizeB: 1024, Assoc: 2, LineB: 64},
		{Name: "direct", SizeB: 512, Assoc: 1, LineB: 64, WriteBck: true},
	} {
		for seed := int64(1); seed <= 20; seed++ {
			r := rand.New(rand.NewSource(seed))
			c, ref := NewCache(cfg), newRefCache(cfg)
			var addr uint64
			for step := 0; step < 5_000; step++ {
				if r.Intn(500) == 0 {
					c.Flush()
					ref.flush()
				} else {
					addr = nearAddr(r, addr, 64)
					wr := r.Intn(3) == 0
					if got, want := c.Access(addr, wr), ref.access(addr, wr); got != want {
						t.Fatalf("%s seed %d step %d: Access(%#x, %v) = %+v, set scan %+v", cfg.Name, seed, step, addr, wr, got, want)
					}
				}
				if got, want := c.Stats(), ref.stats; got != want {
					t.Fatalf("%s seed %d step %d: stats %+v, set scan %+v", cfg.Name, seed, step, got, want)
				}
			}
		}
	}
}

// Port.Data splits a line-straddling access into one access per line;
// through the memoized caches it must charge the latency, and leave the
// L1D and L2 statistics, of the same walk over set-scan caches.
func TestPortDataMatchesSetScanReference(t *testing.T) {
	cfg := DefaultHierarchyConfig(1)
	// Small caches, so a short sequence misses, evicts and writes back at
	// both levels.
	cfg.L1D = CacheConfig{Name: "L1D", SizeB: 512, Assoc: 2, LineB: 64, WriteBck: true}
	cfg.L2 = CacheConfig{Name: "L2", SizeB: 2048, Assoc: 2, LineB: 64, WriteBck: true}
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		h := NewHierarchy(cfg)
		p := h.Port(0)
		l1, l2 := newRefCache(cfg.L1D), newRefCache(cfg.L2)
		var addr uint64
		for step := 0; step < 5_000; step++ {
			addr = nearAddr(r, addr, 256)
			size := []uint8{1, 2, 4, 8, 16, 64, 100}[r.Intn(7)]
			wr := r.Intn(3) == 0
			got := p.Data(addr, size, wr)
			want := refData(l1, l2, cfg.Lat, uint64(cfg.L1D.LineB), addr, size, wr)
			if got != want {
				t.Fatalf("seed %d step %d: Data(%#x, %d, %v) = %d cycles, set scan %d", seed, step, addr, size, wr, got, want)
			}
			if p.L1DStats() != l1.stats || h.L2Stats() != l2.stats {
				t.Fatalf("seed %d step %d: L1D %+v L2 %+v, set scan L1D %+v L2 %+v",
					seed, step, p.L1DStats(), h.L2Stats(), l1.stats, l2.stats)
			}
		}
	}
}
