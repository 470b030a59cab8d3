package mem

import "fmt"

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name     string // for stats output
	SizeB    int    // total capacity in bytes
	Assoc    int    // ways per set
	LineB    int    // line size in bytes (power of two)
	WriteBck bool   // write-back (true) vs write-through accounting
}

// Validate checks the configuration for structural sanity.
func (c CacheConfig) Validate() error {
	if c.SizeB <= 0 || c.Assoc <= 0 || c.LineB <= 0 {
		return fmt.Errorf("mem: cache %q: non-positive geometry", c.Name)
	}
	if c.LineB&(c.LineB-1) != 0 {
		return fmt.Errorf("mem: cache %q: line size %d not a power of two", c.Name, c.LineB)
	}
	if c.SizeB%(c.Assoc*c.LineB) != 0 {
		return fmt.Errorf("mem: cache %q: size %d not divisible by assoc*line", c.Name, c.SizeB)
	}
	sets := c.SizeB / (c.Assoc * c.LineB)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("mem: cache %q: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// CacheStats accumulates access statistics for one cache.
type CacheStats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// MissRate returns misses/accesses, or 0 when idle.
func (s CacheStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type cacheLine struct {
	tag   uint64
	valid bool
	dirty bool
	// lru is a per-set logical timestamp; larger is more recent.
	lru uint64
}

// Cache is a set-associative cache with true-LRU replacement. It tracks tags
// only (functional data lives in Memory); its job is hit/miss classification
// for the timing model.
type Cache struct {
	cfg      CacheConfig
	sets     [][]cacheLine
	setMask  uint64
	lineBits uint
	clock    uint64
	stats    CacheStats
}

// NewCache builds a cache from cfg. It panics on invalid configuration;
// configurations are static (constructed from code, not user input).
func NewCache(cfg CacheConfig) *Cache {
	c := new(Cache)
	c.init(cfg)
	return c
}

// init builds the cache in place, so a hierarchy can hold its caches by
// value.
func (c *Cache) init(cfg CacheConfig) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.SizeB / (cfg.Assoc * cfg.LineB)
	sets := make([][]cacheLine, nsets)
	backing := make([]cacheLine, nsets*cfg.Assoc)
	for i := range sets {
		sets[i] = backing[i*cfg.Assoc : (i+1)*cfg.Assoc : (i+1)*cfg.Assoc]
	}
	lineBits := uint(0)
	for 1<<lineBits != cfg.LineB {
		lineBits++
	}
	*c = Cache{
		cfg:      cfg,
		sets:     sets,
		setMask:  uint64(nsets - 1),
		lineBits: lineBits,
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() CacheStats { return c.stats }

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr &^ (uint64(c.cfg.LineB) - 1) }

// AccessResult describes the outcome of one cache access.
type AccessResult struct {
	Hit        bool
	Writeback  bool   // a dirty victim was evicted
	VictimAddr uint64 // line address of the written-back victim (valid iff Writeback)
}

// Access looks up addr, allocating on miss (write-allocate). It returns
// whether the access hit and whether a dirty line was written back.
// The access touches a single line; callers are responsible for splitting
// line-straddling accesses (the CPU does so).
func (c *Cache) Access(addr uint64, write bool) AccessResult {
	c.clock++
	c.stats.Accesses++
	tag := addr >> c.lineBits
	set := c.sets[tag&c.setMask]

	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.stats.Hits++
			set[i].lru = c.clock
			if write && c.cfg.WriteBck {
				set[i].dirty = true
			}
			return AccessResult{Hit: true}
		}
	}

	c.stats.Misses++
	// Choose victim: invalid way first, else least-recently used.
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
	if write && c.cfg.WriteBck {
		set[victim].dirty = true
	}
	return res
}

// Probe reports whether addr currently hits without updating LRU state or
// statistics. Used by tests and by the dispatch engine's prefetch model.
func (c *Cache) Probe(addr uint64) bool {
	tag := addr >> c.lineBits
	set := c.sets[tag&c.setMask]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// Flush invalidates every line, counting writebacks of dirty lines.
func (c *Cache) Flush() {
	for _, set := range c.sets {
		for i := range set {
			if set[i].valid && set[i].dirty {
				c.stats.Writebacks++
			}
			set[i] = cacheLine{}
		}
	}
}
