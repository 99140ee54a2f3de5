// Package cache implements the set-associative instruction cache used by
// the timing simulation: true-LRU replacement, parameterised size, line
// size and associativity. The default configurations mirror the Intel
// SA-1100 instruction cache the paper models (16 KB, 32-byte lines,
// 32-way) plus its half-sized 8 KB variant.
package cache

import "fmt"

// Config parameterises one cache instance.
type Config struct {
	SizeBytes int // total capacity
	LineBytes int // line (block) size
	Assoc     int // ways per set
}

// SA1100ICache returns the paper's baseline 16 KB I-cache geometry.
func SA1100ICache() Config { return Config{SizeBytes: 16 * 1024, LineBytes: 32, Assoc: 32} }

// SA1100ICacheHalf returns the 8 KB variant.
func SA1100ICacheHalf() Config { return Config{SizeBytes: 8 * 1024, LineBytes: 32, Assoc: 32} }

// Validate checks geometric consistency.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", c.LineBytes)
	}
	if c.SizeBytes%(c.LineBytes*c.Assoc) != 0 {
		return fmt.Errorf("cache: size %d not divisible by line*assoc", c.SizeBytes)
	}
	sets := c.Sets()
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.SizeBytes / (c.LineBytes * c.Assoc) }

// Bits returns the data capacity in bits (tag/valid overhead excluded;
// the power model adds a fixed overhead factor).
func (c Config) Bits() int { return c.SizeBytes * 8 }

// Stats aggregates access results.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

// MissRate returns misses per access (0 when never accessed).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// MissesPerMillion returns the paper's Figure 13 metric.
func (s Stats) MissesPerMillion() float64 { return s.MissRate() * 1e6 }

// Cache is a set-associative cache with true-LRU replacement. A Cache
// is not safe for concurrent use: it models one core's private I-cache
// and belongs to exactly one simulation run (concurrent runs each
// construct their own, which shares nothing).
//
// Each set's tags sit contiguously in tags, so a lookup scans 4 bytes
// per way; the ways' last-use stamps sit in the parallel lru array, and
// stamp 0 marks an invalid way (stamps count from 1). The MRU memo
// names the most recently accessed line as the address range
// [mruAddr, mruAddr+mruSpan); mruSpan is 0 while no line is memoized.
// Only a miss evicts, and every miss re-aims the memo at the line it
// fills, so a repeat of the memo line is a certain hit.
type Cache struct {
	cfg       Config
	tags      []uint32 // set s occupies [s*assoc, (s+1)*assoc)
	lru       []uint64 // last-use stamp per way; larger is more recent
	stamp     uint64
	mruAddr   uint32 // first byte of the most recently accessed line
	mruSpan   uint32 // LineBytes, or 0 while no line is memoized
	lineShift uint
	setShift  uint
	setMask   uint32
	stats     Stats
}

// New builds a cache; the configuration must validate.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.Sets()
	c := &Cache{
		cfg:     cfg,
		tags:    make([]uint32, nsets*cfg.Assoc),
		lru:     make([]uint64, nsets*cfg.Assoc),
		setMask: uint32(nsets - 1),
	}
	for s := 1; s < cfg.LineBytes; s <<= 1 {
		c.lineShift++
	}
	for s := 1; s < nsets; s <<= 1 {
		c.setShift++
	}
	return c, nil
}

// MustNew is New but panics on invalid configuration.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the accumulated access statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Access looks up addr, allocating on miss (LRU victim), and reports
// whether it hit.
func (c *Cache) Access(addr uint32) bool {
	c.stats.Accesses++
	if addr-c.mruAddr >= c.mruSpan {
		return c.lookup(addr)
	}
	// The memo line already carries the newest stamp in the cache, so
	// re-stamping it would not change any LRU order.
	return true
}

// lookup is Access past the MRU memo: the set scan, and on a miss the
// LRU fill. Keeping it out of Access leaves the memo hit inlinable.
func (c *Cache) lookup(addr uint32) bool {
	c.stamp++
	line := addr >> c.lineShift
	base := int(line&c.setMask) * c.cfg.Assoc
	tag := line >> c.setShift
	set := c.tags[base : base+c.cfg.Assoc]
	for i, t := range set {
		if t == tag && c.lru[base+i] != 0 {
			c.lru[base+i] = c.stamp
			c.memo(line)
			return true
		}
	}
	// Miss: the victim is the way with the oldest stamp, so invalid
	// ways (stamp 0) fill before any valid line is evicted.
	stamps := c.lru[base : base+c.cfg.Assoc]
	victim := 0
	for i, s := range stamps {
		if s < stamps[victim] {
			victim = i
		}
	}
	c.stats.Misses++
	set[victim] = tag
	stamps[victim] = c.stamp
	c.memo(line)
	return false
}

// memo aims the MRU memo at line.
func (c *Cache) memo(line uint32) {
	c.mruAddr = line << c.lineShift
	c.mruSpan = uint32(c.cfg.LineBytes)
}

// Contains reports whether addr is resident without touching LRU state,
// the MRU memo or statistics.
func (c *Cache) Contains(addr uint32) bool {
	line := addr >> c.lineShift
	base := int(line&c.setMask) * c.cfg.Assoc
	tag := line >> c.setShift
	for i, t := range c.tags[base : base+c.cfg.Assoc] {
		if t == tag && c.lru[base+i] != 0 {
			return true
		}
	}
	return false
}

// Reset invalidates every line and clears statistics.
func (c *Cache) Reset() {
	clear(c.tags)
	clear(c.lru)
	c.stats = Stats{}
	c.stamp = 0
	c.mruSpan = 0
}

// AccessCounts returns the cumulative access and miss counts, making
// the cache an observable component (metrics.AccessSource).
func (c *Cache) AccessCounts() (accesses, misses uint64) {
	return c.stats.Accesses, c.stats.Misses
}
