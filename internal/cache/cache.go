// Package cache implements the set-associative, write-back, write-allocate
// LRU cache used for the shared L3 in the simulated system (Table 8), and
// Recency, the constant-time per-set LRU order by which both the L3 and
// the hybrid controller's Swap-group Table Cache choose their victims.
package cache

import "math/bits"

// Eviction describes a victim line pushed out by an allocation.
type Eviction struct {
	Addr  int64 // byte address of the first byte of the victim line
	Dirty bool  // true if the victim must be written back
}

// Config sizes a cache. Sets*Ways*LineBytes is the capacity.
type Config struct {
	Sets      int
	Ways      int
	LineBytes int64
}

// ConfigForCapacity builds a Config with the given capacity, associativity
// and 64-B lines, mirroring how the paper resizes caches by changing only
// the number of sets (§4.1).
func ConfigForCapacity(capacity int64, ways int) Config {
	c := Config{Ways: ways, LineBytes: 64}
	sets := capacity / (int64(ways) * c.LineBytes)
	if sets < 1 {
		sets = 1
	}
	c.Sets = int(sets)
	return c
}

// MaxWays bounds the associativity of a Recency order, and so of a Cache:
// the order is one 64-bit word of 4-bit way indices.
const MaxWays = 16

// Recency is one set's LRU replacement order over up to MaxWays ways. Each
// 4-bit nibble holds a way index: the most recently used way in nibble 0,
// the least recently used in nibble ways-1, and zeros above. A miss reads
// its victim off the top nibble and a hit moves its way to the front, both
// in constant time, where per-way access stamps need a scan of every way.
//
// The order of the valid ways is exactly their order by last access.
// Empty ways are never touched until they are filled, so they stay at the
// LRU end in index order and a fill always takes the lowest-indexed empty
// way: the same victims as a stamp scan that prefers the first empty way.
// That holds only while no valid way is ever emptied again, which is why
// neither the L3 nor the STC invalidates single lines; emptying a whole
// set goes back to NewRecency.
type Recency uint64

// nibbles has a 1 in every nibble; times a way index, it broadcasts the
// index to all sixteen.
const nibbles = 0x1111111111111111

// NewRecency returns the order of a set whose ways are all empty: way 0
// at the LRU end, then way 1, and so on up to way ways-1 at the front.
func NewRecency(ways int) Recency {
	var r Recency
	for w := 0; w < ways; w++ {
		r = r<<4 | Recency(w)
	}
	return r
}

// Evict returns the least recently used of the set's ways, the victim of
// a fill, and the order with that way made the most recently used.
func (r Recency) Evict(ways int) (int, Recency) {
	top := 4 * uint(ways-1)
	victim := r >> top & 0xF
	return int(victim), (r&^(0xF<<top))<<4 | victim
}

// Touch returns the order with way made the most recently used; the ways
// that were more recent than it each move back one place.
func (r Recency) Touch(way int) Recency {
	// XOR with the broadcast index zeroes way's nibble. The has-zero test
	// below marks the lowest zero nibble exactly (its borrow can only add
	// false marks above a true zero), and the unused zero nibbles above
	// the set's ways lie above way 0's real place.
	x := uint64(r) ^ uint64(way)*nibbles
	z := (x - nibbles) &^ x & (nibbles << 3)
	shift := uint(bits.TrailingZeros64(z)) &^ 3
	below := uint64(1)<<shift - 1
	return Recency(uint64(r)&^(below<<4|0xF) | (uint64(r)&below)<<4 | uint64(way))
}

// invalidTag marks an empty way. Byte addresses are non-negative, so real
// tags are too and can never match it.
const invalidTag int64 = -1

// setState is one set's replacement order and dirty mask (bit i = way i
// is dirty), kept together so an access touches one small record besides
// the tags.
type setState struct {
	order Recency
	dirty uint16
}

// Cache is a single-level cache model. Not safe for concurrent use.
//
// Line state is a set-major tag array, 8 B per way, which is all the
// associative hit scan reads, plus one setState per set. The L3 lookup is
// hot on both the event-driven and the fast-forward path, so the bytes
// an access touches are what its cost is.
type Cache struct {
	cfg  Config
	tags []int64    // Sets*Ways entries, set-major; invalidTag = empty
	sets []setState // Sets entries

	// Fast-path indexing: line and set arithmetic reduce to shifts and
	// masks when the respective dimension is a power of two (the common
	// case — lines are 64 B and capacities are powers of two). A shift of
	// -1 marks the divide/modulo fallback.
	lineShift int
	setShift  int
	setMask   int64

	Hits       int64
	Misses     int64
	Writebacks int64
}

// log2 returns the exponent when v is a positive power of two, else -1.
func log2(v int64) int {
	if v <= 0 || v&(v-1) != 0 {
		return -1
	}
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// New builds an empty cache.
func New(cfg Config) *Cache {
	if cfg.Sets <= 0 || cfg.Ways <= 0 || cfg.LineBytes <= 0 {
		panic("cache: invalid config")
	}
	if cfg.Ways > MaxWays {
		panic("cache: more than 16 ways is unsupported (a set's LRU order is one 64-bit word)")
	}
	c := &Cache{
		cfg:       cfg,
		tags:      make([]int64, cfg.Sets*cfg.Ways),
		sets:      make([]setState, cfg.Sets),
		lineShift: log2(cfg.LineBytes),
		setShift:  log2(int64(cfg.Sets)),
		setMask:   int64(cfg.Sets) - 1,
	}
	c.Reset()
	return c
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Reset empties every line and zeroes the hit/miss/writeback counters,
// returning the cache to its just-built state without reallocating the
// line arrays.
func (c *Cache) Reset() {
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	empty := NewRecency(c.cfg.Ways)
	for i := range c.sets {
		c.sets[i] = setState{order: empty}
	}
	c.Hits, c.Misses, c.Writebacks = 0, 0, 0
}

// Capacity returns the cache capacity in bytes.
func (c *Cache) Capacity() int64 {
	return int64(c.cfg.Sets) * int64(c.cfg.Ways) * c.cfg.LineBytes
}

// index splits a byte address into (set, tag).
func (c *Cache) index(addr int64) (int, int64) {
	var lineAddr int64
	if c.lineShift >= 0 {
		lineAddr = addr >> uint(c.lineShift)
	} else {
		lineAddr = addr / c.cfg.LineBytes
	}
	if c.setShift >= 0 {
		return int(lineAddr & c.setMask), lineAddr >> uint(c.setShift)
	}
	return int(lineAddr % int64(c.cfg.Sets)), lineAddr / int64(c.cfg.Sets)
}

// Access looks up addr, allocating on miss. It returns whether the access
// hit and, on miss, whether a valid victim was evicted (ev.Addr is the
// victim's address, ev.Dirty whether it needs a writeback). Write hits and
// write allocations mark the line dirty.
func (c *Cache) Access(addr int64, write bool) (hit bool, ev Eviction, evicted bool) {
	set, tag := c.index(addr)
	s := &c.sets[set]
	base := set * c.cfg.Ways
	tags := c.tags[base : base+c.cfg.Ways : base+c.cfg.Ways]
	for i, t := range tags {
		if t == tag {
			s.order = s.order.Touch(i)
			if write {
				s.dirty |= 1 << uint(i)
			}
			c.Hits++
			return true, Eviction{}, false
		}
	}
	c.Misses++
	victim, order := s.order.Evict(c.cfg.Ways)
	s.order = order
	bit := uint16(1) << uint(victim)
	if old := tags[victim]; old != invalidTag {
		evicted = true
		ev = Eviction{Addr: c.lineAddrToByte(set, old), Dirty: s.dirty&bit != 0}
		if ev.Dirty {
			c.Writebacks++
		}
	}
	tags[victim] = tag
	if write {
		s.dirty |= bit
	} else {
		s.dirty &^= bit
	}
	return false, ev, evicted
}

// Probe reports whether addr is resident without touching LRU state.
func (c *Cache) Probe(addr int64) bool {
	set, tag := c.index(addr)
	base := set * c.cfg.Ways
	for _, t := range c.tags[base : base+c.cfg.Ways] {
		if t == tag {
			return true
		}
	}
	return false
}

// HitRate returns hits/(hits+misses), or 0 before any access.
func (c *Cache) HitRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}

func (c *Cache) lineAddrToByte(set int, tag int64) int64 {
	return (tag*int64(c.cfg.Sets) + int64(set)) * c.cfg.LineBytes
}
