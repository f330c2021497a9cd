package hybrid

import (
	"fmt"

	"profess/internal/cache"
)

// CounterMax is the saturation value of the 6-bit STC access counters
// (§4.1: MDM uses 6-bit saturating counters, one per swap-group location).
const CounterMax = 63

// QuantizeCount maps an access count to the 2-bit Quantized Access-Counter
// value of Table 5: 0 = previously unseen (never produced by this function
// for non-zero counts), 1 = 1-7 accesses, 2 = 8-31, 3 = 32 or more.
func QuantizeCount(c uint32) uint8 {
	switch {
	case c == 0:
		return 0
	case c < 8:
		return 1
	case c < 32:
		return 2
	default:
		return 3
	}
}

// NumQI is the number of QAC values a block can have at ST-entry insertion.
const NumQI = 4

// NumQE is the number of valid QAC values at eviction (q_E = 0 is invalid:
// blocks with zero access count do not update their QAC, §3.2.2).
const NumQE = 3

// STCEntry is one cached ST entry plus the accurate per-block state the STC
// maintains while the entry is resident (§3.2.1): a 6-bit access counter
// and the QAC value each block had when the entry was inserted.
type STCEntry struct {
	Group int64
	dirty bool

	Counters [MaxSlots]uint16
	QInsert  [MaxSlots]uint8
}

// Count returns slot's current access count.
func (e *STCEntry) Count(slot int) uint32 { return uint32(e.Counters[slot]) }

// Bump adds weight accesses to slot's counter, saturating at CounterMax.
func (e *STCEntry) Bump(slot, weight int) {
	c := int(e.Counters[slot]) + weight
	if c > CounterMax {
		c = CounterMax
	}
	e.Counters[slot] = uint16(c)
}

// OtherAccessed reports whether any block other than slot has a non-zero
// counter (the §3.2.3 condition (b) hint that the idle M1 block is
// unlikely to be accessed soon).
func (e *STCEntry) OtherAccessed(slot int) bool {
	for s := 0; s < MaxSlots; s++ {
		if s != slot && e.Counters[s] > 0 {
			return true
		}
	}
	return false
}

// EvictedBlock reports one block's statistics at ST-entry eviction, for
// the MDM counter updates of Table 6.
type EvictedBlock struct {
	Slot    int
	QInsert uint8
	Count   uint32
}

// STCEviction describes an evicted entry. The STC hands out its own
// record, reused from one eviction to the next.
type STCEviction struct {
	Group int64
	Dirty bool
	// Blocks lists the slots with non-zero access counts; the controller
	// turns them into QAC updates and MDM statistics.
	Blocks []EvictedBlock
}

// STC is the Swap-group Table Cache: a set-associative cache of ST entries
// (Table 8: 64 KB, 8-way, 8-B entries => 8K entries for the full-scale
// system), replacing least recently used entries. One STC instance serves
// one channel.
type STC struct {
	sets     int
	ways     int
	indexDiv int64           // global-group stride between entries of one channel
	lines    []STCEntry      // sets*ways entries, set-major
	tags     []int64         // parallel residency tags: group number, or -1
	orders   []cache.Recency // per-set LRU order
	ev       STCEviction     // the eviction record Insert and FlushAll hand out

	// set-index fast path: shift/mask forms of indexDiv and sets when
	// they are powers of two (-1 selects the divide fallback).
	divShift int
	setShift int
	setMask  int64

	Hits   int64
	Misses int64
}

// NewSTC builds an STC with the given entry count and associativity.
// indexDiv is the divisor applied to global group numbers before set
// indexing (the channel count, since groups stripe across channels).
func NewSTC(entries, ways int, indexDiv int64) (*STC, error) {
	if ways <= 0 || ways > cache.MaxWays {
		return nil, fmt.Errorf("hybrid: STC ways %d outside 1..%d", ways, cache.MaxWays)
	}
	if entries <= 0 || entries%ways != 0 {
		return nil, fmt.Errorf("hybrid: STC entries %d not divisible by ways %d", entries, ways)
	}
	if indexDiv <= 0 {
		indexDiv = 1
	}
	s := &STC{sets: entries / ways, ways: ways, indexDiv: indexDiv}
	s.lines = make([]STCEntry, entries)
	s.tags = make([]int64, entries)
	s.orders = make([]cache.Recency, s.sets)
	s.ev.Blocks = make([]EvictedBlock, 0, MaxSlots)
	s.divShift = shiftOf(indexDiv)
	s.setShift = shiftOf(int64(s.sets))
	s.setMask = int64(s.sets) - 1
	s.Reset()
	return s, nil
}

// Entries returns the STC capacity in entries.
func (s *STC) Entries() int { return s.sets * s.ways }

// Reset empties the cache and zeroes the hit/miss counters, returning the
// STC to its just-built state without reallocating the entry or tag
// arrays.
func (s *STC) Reset() {
	s.clearWays()
	s.Hits, s.Misses = 0, 0
}

// clearWays empties every way and restores every set's empty order.
func (s *STC) clearWays() {
	clear(s.lines)
	for i := range s.tags {
		s.tags[i] = -1
	}
	empty := cache.NewRecency(s.ways)
	for i := range s.orders {
		s.orders[i] = empty
	}
}

// set returns the set index for a global group number.
func (s *STC) set(group int64) int {
	local := group
	if s.divShift >= 0 {
		local >>= uint(s.divShift)
	} else {
		local /= s.indexDiv
	}
	if s.setShift >= 0 {
		return int(local & s.setMask)
	}
	return int(local % int64(s.sets))
}

// Lookup returns the resident entry for group, counting a hit or miss.
// The residency scan runs over the compact tag array; the wide entries are
// only touched on a hit.
func (s *STC) Lookup(group int64) *STCEntry {
	set := s.set(group)
	base := set * s.ways
	for i, t := range s.tags[base : base+s.ways] {
		if t == group {
			s.orders[set] = s.orders[set].Touch(i)
			s.Hits++
			return &s.lines[base+i]
		}
	}
	s.Misses++
	return nil
}

// Peek returns the resident entry without LRU/stat updates, or nil.
func (s *STC) Peek(group int64) *STCEntry {
	base := s.set(group) * s.ways
	for i, t := range s.tags[base : base+s.ways] {
		if t == group {
			return &s.lines[base+i]
		}
	}
	return nil
}

// Insert caches group's ST entry with the given persisted QAC values,
// resetting all access counters to zero (§3.2.1). It returns the displaced
// entry's eviction record, or nil if an empty way was used; the record is
// the STC's own and stays valid only until its next Insert or FlushAll.
// The caller must have established the entry is absent (Lookup returned
// nil).
func (s *STC) Insert(group int64, qac [MaxSlots]uint8) *STCEviction {
	set := s.set(group)
	victim, order := s.orders[set].Evict(s.ways)
	s.orders[set] = order
	i := set*s.ways + victim
	var ev *STCEviction
	if s.tags[i] >= 0 {
		ev = s.evict(i)
	}
	s.lines[i] = STCEntry{Group: group, QInsert: qac}
	s.tags[i] = group
	return ev
}

// evict fills the STC's eviction record with the MDM-relevant state of
// the entry in way i.
func (s *STC) evict(i int) *STCEviction {
	e := &s.lines[i]
	ev := &s.ev
	ev.Group, ev.Dirty, ev.Blocks = e.Group, e.dirty, ev.Blocks[:0]
	for slot := 0; slot < MaxSlots; slot++ {
		if c := e.Counters[slot]; c > 0 {
			ev.Dirty = true // QAC update requires an ST writeback
			ev.Blocks = append(ev.Blocks, EvictedBlock{
				Slot:    slot,
				QInsert: e.QInsert[slot],
				Count:   uint32(c),
			})
		}
	}
	return ev
}

// MarkDirty flags group's entry (if resident) as needing writeback, e.g.
// because a swap changed its address-translation bits.
func (s *STC) MarkDirty(group int64) {
	if e := s.Peek(group); e != nil {
		e.dirty = true
	}
}

// FlushAll evicts every valid entry, passing each eviction record to fn
// in deterministic (set, way) order; fn must not call back into the STC.
// Used at simulation end so final-interval statistics are not lost, and
// by tests.
func (s *STC) FlushAll(fn func(*STCEviction)) {
	for i, t := range s.tags {
		if t >= 0 {
			fn(s.evict(i))
		}
	}
	s.clearWays()
}

// HitRate returns the STC hit rate observed so far.
func (s *STC) HitRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}
