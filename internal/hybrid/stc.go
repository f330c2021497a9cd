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
//
// The hardware compares a set's ways in parallel; the model finds a
// group's entry through a residency index instead, one slot per
// channel-local group, so a lookup costs one load whatever the
// associativity. LRU order and victim choice stay on the per-set
// recency word.
type STC struct {
	sets     int
	ways     int
	indexDiv int64           // global-group stride between entries of one channel
	lines    []STCEntry      // sets*ways entries, set-major
	index    []int32         // channel-local group -> 1 + its entry in lines, or 0
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
// indexing (the channel count, since groups stripe across channels), and
// groups is how many channel-local groups the STC serves. Every group
// passed to the STC must belong to its channel: group/indexDiv below
// groups, one residue of group%indexDiv for all of them.
func NewSTC(entries, ways int, indexDiv, groups int64) (*STC, error) {
	if ways <= 0 || ways > cache.MaxWays {
		return nil, fmt.Errorf("hybrid: STC ways %d outside 1..%d", ways, cache.MaxWays)
	}
	if entries <= 0 || entries%ways != 0 {
		return nil, fmt.Errorf("hybrid: STC entries %d not divisible by ways %d", entries, ways)
	}
	if groups <= 0 {
		return nil, fmt.Errorf("hybrid: STC must serve at least one group, got %d", groups)
	}
	if indexDiv <= 0 {
		indexDiv = 1
	}
	s := &STC{sets: entries / ways, ways: ways, indexDiv: indexDiv}
	s.lines = make([]STCEntry, entries)
	s.index = make([]int32, groups)
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
// STC to its just-built state without reallocating the entry or index
// arrays.
func (s *STC) Reset() {
	s.clearWays()
	s.Hits, s.Misses = 0, 0
}

// clearWays empties every way and the index and restores every set's
// empty order.
func (s *STC) clearWays() {
	clear(s.lines)
	clear(s.index)
	empty := cache.NewRecency(s.ways)
	for i := range s.orders {
		s.orders[i] = empty
	}
}

// local returns a global group's index within the STC's channel.
func (s *STC) local(group int64) int64 {
	if s.divShift >= 0 {
		return group >> uint(s.divShift)
	}
	return group / s.indexDiv
}

// set returns the set index of a channel-local group.
func (s *STC) set(local int64) int {
	if s.setShift >= 0 {
		return int(local & s.setMask)
	}
	return int(local % int64(s.sets))
}

// resident reports whether entry i holds a group. An empty entry is
// zeroed and so names group 0, but the index slot that group 0 maps to
// can only point at an entry that holds a group.
func (s *STC) resident(i int) bool {
	return int(s.index[s.local(s.lines[i].Group)]) == i+1
}

// Lookup returns the resident entry for group, counting a hit or miss.
func (s *STC) Lookup(group int64) *STCEntry {
	local := s.local(group)
	i := int(s.index[local]) - 1
	if i < 0 {
		s.Misses++
		return nil
	}
	set := s.set(local)
	s.orders[set] = s.orders[set].Touch(i - set*s.ways)
	s.Hits++
	return &s.lines[i]
}

// Peek returns the resident entry without LRU/stat updates, or nil.
func (s *STC) Peek(group int64) *STCEntry {
	if i := s.index[s.local(group)]; i != 0 {
		return &s.lines[i-1]
	}
	return nil
}

// Insert caches group's ST entry with the given persisted QAC values,
// resetting all access counters to zero (§3.2.1). It returns the displaced
// entry's eviction record, or nil if an empty way was used; the record is
// the STC's own and stays valid only until its next Insert or FlushAll.
// The caller must have established the entry is absent (Lookup returned
// nil); Insert panics if it is resident.
func (s *STC) Insert(group int64, qac [MaxSlots]uint8) *STCEviction {
	local := s.local(group)
	if s.index[local] != 0 {
		panic(fmt.Sprintf("hybrid: STC Insert of group %d, which is already resident", group))
	}
	set := s.set(local)
	victim, order := s.orders[set].Evict(s.ways)
	s.orders[set] = order
	i := set*s.ways + victim
	var ev *STCEviction
	if s.resident(i) {
		s.index[s.local(s.lines[i].Group)] = 0
		ev = s.evict(i)
	}
	s.lines[i] = STCEntry{Group: group, QInsert: qac}
	s.index[local] = int32(i + 1)
	return ev
}

// evict fills the STC's eviction record with the MDM-relevant state of
// entry i.
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
	for i := range s.lines {
		if s.resident(i) {
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
