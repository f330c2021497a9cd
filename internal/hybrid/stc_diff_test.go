package hybrid

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// stampSTC is the per-way stamp LRU STC that the recency-word STC
// replaced, kept as the reference of TestSTCMatchesStampReference: every
// way carries a validity flag and the clock value of its last Lookup hit
// or Insert, Insert fills the first empty way or else evicts the way with
// the oldest stamp, and every eviction allocates its record.
type stampSTC struct {
	sets, ways int
	indexDiv   int64
	lines      []stampEntry // sets*ways, set-major
	clock      int64

	Hits, Misses int64
}

type stampEntry struct {
	STCEntry
	valid bool
	lru   int64
}

func newStampSTC(entries, ways int, indexDiv int64) *stampSTC {
	return &stampSTC{sets: entries / ways, ways: ways, indexDiv: indexDiv, lines: make([]stampEntry, entries)}
}

func (s *stampSTC) Reset() {
	clear(s.lines)
	s.clock, s.Hits, s.Misses = 0, 0, 0
}

func (s *stampSTC) set(group int64) []stampEntry {
	base := int(group/s.indexDiv%int64(s.sets)) * s.ways
	return s.lines[base : base+s.ways]
}

func (s *stampSTC) Peek(group int64) *stampEntry {
	for i, e := range s.set(group) {
		if e.valid && e.Group == group {
			return &s.set(group)[i]
		}
	}
	return nil
}

func (s *stampSTC) Lookup(group int64) *stampEntry {
	s.clock++
	e := s.Peek(group)
	if e == nil {
		s.Misses++
		return nil
	}
	e.lru = s.clock
	s.Hits++
	return e
}

func (s *stampSTC) Insert(group int64, qac [MaxSlots]uint8) *STCEviction {
	ways := s.set(group)
	s.clock++
	victim := 0
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].lru < ways[victim].lru {
			victim = i
		}
	}
	var ev *STCEviction
	if ways[victim].valid {
		ev = stampRecord(&ways[victim])
	}
	ways[victim] = stampEntry{STCEntry: STCEntry{Group: group, QInsert: qac}, valid: true, lru: s.clock}
	return ev
}

func stampRecord(e *stampEntry) *STCEviction {
	ev := &STCEviction{Group: e.Group, Dirty: e.dirty}
	for slot, c := range e.Counters {
		if c > 0 {
			ev.Dirty = true
			ev.Blocks = append(ev.Blocks, EvictedBlock{Slot: slot, QInsert: e.QInsert[slot], Count: uint32(c)})
		}
	}
	return ev
}

func (s *stampSTC) MarkDirty(group int64) {
	if e := s.Peek(group); e != nil {
		e.dirty = true
	}
}

func (s *stampSTC) FlushAll() []STCEviction {
	var out []STCEviction
	for i := range s.lines {
		if e := &s.lines[i]; e.valid {
			out = append(out, *stampRecord(e))
			*e = stampEntry{}
		}
	}
	return out
}

// sameRecord compares two eviction records, treating nil and empty block
// lists alike.
func sameRecord(a, b *STCEviction) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Group == b.Group && a.Dirty == b.Dirty && slices.Equal(a.Blocks, b.Blocks)
}

// TestSTCMatchesStampReference drives the recency-word STC and the stamp
// reference with one seeded sequence of Lookup (an Insert on each miss,
// as the controller does, and a counter bump on each hit), Peek,
// MarkDirty, FlushAll and Reset, over 1-, 2-, 8- and 16-way sets with a
// power-of-two and a non-power-of-two set count. Every return value,
// eviction record, flushed record list and counter must agree, and so
// must the group each way holds: a fill that takes the wrong empty way
// shows in the flush order and in the tags.
func TestSTCMatchesStampReference(t *testing.T) {
	for _, ways := range []int{1, 2, 8, 16} {
		for _, shape := range []struct {
			sets     int
			indexDiv int64
		}{{8, 2}, {6, 3}} {
			name := fmt.Sprintf("%dx%d/div%d", shape.sets, ways, shape.indexDiv)
			entries := shape.sets * ways
			s, err := NewSTC(entries, ways, shape.indexDiv)
			if err != nil {
				t.Fatal(err)
			}
			ref := newStampSTC(entries, ways, shape.indexDiv)
			rng := rand.New(rand.NewSource(int64(entries)*10 + shape.indexDiv))
			// Twice as many groups per set as ways: about half the
			// lookups hit, at every depth of the order.
			groups := 2 * int64(entries) * shape.indexDiv
			for op := 0; op < 20000; op++ {
				g := rng.Int63n(groups)
				switch r := rng.Intn(1000); {
				case r < 2:
					if got, want := flushAll(s), ref.FlushAll(); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s op %d: FlushAll = %+v, reference %+v", name, op, got, want)
					}
				case r < 3:
					s.Reset()
					ref.Reset()
				case r < 100:
					s.MarkDirty(g)
					ref.MarkDirty(g)
				case r < 250:
					e, want := s.Peek(g), ref.Peek(g)
					if (e == nil) != (want == nil) || e != nil && *e != want.STCEntry {
						t.Fatalf("%s op %d: Peek(%d) = %+v, reference %+v", name, op, g, e, want)
					}
				default:
					e, want := s.Lookup(g), ref.Lookup(g)
					if (e == nil) != (want == nil) || e != nil && *e != want.STCEntry {
						t.Fatalf("%s op %d: Lookup(%d) = %+v, reference %+v", name, op, g, e, want)
					}
					if e != nil {
						slot, weight := rng.Intn(MaxSlots), 1+rng.Intn(4)
						e.Bump(slot, weight)
						want.Bump(slot, weight)
						break
					}
					var qac [MaxSlots]uint8
					for i := range qac {
						qac[i] = uint8(rng.Intn(NumQI))
					}
					if ev, wantEv := s.Insert(g, qac), ref.Insert(g, qac); !sameRecord(ev, wantEv) {
						t.Fatalf("%s op %d: Insert(%d) evicted %+v, reference %+v", name, op, g, ev, wantEv)
					}
				}
				if s.Hits != ref.Hits || s.Misses != ref.Misses {
					t.Fatalf("%s op %d: hits/misses %d/%d, reference %d/%d", name, op, s.Hits, s.Misses, ref.Hits, ref.Misses)
				}
				for i, tag := range s.tags {
					want := int64(-1)
					if ref.lines[i].valid {
						want = ref.lines[i].Group
					}
					if tag != want {
						t.Fatalf("%s op %d: way %d holds group %d, reference %d", name, op, i, tag, want)
					}
				}
			}
		}
	}
}
