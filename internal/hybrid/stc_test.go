package hybrid

import (
	"testing"
	"testing/quick"
)

func TestQuantizeCountTable5(t *testing.T) {
	cases := []struct {
		count uint32
		want  uint8
	}{
		{0, 0}, {1, 1}, {7, 1}, {8, 2}, {31, 2}, {32, 3}, {63, 3}, {1000, 3},
	}
	for _, c := range cases {
		if got := QuantizeCount(c.count); got != c.want {
			t.Errorf("QuantizeCount(%d) = %d, want %d", c.count, got, c.want)
		}
	}
}

func TestQuantizeBounds(t *testing.T) {
	f := func(c uint32) bool {
		q := QuantizeCount(c)
		return q < NumQI && (c == 0) == (q == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuantizeMonotoneTotal exhaustively checks the Table 5 mapping over
// the whole 6-bit counter domain: it must be total (every count in
// 0..CounterMax lands in a valid bucket), monotone non-decreasing, and
// onto (every bucket reachable) — the properties the MDM's expected-count
// tables assume without checking.
func TestQuantizeMonotoneTotal(t *testing.T) {
	seen := make([]bool, NumQI)
	var prev uint8
	for c := uint32(0); c <= CounterMax; c++ {
		q := QuantizeCount(c)
		if q >= NumQI {
			t.Fatalf("QuantizeCount(%d) = %d outside [0,%d)", c, q, NumQI)
		}
		if q < prev {
			t.Fatalf("not monotone at %d: %d after %d", c, q, prev)
		}
		seen[q] = true
		prev = q
	}
	for b, ok := range seen {
		if !ok {
			t.Errorf("bucket %d unreachable within 0..%d", b, CounterMax)
		}
	}
	// The exact Table 5 boundaries, including saturation and beyond (a
	// corrupt count above CounterMax must still quantize, not wrap).
	boundaries := []struct {
		c    uint32
		want uint8
	}{
		{0, 0}, {1, 1}, {7, 1}, {8, 2}, {31, 2}, {32, 3},
		{CounterMax, 3}, {CounterMax + 1, 3}, {1 << 31, 3}, {^uint32(0), 3},
	}
	for _, b := range boundaries {
		if got := QuantizeCount(b.c); got != b.want {
			t.Errorf("QuantizeCount(%d) = %d, want %d", b.c, got, b.want)
		}
	}
}

func newTestSTC(t *testing.T) *STC {
	t.Helper()
	s, err := NewSTC(16, 4, 1) // 4 sets x 4 ways
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// flushAll collects an STC's FlushAll records, copying each one out of
// the STC's reused record.
func flushAll(s *STC) []STCEviction {
	var out []STCEviction
	s.FlushAll(func(ev *STCEviction) {
		out = append(out, STCEviction{Group: ev.Group, Dirty: ev.Dirty, Blocks: append([]EvictedBlock(nil), ev.Blocks...)})
	})
	return out
}

func TestSTCValidation(t *testing.T) {
	if _, err := NewSTC(0, 4, 1); err == nil {
		t.Error("zero entries should fail")
	}
	if _, err := NewSTC(10, 4, 1); err == nil {
		t.Error("non-divisible entries should fail")
	}
	if _, err := NewSTC(17, 17, 1); err == nil {
		t.Error("more ways than a recency word holds should fail")
	}
	if _, err := NewSTC(16, 0, 1); err == nil {
		t.Error("zero ways should fail")
	}
}

func TestSTCHitMiss(t *testing.T) {
	s := newTestSTC(t)
	if s.Lookup(5) != nil {
		t.Error("empty STC should miss")
	}
	s.Insert(5, [MaxSlots]uint8{})
	e := s.Lookup(5)
	if e == nil || e.Group != 5 {
		t.Fatal("should hit after insert")
	}
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("hits=%d misses=%d", s.Hits, s.Misses)
	}
	if s.HitRate() != 0.5 {
		t.Errorf("hit rate %v", s.HitRate())
	}
}

func TestSTCCountersResetAtInsert(t *testing.T) {
	s := newTestSTC(t)
	s.Insert(1, [MaxSlots]uint8{})
	e := s.Lookup(1)
	e.Bump(3, 5)
	if e.Count(3) != 5 {
		t.Errorf("count = %d", e.Count(3))
	}
	// Evict (fill the set with conflicting groups) and re-insert: counter
	// must restart at zero.
	for g := int64(1 + 4); g <= 1+4*4; g += 4 {
		s.Insert(g, [MaxSlots]uint8{})
	}
	if s.Peek(1) != nil {
		t.Fatal("group 1 should have been evicted")
	}
	s.Insert(1, [MaxSlots]uint8{})
	if got := s.Lookup(1).Count(3); got != 0 {
		t.Errorf("counter after re-insert = %d, want 0", got)
	}
}

func TestSTCBumpSaturates(t *testing.T) {
	var e STCEntry
	for i := 0; i < 100; i++ {
		e.Bump(0, 8)
	}
	if e.Count(0) != CounterMax {
		t.Errorf("counter = %d, want saturation at %d", e.Count(0), CounterMax)
	}
}

func TestOtherAccessed(t *testing.T) {
	var e STCEntry
	if e.OtherAccessed(0) {
		t.Error("no counters set")
	}
	e.Bump(0, 1)
	if e.OtherAccessed(0) {
		t.Error("only slot 0 accessed; OtherAccessed(0) must be false")
	}
	if !e.OtherAccessed(1) {
		t.Error("slot 0 accessed; OtherAccessed(1) must be true")
	}
}

func TestSTCEvictionRecord(t *testing.T) {
	s := newTestSTC(t)
	qac := [MaxSlots]uint8{0, 1, 2, 0, 0, 0, 0, 0, 3}
	s.Insert(0, qac)
	e := s.Lookup(0)
	e.Bump(1, 10) // slot 1: qInsert 1, count 10
	e.Bump(8, 2)  // slot 8: qInsert 3, count 2
	// Force eviction of group 0 by filling set 0 (groups ≡ 0 mod 4).
	var ev *STCEviction
	for g := int64(4); ; g += 4 {
		if ev = s.Insert(g, [MaxSlots]uint8{}); ev != nil && ev.Group == 0 {
			break
		}
		if g > 64 {
			t.Fatal("group 0 never evicted")
		}
	}
	if !ev.Dirty {
		t.Error("entry with non-zero counters must evict dirty")
	}
	if len(ev.Blocks) != 2 {
		t.Fatalf("eviction blocks = %+v", ev.Blocks)
	}
	check := map[int]EvictedBlock{}
	for _, b := range ev.Blocks {
		check[b.Slot] = b
	}
	if b := check[1]; b.QInsert != 1 || b.Count != 10 {
		t.Errorf("slot 1 record = %+v", b)
	}
	if b := check[8]; b.QInsert != 3 || b.Count != 2 {
		t.Errorf("slot 8 record = %+v", b)
	}
}

func TestSTCCleanEviction(t *testing.T) {
	s := newTestSTC(t)
	s.Insert(0, [MaxSlots]uint8{})
	var ev *STCEviction
	for g := int64(4); ev == nil || ev.Group != 0; g += 4 {
		ev = s.Insert(g, [MaxSlots]uint8{})
		if g > 64 {
			t.Fatal("never evicted")
		}
	}
	if ev.Dirty || len(ev.Blocks) != 0 {
		t.Errorf("untouched entry should evict clean: %+v", ev)
	}
}

func TestSTCMarkDirty(t *testing.T) {
	s := newTestSTC(t)
	s.Insert(0, [MaxSlots]uint8{})
	s.MarkDirty(0)
	evs := flushAll(s)
	if len(evs) != 1 || !evs[0].Dirty {
		t.Errorf("flush = %+v", evs)
	}
	s.MarkDirty(12345) // absent group: no-op
}

func TestSTCLRUWithinSet(t *testing.T) {
	s := newTestSTC(t)
	// Fill set 0 with groups 0,4,8,12, touch 0, then insert 16: LRU is 4.
	for _, g := range []int64{0, 4, 8, 12} {
		s.Insert(g, [MaxSlots]uint8{})
	}
	s.Lookup(0)
	ev := s.Insert(16, [MaxSlots]uint8{})
	if ev == nil || ev.Group != 4 {
		t.Errorf("evicted %+v, want group 4", ev)
	}
}

func TestSTCIndexDiv(t *testing.T) {
	// With indexDiv 2 (two channels), groups 0 and 2 share a set on the
	// same channel-local index progression.
	s, err := NewSTC(8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	s.Insert(0, [MaxSlots]uint8{})
	s.Insert(2, [MaxSlots]uint8{}) // local index 1 -> different set
	if s.Peek(0) == nil || s.Peek(2) == nil {
		t.Error("both groups should be resident in different sets")
	}
}

func TestSTCFlushAllClears(t *testing.T) {
	s := newTestSTC(t)
	for g := int64(0); g < 8; g++ {
		s.Insert(g, [MaxSlots]uint8{})
	}
	evs := flushAll(s)
	if len(evs) != 8 {
		t.Errorf("flushed %d entries, want 8", len(evs))
	}
	if s.Peek(0) != nil {
		t.Error("flush should clear entries")
	}
	if len(flushAll(s)) != 0 {
		t.Error("second flush should be empty")
	}
}

func TestSTCEntriesAccessor(t *testing.T) {
	s := newTestSTC(t)
	if s.Entries() != 16 {
		t.Errorf("entries = %d", s.Entries())
	}
}
