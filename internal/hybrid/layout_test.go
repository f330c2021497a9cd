package hybrid

import (
	"testing"
	"testing/quick"

	"profess/internal/mem"
)

func testLayout(t *testing.T) Layout {
	t.Helper()
	l, err := NewLayout(8<<20, 2, 128, 8) // 4096 groups across 2 channels
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLayoutValidation(t *testing.T) {
	if _, err := NewLayout(8<<20, 0, 128, 8); err == nil {
		t.Error("zero channels should fail")
	}
	if _, err := NewLayout(8<<20, 2, 0, 8); err == nil {
		t.Error("zero regions should fail")
	}
	if _, err := NewLayout(8<<20, 2, 128, 0); err == nil {
		t.Error("zero M2 slots should fail")
	}
	if _, err := NewLayout(3<<11, 2, 128, 8); err == nil {
		t.Error("too few groups for regions should fail")
	}
}

func TestLayoutSizes(t *testing.T) {
	l := testLayout(t)
	if l.Groups != 4096 {
		t.Errorf("groups = %d", l.Groups)
	}
	if l.Slots() != 9 {
		t.Errorf("slots = %d", l.Slots())
	}
	if l.TotalBlocks() != 4096*9 {
		t.Errorf("total blocks = %d", l.TotalBlocks())
	}
	if l.M1Capacity() != 8<<20 {
		t.Errorf("M1 = %d", l.M1Capacity())
	}
	if l.M2Capacity() != 64<<20 {
		t.Errorf("M2 = %d", l.M2Capacity())
	}
	if l.BlocksPerPage() != 2 {
		t.Errorf("blocks per page = %d", l.BlocksPerPage())
	}
	if l.TotalPages() != 4096*9/2 {
		t.Errorf("pages = %d", l.TotalPages())
	}
}

func TestGroupSlotBlockRoundTrip(t *testing.T) {
	l := testLayout(t)
	f := func(raw int64) bool {
		b := raw
		if b < 0 {
			b = -b
		}
		b %= l.TotalBlocks()
		g, s := l.Group(b), l.Slot(b)
		if s < 0 || s >= l.Slots() || g < 0 || g >= l.Groups {
			return false
		}
		return l.Block(g, s) == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFig3RegionInterleaving(t *testing.T) {
	l := testLayout(t)
	// Fig. 3: S0,S1 -> R0; S2,S3 -> R1; ...; S254,S255 -> R127;
	// S256,S257 -> R0 again.
	cases := []struct {
		group  int64
		region int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {254, 127}, {255, 127}, {256, 0}, {257, 0}, {258, 1},
	}
	for _, c := range cases {
		if got := l.Region(c.group); got != c.region {
			t.Errorf("Region(S%d) = %d, want %d", c.group, got, c.region)
		}
	}
}

func TestPageSpansOneRegion(t *testing.T) {
	l := testLayout(t)
	for p := int64(0); p < l.TotalPages(); p += 97 {
		first := p * l.PageBytes / l.BlockBytes
		r0 := l.Region(l.Group(first))
		r1 := l.Region(l.Group(first + 1))
		if r0 != r1 {
			t.Fatalf("page %d straddles regions %d and %d", p, r0, r1)
		}
		if l.PageRegion(p) != r0 {
			t.Fatalf("PageRegion(%d) = %d, want %d", p, l.PageRegion(p), r0)
		}
	}
}

func TestChannelStriping(t *testing.T) {
	l := testLayout(t)
	if l.Channel(0) != 0 || l.Channel(1) != 1 || l.Channel(2) != 0 {
		t.Error("groups should stripe across channels")
	}
	if l.GroupsPerChannel() != 2048 {
		t.Errorf("groups per channel = %d", l.GroupsPerChannel())
	}
}

func TestLocationOfDisjoint(t *testing.T) {
	l := testLayout(t)
	// Within one channel, every (group, loc) pair must map to a distinct
	// physical block address per module kind.
	seen := map[mem.Kind]map[int64]bool{mem.M1: {}, mem.M2: {}}
	for g := int64(0); g < l.Groups; g += 2 { // channel 0 groups
		for loc := 0; loc < l.Slots(); loc++ {
			lo := l.LocationOf(g, loc)
			if lo.ByteAddr%l.BlockBytes != 0 {
				t.Fatalf("location not block aligned: %+v", lo)
			}
			if seen[lo.Module][lo.ByteAddr] {
				t.Fatalf("collision at %v:%d (group %d loc %d)", lo.Module, lo.ByteAddr, g, loc)
			}
			seen[lo.Module][lo.ByteAddr] = true
		}
	}
	// Exactly the right number of distinct blocks on channel 0.
	if len(seen[mem.M1]) != int(l.GroupsPerChannel()) {
		t.Errorf("M1 blocks = %d", len(seen[mem.M1]))
	}
	if len(seen[mem.M2]) != int(l.GroupsPerChannel())*l.M2Slots {
		t.Errorf("M2 blocks = %d", len(seen[mem.M2]))
	}
}

func TestLocationZeroIsM1(t *testing.T) {
	l := testLayout(t)
	for g := int64(0); g < 100; g++ {
		if l.LocationOf(g, 0).Module != mem.M1 {
			t.Fatal("location 0 must be in M1")
		}
		for loc := 1; loc < l.Slots(); loc++ {
			if l.LocationOf(g, loc).Module != mem.M2 {
				t.Fatal("locations 1..8 must be in M2")
			}
		}
	}
}

func TestSTAddresses(t *testing.T) {
	l := testLayout(t)
	if l.STBytesPerChannel() != 2048*8 {
		t.Errorf("ST bytes per channel = %d", l.STBytesPerChannel())
	}
	// ST lines sit beyond the M1 block area and are 64-B aligned.
	blockArea := l.GroupsPerChannel() * l.BlockBytes
	for g := int64(0); g < l.Groups; g += 33 {
		a := l.STLineAddr(g)
		if a < blockArea {
			t.Fatalf("ST line %d overlaps block area", a)
		}
		if a%64 != 0 {
			t.Fatalf("ST line %d not 64-B aligned", a)
		}
	}
	// Eight consecutive same-channel groups share one ST line.
	if l.STLineAddr(0) != l.STLineAddr(14) {
		t.Error("groups 0 and 14 (channel 0, entries 0 and 7) should share an ST line")
	}
	if l.STLineAddr(0) == l.STLineAddr(16) {
		t.Error("entry 8 should be on the next ST line")
	}
}

func TestConsecutivePageGroupsSameChannelStriping(t *testing.T) {
	l := testLayout(t)
	// A page's two blocks land in consecutive groups, hence different
	// channels with 2-channel striping — bandwidth spreading for pages.
	if l.Channel(l.Group(0)) == l.Channel(l.Group(1)) {
		t.Error("consecutive blocks should stripe across channels")
	}
}

// TestPageWalk checks the allocator's page walk against PageRegion on
// every page frame, including a layout with an odd number of groups, where
// a step past the last group lands on an odd one.
func TestPageWalk(t *testing.T) {
	for _, c := range []struct {
		m1       int64
		channels int
		regions  int
	}{
		{8 << 20, 2, 128},
		{1 << 20, 1, 128},
		{257 << 11, 1, 64},
		{96 << 11, 3, 5},
	} {
		l, err := NewLayout(c.m1, c.channels, c.regions, 8)
		if err != nil {
			t.Fatal(err)
		}
		n := l.TotalPages()
		w := l.walkPages()
		for ; w.page < n; w.next() {
			if want := l.PageRegion(w.page); w.region != want {
				t.Fatalf("%d groups, %d regions: page %d in region %d, want %d", l.Groups, l.Regions, w.page, w.region, want)
			}
		}
		if w.page != n {
			t.Fatalf("%d groups: walk ended on page %d, want %d", l.Groups, w.page, n)
		}
	}
}
