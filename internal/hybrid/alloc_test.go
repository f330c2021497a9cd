package hybrid

import (
	"testing"
)

func testAllocator(t *testing.T, programs int) (*Allocator, Layout) {
	t.Helper()
	l := testLayout(t)
	a, err := NewAllocator(l, programs, 7)
	if err != nil {
		t.Fatal(err)
	}
	return a, l
}

func TestAllocatorValidation(t *testing.T) {
	l := testLayout(t)
	if _, err := NewAllocator(l, 0, 1); err == nil {
		t.Error("zero programs should fail")
	}
	if _, err := NewAllocator(l, 128, 1); err == nil {
		t.Error("programs consuming every region should fail")
	}
}

func TestPrivateRegionIsolation(t *testing.T) {
	a, l := testAllocator(t, 4)
	for core := 0; core < 4; core++ {
		pages, err := a.Alloc(core, 500)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pages {
			r := l.PageRegion(p)
			// A program may receive frames from its own private region or
			// from shared regions — never from another private region.
			if r < 4 && r != core {
				t.Fatalf("core %d received a page in core %d's private region", core, r)
			}
		}
	}
}

func TestPrivateRegionReceivesSmallShare(t *testing.T) {
	a, l := testAllocator(t, 4)
	pages, err := a.Alloc(0, 2000)
	if err != nil {
		t.Fatal(err)
	}
	private := 0
	for _, p := range pages {
		if l.PageRegion(p) == 0 {
			private++
		}
	}
	// Allowed regions: 1 private + 124 shared = 125; round-robin gives
	// 2000/125 = 16 private pages.
	if private < 8 || private > 32 {
		t.Errorf("private pages = %d, want ~16", private)
	}
}

func TestOwnershipTracking(t *testing.T) {
	a, l := testAllocator(t, 2)
	pages, err := a.Alloc(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pages {
		first := p * l.PageBytes / l.BlockBytes
		for i := 0; i < l.BlocksPerPage(); i++ {
			b := first + int64(i)
			if got := a.OwnerBlock(b); got != 1 {
				t.Fatalf("block %d owner = %d, want 1", b, got)
			}
			if got := a.Owner(l.Group(b), l.Slot(b)); got != 1 {
				t.Fatalf("Owner(group,slot) = %d, want 1", got)
			}
		}
	}
	// Untouched blocks stay unowned. Find one.
	found := false
	for b := int64(0); b < l.TotalBlocks(); b++ {
		if a.OwnerBlock(b) == -1 {
			found = true
			break
		}
	}
	if !found {
		t.Error("expected unallocated blocks")
	}
}

func TestNoDoubleAllocation(t *testing.T) {
	a, _ := testAllocator(t, 2)
	seen := map[int64]bool{}
	for core := 0; core < 2; core++ {
		pages, err := a.Alloc(core, 3000)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pages {
			if seen[p] {
				t.Fatalf("page %d allocated twice", p)
			}
			seen[p] = true
		}
	}
}

func TestAllocExhaustion(t *testing.T) {
	a, l := testAllocator(t, 1)
	total := l.TotalPages()
	if _, err := a.Alloc(0, total+1); err == nil {
		t.Error("over-allocation should fail")
	}
}

func TestAllocAccounting(t *testing.T) {
	a, l := testAllocator(t, 2)
	before := a.FreePages()
	if before != l.TotalPages() {
		t.Errorf("free pages = %d, want all %d", before, l.TotalPages())
	}
	if _, err := a.Alloc(0, 100); err != nil {
		t.Fatal(err)
	}
	if a.Allocated(0) != 100 {
		t.Errorf("Allocated(0) = %d", a.Allocated(0))
	}
	if a.FreePages() != before-100 {
		t.Errorf("free pages = %d, want %d", a.FreePages(), before-100)
	}
}

func TestAllocDeterminism(t *testing.T) {
	run := func() []int64 {
		a, _ := testAllocator(t, 4)
		pages, err := a.Alloc(2, 300)
		if err != nil {
			t.Fatal(err)
		}
		return pages
	}
	p1, p2 := run(), run()
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("allocation not deterministic at page %d", i)
		}
	}
}

// TestNewAllocatorAllocs pins the allocator's construction to a fixed
// number of allocations plus one per program, whatever the page count:
// the free lists are carved from one array instead of growing.
func TestNewAllocatorAllocs(t *testing.T) {
	l := testLayout(t)
	const programs = 4
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := NewAllocator(l, programs, 7); err != nil {
			t.Fatal(err)
		}
	})
	if want := 8 + programs; allocs > float64(want) {
		t.Errorf("NewAllocator made %v allocations over %d pages, want at most %d", allocs, l.TotalPages(), want)
	}
}

func TestRegionHelpers(t *testing.T) {
	a, _ := testAllocator(t, 3)
	if a.PrivateRegion(2) != 2 {
		t.Error("private region of core 2 should be region 2")
	}
	if !a.IsPrivate(1, 1) || a.IsPrivate(1, 0) {
		t.Error("IsPrivate wrong")
	}
	if !a.IsAnyPrivate(2) || a.IsAnyPrivate(3) {
		t.Error("IsAnyPrivate wrong")
	}
	if a.Owner(0, 0) != -1 {
		t.Error("unallocated block should have owner -1")
	}
	if _, err := a.Alloc(7, 1); err == nil {
		t.Error("out-of-range core should fail")
	}
}

func TestAllocSpreadsAcrossSlots(t *testing.T) {
	// With shuffled free lists, a program's pages should span multiple
	// slots — i.e. it starts with some data in M1 (slot 0) and most in M2.
	a, l := testAllocator(t, 4)
	pages, err := a.Alloc(0, 2000)
	if err != nil {
		t.Fatal(err)
	}
	slotSeen := map[int]int{}
	for _, p := range pages {
		b := p * l.PageBytes / l.BlockBytes
		slotSeen[l.Slot(b)]++
	}
	if len(slotSeen) < 5 {
		t.Errorf("pages concentrated in %d slots: %v", len(slotSeen), slotSeen)
	}
	if slotSeen[0] == 0 {
		t.Error("expected some pages initially in M1 (slot 0)")
	}
}
