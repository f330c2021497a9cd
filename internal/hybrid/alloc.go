package hybrid

import (
	"fmt"

	"profess/internal/xrand"
)

// Allocator is the OS-support piece RSM requires (§3.1.1): it tracks free
// physical page frames per region, dedicates one private region to each
// program, and hands out frames so that a program receives pages from its
// own private region and from the shared regions only — never from another
// program's private region. Swaps remain transparent to this layer.
type Allocator struct {
	layout      Layout
	numPrograms int

	freeByRegion [][]int64 // shuffled free page-frame lists, per region
	allowed      [][]int   // per program: regions it may receive frames from
	rr           []int     // per program: round-robin cursor into allowed
	owner        []int8    // per original block: owning core, -1 if free

	allocated []int64 // pages allocated per program

	// Snapshot of the just-shuffled free lists and the seed that produced
	// them: Reset with the same seed restores the lists with one copy per
	// region instead of re-deriving the shuffle (page fill + Fisher-Yates
	// + RNG stream), the dominant reset cost of an arena-reused machine.
	shuffleSeed uint64
	shuffled    [][]int64
}

// NewAllocator builds the OS view for numPrograms co-running programs.
// Region i is private to program i; the remaining Regions-numPrograms
// regions are shared. The free lists are deterministically shuffled with
// seed to model arbitrary OS frame placement.
func NewAllocator(l Layout, numPrograms int, seed uint64) (*Allocator, error) {
	if numPrograms <= 0 || numPrograms >= l.Regions {
		return nil, fmt.Errorf("hybrid: %d programs does not leave shared regions among %d", numPrograms, l.Regions)
	}
	a := &Allocator{
		layout:      l,
		numPrograms: numPrograms,
		owner:       make([]int8, l.TotalBlocks()),
		allocated:   make([]int64, numPrograms),
	}
	for i := range a.owner {
		a.owner[i] = -1
	}
	// Every region's free list is carved, at its exact length, from one
	// array of all the page frames, so filling the lists allocates once.
	// Grown page by page, they would be reallocated at every doubling:
	// half of what building a machine allocates, in hundreds of objects.
	n := l.TotalPages()
	counts := make([]int, l.Regions)
	for w := l.walkPages(); w.page < n; w.next() {
		counts[w.region]++
	}
	free := make([]int64, n)
	a.freeByRegion = make([][]int64, l.Regions)
	for r, c := range counts {
		a.freeByRegion[r], free = free[:0:c], free[c:]
	}
	a.shuffle(seed)
	a.allowed = make([][]int, numPrograms)
	a.rr = make([]int, numPrograms)
	for c := 0; c < numPrograms; c++ {
		regions := make([]int, 0, 1+l.Regions-numPrograms)
		regions = append(regions, c) // own private region
		for r := numPrograms; r < l.Regions; r++ {
			regions = append(regions, r) // all shared regions
		}
		a.allowed[c] = regions
	}
	return a, nil
}

// shuffle refills every region's free list with its page frames in page
// order and shuffles the lists with one rng shared across regions,
// regions visited in index order.
func (a *Allocator) shuffle(seed uint64) {
	for r := range a.freeByRegion {
		a.freeByRegion[r] = a.freeByRegion[r][:0]
	}
	l := a.layout
	for w, n := l.walkPages(), l.TotalPages(); w.page < n; w.next() {
		a.freeByRegion[w.region] = append(a.freeByRegion[w.region], w.page)
	}
	rng := xrand.New(seed)
	for r := range a.freeByRegion {
		pages := a.freeByRegion[r]
		for i := len(pages) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			pages[i], pages[j] = pages[j], pages[i]
		}
	}
}

// Reset returns the allocator to its just-built state for a (possibly
// different) shuffle seed: every frame free, every block unowned, the
// round-robin cursors rewound. The free lists are refilled and reshuffled
// by the same shuffle NewAllocator runs, so Reset(seed) is
// indistinguishable from NewAllocator(l, n, seed) to every caller.
func (a *Allocator) Reset(seed uint64) {
	for i := range a.owner {
		a.owner[i] = -1
	}
	clear(a.allocated)
	clear(a.rr)
	if seed == a.shuffleSeed && a.shuffled != nil {
		for r := range a.freeByRegion {
			a.freeByRegion[r] = append(a.freeByRegion[r][:0], a.shuffled[r]...)
		}
		return
	}
	a.shuffle(seed)
	a.snapshotShuffle(seed)
}

// snapshotShuffle records the freshly shuffled free lists for seed so a
// later same-seed Reset restores them by copy.
func (a *Allocator) snapshotShuffle(seed uint64) {
	if a.shuffled == nil {
		a.shuffled = make([][]int64, len(a.freeByRegion))
	}
	for r, pages := range a.freeByRegion {
		a.shuffled[r] = append(a.shuffled[r][:0], pages...)
	}
	a.shuffleSeed = seed
}

// Alloc assigns vpages physical page frames to program core and returns
// the virtual-page -> physical-page table. Frames rotate round-robin over
// the program's allowed regions so its private region receives
// 1/len(allowed) of its footprint — small, as §3.1.1 requires.
func (a *Allocator) Alloc(core int, vpages int64) ([]int64, error) {
	if core < 0 || core >= a.numPrograms {
		return nil, fmt.Errorf("hybrid: core %d out of range", core)
	}
	table := make([]int64, vpages)
	for v := int64(0); v < vpages; v++ {
		p, ok := a.takeFrame(core)
		if !ok {
			return nil, fmt.Errorf("hybrid: out of physical pages after %d of %d for core %d", v, vpages, core)
		}
		table[v] = p
		a.claim(core, p)
	}
	a.allocated[core] += vpages
	return table, nil
}

// takeFrame pops the next free frame for core, skipping exhausted regions.
func (a *Allocator) takeFrame(core int) (int64, bool) {
	allowed := a.allowed[core]
	for tries := 0; tries < len(allowed); tries++ {
		r := allowed[a.rr[core]%len(allowed)]
		a.rr[core]++
		free := a.freeByRegion[r]
		if len(free) == 0 {
			continue
		}
		p := free[len(free)-1]
		a.freeByRegion[r] = free[:len(free)-1]
		return p, true
	}
	return 0, false
}

// claim records ownership of every block of page p.
func (a *Allocator) claim(core int, page int64) {
	first := page * a.layout.PageBytes / a.layout.BlockBytes
	for i := 0; i < a.layout.BlocksPerPage(); i++ {
		a.owner[first+int64(i)] = int8(core)
	}
}

// OwnerBlock returns the program owning the original block, or -1.
func (a *Allocator) OwnerBlock(block int64) int { return int(a.owner[block]) }

// Owner returns the program owning the block at (group, slot), or -1.
func (a *Allocator) Owner(group int64, slot int) int {
	return int(a.owner[a.layout.Block(group, slot)])
}

// PrivateRegion returns the region private to core.
func (a *Allocator) PrivateRegion(core int) int { return core }

// IsPrivate reports whether region is core's own private region.
func (a *Allocator) IsPrivate(core, region int) bool { return region == core }

// IsAnyPrivate reports whether region is private to some program.
func (a *Allocator) IsAnyPrivate(region int) bool { return region < a.numPrograms }

// Allocated returns the number of pages allocated to core.
func (a *Allocator) Allocated(core int) int64 { return a.allocated[core] }

// FreePages returns the total number of free page frames remaining.
func (a *Allocator) FreePages() int64 {
	var n int64
	for _, f := range a.freeByRegion {
		n += int64(len(f))
	}
	return n
}
