// Package hybrid implements the flat migrating hybrid-memory organization
// the paper builds on (the PoM organization of §2.3): swap groups of nine
// 2-KB locations (one in M1, eight in M2), a Swap-group Table (ST) resident
// in M1, an on-chip Swap-group Table Cache (STC) with the per-block access
// counters and QAC persistence that MDM needs, the interleaved region map
// of Fig. 3, an OS page allocator honouring private/shared regions, and the
// memory controller that ties translation, demand service, and swaps
// together.
package hybrid

import (
	"fmt"

	"profess/internal/mem"
)

// SlotsPerGroup is the number of locations in a swap group: one M1 block
// plus eight M2 blocks (M1:M2 capacity ratio 1:8, Table 1/§2.2).
const SlotsPerGroup = 9

// MaxSlots bounds the locations per group the hardware structures are
// sized for; it admits the 1:16 capacity-ratio sensitivity study (§5.2).
const MaxSlots = 17

// Layout describes the address-space organization of the hybrid memory.
type Layout struct {
	BlockBytes int64 // swap-block size (Table 8: 2 KB)
	PageBytes  int64 // OS page size (Table 8: 4 KB)
	Groups     int64 // number of swap groups == number of M1 blocks
	Channels   int   // memory channels; groups stripe across channels
	Regions    int   // RSM regions (Fig. 3: 128)
	M2Slots    int   // M2 locations per group (8 for the 1:8 ratio)
}

// NewLayout builds a layout from the M1 capacity (across all channels).
// m1Capacity must be a multiple of Channels*BlockBytes.
func NewLayout(m1Capacity int64, channels, regions, m2Slots int) (Layout, error) {
	l := Layout{
		BlockBytes: 2 << 10,
		PageBytes:  4 << 10,
		Channels:   channels,
		Regions:    regions,
		M2Slots:    m2Slots,
	}
	if channels <= 0 || regions <= 0 {
		return Layout{}, fmt.Errorf("hybrid: channels and regions must be positive")
	}
	if m2Slots <= 0 {
		return Layout{}, fmt.Errorf("hybrid: m2Slots must be positive")
	}
	l.Groups = m1Capacity / l.BlockBytes
	if l.Groups < int64(channels) || l.Groups%int64(channels) != 0 {
		return Layout{}, fmt.Errorf("hybrid: M1 capacity %d not divisible into %d channels of 2-KB blocks", m1Capacity, channels)
	}
	if l.Groups < int64(2*regions) {
		return Layout{}, fmt.Errorf("hybrid: %d groups too few for %d regions", l.Groups, regions)
	}
	return l, nil
}

// Slots returns the number of locations per group (1 + M2Slots).
func (l Layout) Slots() int { return 1 + l.M2Slots }

// TotalBlocks returns the number of original (OS-visible) 2-KB blocks.
func (l Layout) TotalBlocks() int64 { return l.Groups * int64(l.Slots()) }

// TotalPages returns the number of OS-visible 4-KB page frames.
func (l Layout) TotalPages() int64 { return l.TotalBlocks() * l.BlockBytes / l.PageBytes }

// M1Capacity returns the M1 byte capacity (block area, ST excluded).
func (l Layout) M1Capacity() int64 { return l.Groups * l.BlockBytes }

// M2Capacity returns the M2 byte capacity.
func (l Layout) M2Capacity() int64 { return l.Groups * int64(l.M2Slots) * l.BlockBytes }

// BlocksPerPage is how many swap blocks one OS page spans (2 with Table 8
// sizes). Consecutive blocks of a page land in consecutive swap groups,
// which the region interleaving maps to the same region (Fig. 3).
func (l Layout) BlocksPerPage() int { return int(l.PageBytes / l.BlockBytes) }

// Group returns the swap group of an original block index. PoM's
// direct-mapped organization assigns block B to group B mod Groups, so the
// blocks of one group are B, B+G, B+2G, ..., one per slot.
func (l Layout) Group(block int64) int64 { return block % l.Groups }

// Slot returns the slot (0..8) of an original block index within its group.
// Slot s of group g holds original block g + s*Groups. Slot number is the
// block's identity inside the group; the ST permutation maps it to an
// actual location.
func (l Layout) Slot(block int64) int { return int(block / l.Groups) }

// Block reconstructs the original block index from (group, slot).
func (l Layout) Block(group int64, slot int) int64 {
	return group + int64(slot)*l.Groups
}

// Region returns the RSM region of a swap group, following Fig. 3's
// interleaving: groups (0,1) -> region 0, (2,3) -> region 1, ...,
// (254,255) -> region 127, (256,257) -> region 0, and so on.
func (l Layout) Region(group int64) int {
	return int((group / int64(l.BlocksPerPage())) % int64(l.Regions))
}

// PageRegion returns the region of an OS page frame. All blocks of a page
// share a region by construction.
func (l Layout) PageRegion(page int64) int {
	firstBlock := page * l.PageBytes / l.BlockBytes
	return l.Region(l.Group(firstBlock))
}

// pageWalk steps through the page frames in order with each one's
// region, as PageRegion computes it but with no division per step: a
// page's first block lies BlocksPerPage groups past the previous page's,
// so its region is the next one round unless the step wrapped past the
// last group into the next slot.
type pageWalk struct {
	l      Layout
	bpp    int64
	page   int64
	group  int64 // group of the page's first block
	region int
}

// walkPages returns a walk standing on page frame 0.
func (l Layout) walkPages() pageWalk { return pageWalk{l: l, bpp: int64(l.BlocksPerPage())} }

// next moves the walk on to the next page frame.
func (w *pageWalk) next() {
	w.page++
	if w.group += w.bpp; w.group >= w.l.Groups {
		w.group -= w.l.Groups
		w.region = w.l.Region(w.group)
	} else if w.region++; w.region == w.l.Regions {
		w.region = 0
	}
}

// Channel returns the memory channel serving a group. Groups stripe across
// channels so both partitions of one group live on the same channel and a
// swap stays channel-local.
func (l Layout) Channel(group int64) int { return int(group % int64(l.Channels)) }

// localGroup is the group's index within its channel.
func (l Layout) localGroup(group int64) int64 { return group / int64(l.Channels) }

// GroupsPerChannel returns how many groups each channel serves.
func (l Layout) GroupsPerChannel() int64 { return l.Groups / int64(l.Channels) }

// Location identifies an actual physical 2-KB block placement.
type Location struct {
	Module mem.Kind
	// ByteAddr is the block's byte offset within its module (per channel).
	ByteAddr int64
}

// LocationOf maps (group, location index) to the physical placement on the
// group's channel. Location 0 is the group's M1 block; locations 1..8 are
// its M2 blocks, striped so that consecutive groups' same-numbered M2
// locations are adjacent (preserving row-buffer locality for streams).
func (l Layout) LocationOf(group int64, loc int) Location {
	lg := l.localGroup(group)
	if loc == 0 {
		return Location{Module: mem.M1, ByteAddr: lg * l.BlockBytes}
	}
	idx := int64(loc-1)*l.GroupsPerChannel() + lg
	return Location{Module: mem.M2, ByteAddr: idx * l.BlockBytes}
}

// STBytesPerChannel returns the Swap-group Table size on each channel
// (8 bytes per entry, Table 8).
func (l Layout) STBytesPerChannel() int64 { return l.GroupsPerChannel() * STEntryBytes }

// STEntryBytes is the ST entry size (Table 8: 8 B; §4.1 details ProFess's
// 36 ATB + 18 QAC + 2 program-ID bits = 7 B with one byte reserved).
const STEntryBytes = 8

// STLineAddr returns the M1 byte address (within the group's channel,
// beyond the block area) of the 64-B line holding the group's ST entry.
func (l Layout) STLineAddr(group int64) int64 {
	lg := l.localGroup(group)
	base := l.GroupsPerChannel() * l.BlockBytes // ST area sits after the block area
	return base + (lg*STEntryBytes)&^63
}
