package migrate

import "profess/internal/hybrid"

// Profiler is a non-migrating policy that records per-block access counts
// (writes weighted like PoM/ProFess count them). It is the first pass of
// the two-pass oracle: run once to learn which block of each swap group
// deserves the group's single M1 location.
type Profiler struct {
	hybrid.BasePolicy
	// Counts maps group*9+slot to the weighted access count.
	Counts      map[int64]uint64
	writeWeight int
}

// NewProfiler builds a profiler with the given write weight (§4.1 uses 8).
func NewProfiler(writeWeight int) *Profiler {
	if writeWeight <= 0 {
		writeWeight = 1
	}
	return &Profiler{Counts: make(map[int64]uint64), writeWeight: writeWeight}
}

// Name implements hybrid.Policy.
func (*Profiler) Name() string { return "profiler" }

// WriteWeight implements hybrid.Policy.
func (p *Profiler) WriteWeight() int { return p.writeWeight }

// OnAccess implements hybrid.Policy: count, never migrate.
func (p *Profiler) OnAccess(info hybrid.AccessInfo, ctl hybrid.PolicyContext) {
	w := uint64(1)
	if info.Write {
		w = uint64(p.writeWeight)
	}
	p.Counts[key(info.Group, info.Slot)] += w
}

// Oracle is the profile-guided static-placement upper bound: with perfect
// knowledge of each block's total access count, the best *static* resident
// of each group's M1 location is the most-accessed block. The oracle swaps
// that block in on its first touch (at most one swap per group) and then
// leaves the mapping alone. It bounds what any reactive policy with
// one-shot placement could achieve; comparing MDM against it quantifies
// how much of the statically-reachable benefit MDM's predictions capture.
// (Not part of the paper; used by the ablation/extension benches.)
type Oracle struct {
	hybrid.BasePolicy
	best map[int64]int // group -> best slot
	done map[int64]bool
	// Swaps counts the one-time placements performed.
	Swaps int64
}

// NewOracle derives the per-group best slots from a Profiler's counts; of
// blocks with equal counts the lowest slot wins, so the placement does not
// depend on map order. Groups whose best block already sits in slot 0
// (initially M1-resident) need no swap and are skipped; so are groups
// where the margin over the slot-0 block would not repay one swap
// (minBenefit in weighted accesses).
func NewOracle(counts map[int64]uint64, minBenefit uint64) *Oracle {
	type bestEntry struct {
		slot  int
		count uint64
		slot0 uint64
	}
	agg := make(map[int64]*bestEntry)
	for k, c := range counts {
		group, slot := k/hybrid.MaxSlots, int(k%hybrid.MaxSlots)
		e := agg[group]
		if e == nil {
			e = &bestEntry{slot: -1}
			agg[group] = e
		}
		if slot == 0 {
			e.slot0 = c
		}
		if c > e.count || c == e.count && (e.slot < 0 || slot < e.slot) {
			e.count, e.slot = c, slot
		}
	}
	o := &Oracle{best: make(map[int64]int), done: make(map[int64]bool)}
	for group, e := range agg {
		if e.slot <= 0 {
			continue // already resident, or nothing profiled
		}
		if e.count < e.slot0+minBenefit {
			continue // the swap would not repay itself
		}
		o.best[group] = e.slot
	}
	return o
}

// Name implements hybrid.Policy.
func (*Oracle) Name() string { return "oracle" }

// WriteWeight implements hybrid.Policy (match the profiling weight's
// effect on counters; the oracle itself ignores counters).
func (*Oracle) WriteWeight() int { return 8 }

// Placements returns how many groups have a pending or applied placement.
func (o *Oracle) Placements() int { return len(o.best) }

// OnAccess implements hybrid.Policy: perform the group's one placement on
// first touch of the chosen block.
func (o *Oracle) OnAccess(info hybrid.AccessInfo, ctl hybrid.PolicyContext) {
	if info.Loc == 0 || o.done[info.Group] {
		return
	}
	best, ok := o.best[info.Group]
	if !ok || best != info.Slot {
		return
	}
	if ctl.ScheduleSwap(info.Group, info.Slot) {
		o.done[info.Group] = true
		o.Swaps++
	}
}

var (
	_ hybrid.Policy = (*Profiler)(nil)
	_ hybrid.Policy = (*Oracle)(nil)
)
