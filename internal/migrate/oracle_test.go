package migrate

import (
	"testing"
)

func TestProfilerCountsWeighted(t *testing.T) {
	p := NewProfiler(8)
	ctx := newFakeCtx()
	p.OnAccess(access(3, 4, 4, false), ctx)
	p.OnAccess(access(3, 4, 4, true), ctx)
	if got := p.Counts[key(3, 4)]; got != 9 {
		t.Errorf("count = %d, want 1 + 8", got)
	}
	if len(ctx.swaps) != 0 {
		t.Error("profiler must never migrate")
	}
	if p.WriteWeight() != 8 || p.Name() != "profiler" {
		t.Error("metadata")
	}
}

func TestOracleDerivation(t *testing.T) {
	counts := map[int64]uint64{
		// Group 0: slot 4 dominates slot 0 -> placement.
		key(0, 0): 10, key(0, 4): 100,
		// Group 1: slot 0 already best -> no placement.
		key(1, 0): 50, key(1, 3): 20,
		// Group 2: slot 2 barely above slot 0 -> below min benefit.
		key(2, 0): 10, key(2, 2): 12,
	}
	o := NewOracle(counts, 8)
	if o.Placements() != 1 {
		t.Fatalf("placements = %d, want 1", o.Placements())
	}
	ctx := newFakeCtx()
	// Touching the wrong slot does nothing.
	o.OnAccess(access(0, 3, 3, false), ctx)
	if len(ctx.swaps) != 0 {
		t.Error("oracle swapped a non-chosen block")
	}
	// Touching the chosen block performs the one placement.
	o.OnAccess(access(0, 4, 4, false), ctx)
	if len(ctx.swaps) != 1 || ctx.swaps[0] != key(0, 4) {
		t.Fatalf("swaps = %v", ctx.swaps)
	}
	// Never again for this group.
	o.OnAccess(access(0, 4, 4, false), ctx)
	if len(ctx.swaps) != 1 || o.Swaps != 1 {
		t.Error("oracle must place at most once per group")
	}
}

// TestOracleTieLowestSlot: blocks with equal counts tie, and the lowest
// slot must win every time, whatever order the profile map yields them in.
func TestOracleTieLowestSlot(t *testing.T) {
	for i := 0; i < 200; i++ {
		counts := map[int64]uint64{key(7, 0): 1}
		for _, slot := range []int{8, 3, 6, 5, 2, 7} {
			counts[key(7, slot)] = 40
		}
		counts[key(7, 1)] = 39
		if got := NewOracle(counts, 8).best[7]; got != 2 {
			t.Fatalf("build %d: tied group placed slot %d, want the lowest tied slot 2", i, got)
		}
	}
}

func TestOracleIgnoresM1Accesses(t *testing.T) {
	o := NewOracle(map[int64]uint64{key(0, 4): 100}, 0)
	ctx := newFakeCtx()
	o.OnAccess(access(0, 4, 0, false), ctx) // block already in M1
	if len(ctx.swaps) != 0 {
		t.Error("M1 access must not trigger placement")
	}
}

func TestOracleEmptyProfile(t *testing.T) {
	o := NewOracle(nil, 8)
	if o.Placements() != 0 {
		t.Error("empty profile should plan nothing")
	}
}
