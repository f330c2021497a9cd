package trace

import (
	"testing"
	"testing/quick"
)

// MustNewGenerator is the test-only convenience for tables of known-good
// parameters; library code returns errors instead of panicking.
func MustNewGenerator(p Params) *Generator {
	g, err := NewGenerator(p)
	if err != nil {
		panic(err)
	}
	return g
}

func baseParams(pattern Pattern) Params {
	return Params{
		Name:      "test",
		Footprint: 1 << 20,
		Pattern:   pattern,
		WriteFrac: 0.3,
		GapMean:   20,
		Streams:   4,
		HotFrac:   0.1,
		HotProb:   0.6,
		DepFrac:   0.5,
		Seed:      99,
	}
}

func TestValidation(t *testing.T) {
	p := baseParams(Stream)
	p.Footprint = 100
	if _, err := NewGenerator(p); err == nil {
		t.Error("tiny footprint should be rejected")
	}
	p = baseParams(Stream)
	p.GapMean = 0
	if _, err := NewGenerator(p); err == nil {
		t.Error("zero gap should be rejected")
	}
}

func TestDeterminism(t *testing.T) {
	for _, pat := range []Pattern{Stream, PointerChase, StridedRandom, Mixed} {
		a := MustNewGenerator(baseParams(pat))
		b := MustNewGenerator(baseParams(pat))
		for i := 0; i < 5000; i++ {
			ra, rb := a.Next(), b.Next()
			if ra != rb {
				t.Fatalf("%v: diverged at ref %d: %+v vs %+v", pat, i, ra, rb)
			}
		}
	}
}

func TestResetReproduces(t *testing.T) {
	g := MustNewGenerator(baseParams(PointerChase))
	var first []Ref
	for i := 0; i < 1000; i++ {
		first = append(first, g.Next())
	}
	g.Reset()
	for i := 0; i < 1000; i++ {
		if r := g.Next(); r != first[i] {
			t.Fatalf("Reset did not reproduce stream at ref %d", i)
		}
	}
}

// TestResetMatchesFreshWithoutAllocating pins the program-repeat path: a
// Reset reuses the generator's RNG, stream cursors and recent-block ring
// in place, allocating nothing, and the reset generator then draws the
// stream a freshly built one draws, ref for ref.
func TestResetMatchesFreshWithoutAllocating(t *testing.T) {
	for _, pat := range []Pattern{Stream, PointerChase, StridedRandom, Mixed} {
		p := baseParams(pat)
		p.LinesPerTouch = 4
		p.PhaseRefs = 500
		p.RecentProb = 0.3
		g := MustNewGenerator(p)
		run := func() {
			for i := 0; i < 2000; i++ {
				g.Next()
			}
			g.Reset()
		}
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Errorf("%v: %v allocations per run and Reset, want 0", pat, allocs)
		}
		fresh := MustNewGenerator(p)
		for i := 0; i < 5000; i++ {
			if got, want := g.Next(), fresh.Next(); got != want {
				t.Fatalf("%v: reset generator drew %+v at ref %d, a fresh one %+v", pat, got, i, want)
			}
		}
	}
}

func TestAddressesInFootprintAligned(t *testing.T) {
	for _, pat := range []Pattern{Stream, PointerChase, StridedRandom, Mixed} {
		g := MustNewGenerator(baseParams(pat))
		for i := 0; i < 20000; i++ {
			r := g.Next()
			if r.VAddr < 0 || r.VAddr >= g.Footprint() {
				t.Fatalf("%v: address %d outside footprint %d", pat, r.VAddr, g.Footprint())
			}
			if r.VAddr%64 != 0 {
				t.Fatalf("%v: address %d not 64-B aligned", pat, r.VAddr)
			}
		}
	}
}

func TestWriteFraction(t *testing.T) {
	g := MustNewGenerator(baseParams(Stream))
	writes := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if g.Next().Write {
			writes++
		}
	}
	frac := float64(writes) / n
	if frac < 0.27 || frac > 0.33 {
		t.Errorf("write fraction %v, want ~0.3", frac)
	}
}

func TestGapMean(t *testing.T) {
	g := MustNewGenerator(baseParams(StridedRandom))
	var sum int64
	const n = 50000
	for i := 0; i < n; i++ {
		gap := g.Next().Gap
		if gap < 1 {
			t.Fatalf("gap %d < 1", gap)
		}
		sum += int64(gap)
	}
	mean := float64(sum) / n
	// Uniform in [GapMean/2, 3*GapMean/2) has mean ~GapMean.
	if mean < 17 || mean > 23 {
		t.Errorf("gap mean %v, want ~20", mean)
	}
}

func TestStreamSequentiality(t *testing.T) {
	p := baseParams(Stream)
	p.Streams = 1
	p.WriteFrac = 0
	g := MustNewGenerator(p)
	prev := g.Next().VAddr
	for i := 0; i < 1000; i++ {
		cur := g.Next().VAddr
		want := (prev + 64) % p.Footprint
		if cur != want {
			t.Fatalf("single stream not sequential: %d -> %d", prev, cur)
		}
		prev = cur
	}
}

func TestStreamsNoDependences(t *testing.T) {
	g := MustNewGenerator(baseParams(Stream))
	for i := 0; i < 10000; i++ {
		if g.Next().Dep {
			t.Fatal("stream references must not be dependent")
		}
	}
}

func TestPointerChaseDependenceFraction(t *testing.T) {
	p := baseParams(PointerChase)
	p.LinesPerTouch = 1
	g := MustNewGenerator(p)
	dep := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if g.Next().Dep {
			dep++
		}
	}
	frac := float64(dep) / n
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("dep fraction %v, want ~0.5", frac)
	}
}

func TestHotSkewConcentratesAccesses(t *testing.T) {
	p := baseParams(PointerChase)
	p.LinesPerTouch = 1
	p.DepFrac = 0
	p.PhaseRefs = 0 // static hot set at the footprint start
	g := MustNewGenerator(p)
	hotBytes := int64(float64(p.Footprint) * p.HotFrac)
	hot := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if g.Next().VAddr < hotBytes {
			hot++
		}
	}
	frac := float64(hot) / n
	// HotProb 0.6 plus uniform spill-in (~0.04): expect ~0.64.
	if frac < 0.55 || frac > 0.72 {
		t.Errorf("hot fraction %v, want ~0.64", frac)
	}
}

func TestPhaseRotationMovesHotSet(t *testing.T) {
	p := baseParams(PointerChase)
	p.DepFrac = 0
	p.LinesPerTouch = 1
	p.PhaseRefs = 10000
	g := MustNewGenerator(p)
	countHotStart := func() int {
		hotBytes := int64(float64(p.Footprint) * p.HotFrac)
		hits := 0
		for i := 0; i < 5000; i++ {
			if g.Next().VAddr < hotBytes {
				hits++
			}
		}
		return hits
	}
	before := countHotStart()
	for i := 0; i < 5000; i++ { // cross the phase boundary
		g.Next()
	}
	after := countHotStart()
	if after >= before/2 {
		t.Errorf("hot set did not move: before=%d after=%d", before, after)
	}
}

func TestLinesPerTouchSpatialLocality(t *testing.T) {
	p := baseParams(PointerChase)
	p.LinesPerTouch = 4
	p.DepFrac = 0
	g := MustNewGenerator(p)
	sequential := 0
	prev := g.Next().VAddr
	const n = 20000
	for i := 0; i < n; i++ {
		cur := g.Next().VAddr
		if cur == prev+64 {
			sequential++
		}
		prev = cur
	}
	// With mean 4 lines per touch, well over half of the references are
	// sequential continuations.
	if frac := float64(sequential) / n; frac < 0.5 {
		t.Errorf("sequential continuation fraction %v too low for LinesPerTouch=4", frac)
	}
}

func TestMixedAlternatesPhases(t *testing.T) {
	p := baseParams(Mixed)
	p.PhaseRefs = 2000
	g := MustNewGenerator(p)
	// In the stream phase, dependencies never occur; in the irregular
	// phase they do. Seeing both proves alternation.
	sawDep := false
	for i := 0; i < 10000; i++ {
		if g.Next().Dep {
			sawDep = true
			break
		}
	}
	if !sawDep {
		t.Error("mixed pattern never produced a dependent reference")
	}
}

func TestRefsCounter(t *testing.T) {
	g := MustNewGenerator(baseParams(Stream))
	for i := 0; i < 123; i++ {
		g.Next()
	}
	if g.Refs() != 123 {
		t.Errorf("Refs = %d", g.Refs())
	}
	g.Reset()
	if g.Refs() != 0 {
		t.Error("Reset should clear Refs")
	}
}

func TestPatternString(t *testing.T) {
	for _, c := range []struct {
		p    Pattern
		want string
	}{{Stream, "stream"}, {PointerChase, "pointer-chase"}, {StridedRandom, "strided-random"}, {Mixed, "mixed"}} {
		if c.p.String() != c.want {
			t.Errorf("%v", c.p)
		}
	}
}

func TestSeedChangesStreamProperty(t *testing.T) {
	f := func(s1, s2 uint64) bool {
		if s1 == s2 {
			return true
		}
		p1, p2 := baseParams(StridedRandom), baseParams(StridedRandom)
		p1.Seed, p2.Seed = s1, s2
		g1, g2 := MustNewGenerator(p1), MustNewGenerator(p2)
		same := 0
		for i := 0; i < 200; i++ {
			if g1.Next().VAddr == g2.Next().VAddr {
				same++
			}
		}
		return same < 100 // different seeds should mostly differ
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
