// Package trace synthesises the memory-reference behaviour of the SPEC
// CPU2006 programs in Table 9 of the ProFess paper. The real study drives
// the memory system with Pin-captured 500M-instruction SimPoints; those
// traces are proprietary, so — per the reproduction's substitution rule —
// each program is replaced by a deterministic generator that reproduces the
// properties that matter to migration policies:
//
//   - footprint (scaled with the rest of the system),
//   - last-level-cache miss density (instructions between misses),
//   - access-pattern class: streaming, pointer-chasing, strided-random or
//     mixed (the paper calls out mcf/omnetpp/libquantum as irregular and
//     soplex as mixed, citing [28]),
//   - write fraction (lbm is write-heavy),
//   - block-level hot/cold skew and phase changes, which create the reuse
//     statistics MDM's QAC machinery predicts from,
//   - dependence structure, which limits memory-level parallelism.
//
// A generator emits an ordered stream of 64-byte references at the
// L2-miss level; the simulated shared L3 filters them further before they
// reach the memory controller.
package trace

import (
	"fmt"

	"profess/internal/xrand"
)

// Ref is one 64-B memory reference at the L2-miss level.
type Ref struct {
	VAddr int64 // virtual byte address, 64-B aligned
	Write bool
	// Gap is the number of instructions the core executes between the
	// previous reference and this one (compute work).
	Gap int32
	// Dep marks the reference as data-dependent on the previous one:
	// the core may not issue it until the previous reference completes
	// (pointer chasing).
	Dep bool
}

// Pattern classifies a generator's access behaviour.
type Pattern uint8

const (
	// Stream: a set of sequential streams sweeping the footprint.
	Stream Pattern = iota
	// PointerChase: dependent, irregular block-to-block jumps with a
	// hot-set skew (mcf, omnetpp).
	PointerChase
	// StridedRandom: independent irregular accesses with mild skew (milc).
	StridedRandom
	// Mixed: alternating streaming and irregular phases (soplex).
	Mixed
)

// String implements fmt.Stringer.
func (p Pattern) String() string {
	switch p {
	case Stream:
		return "stream"
	case PointerChase:
		return "pointer-chase"
	case StridedRandom:
		return "strided-random"
	case Mixed:
		return "mixed"
	}
	return fmt.Sprintf("pattern(%d)", p)
}

// Params fully describes one synthetic program. All sizes are in bytes and
// already scaled to the simulated system.
type Params struct {
	Name      string
	Footprint int64 // bytes touched by the program (page aligned by the OS layer)
	Pattern   Pattern
	WriteFrac float64 // fraction of references that are writes
	GapMean   int32   // mean instructions between references
	Streams   int     // concurrent streams (Stream/Mixed)
	HotFrac   float64 // fraction of the footprint that is hot
	HotProb   float64 // probability a reference targets the hot set
	DepFrac   float64 // fraction of references marked dependent
	// LinesPerTouch is how many consecutive 64-B lines a visit to a block
	// touches (spatial locality inside a 2-KB migration block).
	LinesPerTouch int
	// PhaseRefs rotates the hot set after this many references, modelling
	// working-set changes (0 = static hot set).
	PhaseRefs int64
	// RecentProb makes irregular patterns revisit one of the last
	// RecentWindow distinct blocks with this probability — the temporal
	// locality that real pointer-chasing codes exhibit (and that gives
	// the STC its filtering power, §3.2).
	RecentProb   float64
	RecentWindow int // default 32 when RecentProb > 0
	Seed         uint64
}

// Generator produces the reference stream for one program instance.
// It is deterministic: two generators with equal Params produce equal
// streams. Reset restarts the program for the paper's repeat-until-slowest
// methodology.
type Generator struct {
	p   Params
	rng xrand.RNG

	refs      int64   // references emitted since Reset
	streams   []int64 // per-stream byte cursors
	strIdx    int
	phase     int64
	burstAddr int64 // current intra-block cursor
	burstLeft int
	recent    []int64 // ring of recently visited block addresses
	recentIdx int
}

const lineBytes = 64

// NewGenerator validates p and builds a generator.
func NewGenerator(p Params) (*Generator, error) {
	if p.Footprint < 4096 {
		return nil, fmt.Errorf("trace: %s: footprint %d too small", p.Name, p.Footprint)
	}
	if p.GapMean <= 0 {
		return nil, fmt.Errorf("trace: %s: GapMean must be positive", p.Name)
	}
	if p.LinesPerTouch <= 0 {
		p.LinesPerTouch = 1
	}
	if p.Streams <= 0 {
		p.Streams = 1
	}
	if p.RecentProb > 0 && p.RecentWindow <= 0 {
		p.RecentWindow = 32
	}
	g := &Generator{p: p, streams: make([]int64, p.Streams)}
	g.Reset()
	return g, nil
}

// Params returns the generator's parameters.
func (g *Generator) Params() Params { return g.p }

// Footprint returns the byte footprint.
func (g *Generator) Footprint() int64 { return g.p.Footprint }

// Reset restarts the program from its initial state. It reseeds the RNG
// in place and reuses the stream cursors and the recent-block ring, so a
// program repeat allocates nothing.
func (g *Generator) Reset() {
	g.rng.Seed(g.p.Seed)
	g.refs = 0
	g.phase = 0
	g.burstLeft = 0
	g.strIdx = 0
	g.recent = g.recent[:0]
	g.recentIdx = 0
	span := g.p.Footprint / int64(g.p.Streams)
	for i := range g.streams {
		g.streams[i] = int64(i) * span
	}
}

// Next returns the next reference.
func (g *Generator) Next() Ref {
	g.refs++
	if g.p.PhaseRefs > 0 && g.refs%g.p.PhaseRefs == 0 {
		g.phase++
	}
	var addr int64
	var dep bool
	if g.burstLeft > 0 {
		// Continue touching consecutive lines of the current block.
		g.burstLeft--
		g.burstAddr += lineBytes
		addr = g.burstAddr % g.p.Footprint
		dep = false
	} else {
		addr, dep = g.nextBlockVisit()
		g.burstAddr = addr
		g.burstLeft = g.burstLinesLeft()
	}
	write := g.rng.Bool(g.p.WriteFrac)
	gap := g.gap()
	return Ref{VAddr: addr &^ (lineBytes - 1), Write: write, Gap: gap, Dep: dep}
}

// burstLinesLeft draws how many further lines this block visit touches.
func (g *Generator) burstLinesLeft() int {
	n := g.p.LinesPerTouch
	if n <= 1 {
		return 0
	}
	// Uniform in [1, 2n-1] keeps the mean at n while varying visits.
	return g.rng.Intn(2*n-1) + 1 - 1
}

// gap draws the instruction gap: uniform in [GapMean/2, 3*GapMean/2].
func (g *Generator) gap() int32 {
	m := g.p.GapMean
	if m <= 1 {
		return 1
	}
	return m/2 + int32(g.rng.Intn(int(m)))
}

// nextBlockVisit picks the first line of the next visited block.
func (g *Generator) nextBlockVisit() (addr int64, dep bool) {
	switch g.p.Pattern {
	case Stream:
		return g.nextStream(), false
	case PointerChase:
		return g.nextIrregular(), g.rng.Bool(g.p.DepFrac)
	case StridedRandom:
		return g.nextIrregular(), g.rng.Bool(g.p.DepFrac)
	case Mixed:
		// Alternate phases every PhaseRefs (or 1/8 footprint of refs).
		per := g.p.PhaseRefs
		if per == 0 {
			per = g.p.Footprint / lineBytes / 8
			if per < 1024 {
				per = 1024
			}
		}
		if (g.refs/per)%2 == 0 {
			return g.nextStream(), false
		}
		return g.nextIrregular(), g.rng.Bool(g.p.DepFrac)
	}
	return g.nextStream(), false
}

// nextStream advances the round-robin streams by one line each call.
func (g *Generator) nextStream() int64 {
	i := g.strIdx
	g.strIdx = (g.strIdx + 1) % len(g.streams)
	a := g.streams[i]
	g.streams[i] = (a + lineBytes) % g.p.Footprint
	return a
}

// nextIrregular draws a block under the hot/cold skew, rotating the hot
// window with the phase counter and revisiting recent blocks with
// RecentProb (temporal locality).
func (g *Generator) nextIrregular() int64 {
	if g.p.RecentProb > 0 && len(g.recent) > 0 && g.rng.Bool(g.p.RecentProb) {
		return g.recent[g.rng.Intn(len(g.recent))]
	}
	blocks := g.p.Footprint / lineBytes
	hotBlocks := int64(float64(blocks) * g.p.HotFrac)
	if hotBlocks < 1 {
		hotBlocks = 1
	}
	hotBase := (g.phase * hotBlocks) % blocks
	var b int64
	if g.p.HotProb > 0 && g.rng.Bool(g.p.HotProb) {
		b = (hotBase + g.rng.Int63n(hotBlocks)) % blocks
	} else {
		b = g.rng.Int63n(blocks)
	}
	addr := b * lineBytes
	if g.p.RecentProb > 0 {
		if len(g.recent) < g.p.RecentWindow {
			g.recent = append(g.recent, addr)
		} else {
			g.recent[g.recentIdx] = addr
			g.recentIdx = (g.recentIdx + 1) % len(g.recent)
		}
	}
	return addr
}

// Refs returns the number of references emitted since the last Reset.
func (g *Generator) Refs() int64 { return g.refs }
