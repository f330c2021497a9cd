package core

import (
	"fmt"

	"profess/internal/hybrid"
	"profess/internal/stats"
	"profess/internal/telemetry"
)

// MDMConfig parameterises the Migration-Decision Mechanism.
type MDMConfig struct {
	NumPrograms int
	// MinBenefit is the least predicted number of remaining accesses that
	// justifies a promotion (§3.2.3); it equals PoM's K (§4.1: 8).
	MinBenefit float64
	// PhaseUpdates is the duration of each observation and estimation
	// phase, in MDM counter updates per program (§4.1: 1K).
	PhaseUpdates int64
	// RecomputeEvery is the estimation-phase recomputation interval in
	// updates per program (§4.1: 100).
	RecomputeEvery int64
	// WriteWeight counts each write as this many accesses (§4.1: 8).
	WriteWeight int
	// InitialExpCnt seeds exp_cnt before the first estimation phase
	// completes. The paper does not specify a cold-start value; seeding
	// optimistically (2 x MinBenefit) lets early promotions happen so the
	// statistics machinery has behaviour to learn from.
	InitialExpCnt float64
}

// DefaultMDMConfig returns the §4.1 configuration.
func DefaultMDMConfig(n int) MDMConfig {
	return MDMConfig{
		NumPrograms:    n,
		MinBenefit:     8,
		PhaseUpdates:   1000,
		RecomputeEvery: 100,
		WriteWeight:    8,
		InitialExpCnt:  16,
	}
}

// mdmProgram holds one program's Table 6 counters and registered values.
type mdmProgram struct {
	// Table 6 counters, indexed by QAC values (q_E in 1..3, q_I in 0..3).
	accumCnt [hybrid.NumQI]float64               // accumulated counts per q_E
	numQSumI [hybrid.NumQI]float64               // transitions to q_E
	numQ     [hybrid.NumQI][hybrid.NumQI]float64 // transitions q_I -> q_E
	numQSumE [hybrid.NumQI]float64               // transitions from q_I

	// Registered exp_cnt(q_I) values (eq. 5), updated during estimation
	// phases and held between updates ("the values are registered").
	expCnt [hybrid.NumQI]float64

	updates   int64 // updates within the current phase
	observing bool  // observation phase (no recomputation) vs estimation
	// Recomputations counts exp_cnt refreshes, for tests/reporting.
	Recomputations int64

	// degraded marks the program's learned statistics as untrusted after a
	// corrupt counter update was detected; while set, migration decisions
	// fall back to competing counters.
	degraded bool
}

// MDM is the probabilistic Migration-Decision Mechanism: it learns, per
// program and per QAC value, the expected number of accesses a block will
// receive during an STC residency (eq. 5-7 with Laplace smoothing) and
// approves a swap only when the predicted remaining accesses of the M2
// block exceed those of the M1 block by at least MinBenefit (§3.2.3).
//
// MDM implements hybrid.Policy, so it runs standalone exactly as in the
// paper's §5.1-5.3 evaluations; ProFess wraps it with RSM guidance.
type MDM struct {
	hybrid.BasePolicy
	cfg   MDMConfig
	progs []mdmProgram

	// fallback holds the competing counters (PoM-style, one per swap
	// group) that decide promotions for degraded programs; lazily built on
	// the first degradation and dropped once every program re-converges.
	fallback map[int64]*ccGroup

	// Decision tallies for reporting.
	Considered int64 // M2 accesses evaluated
	Approved   int64 // swaps scheduled

	// CorruptUpdates counts Table 6 updates rejected as corrupt;
	// DegradedEntries counts transitions into degraded mode;
	// DegradedCycles accrues the cycles during which any program was
	// degraded, measured between consecutive access stamps (the MDM has
	// no clock of its own); DegradedDecisions counts accesses decided by
	// the fallback competing counters.
	CorruptUpdates    int64
	DegradedEntries   int64
	DegradedCycles    int64
	DegradedDecisions int64
	lastNow           int64
}

// ccGroup is one swap group's competing counter for the degraded-mode
// fallback: majority-element tracking of the hottest M2 candidate.
type ccGroup struct {
	candidate int8 // slot of the current M2 candidate, -1 none
	counter   uint32
}

// NewMDM builds the mechanism.
func NewMDM(cfg MDMConfig) (*MDM, error) {
	if cfg.NumPrograms <= 0 {
		return nil, fmt.Errorf("core: MDM needs at least one program")
	}
	if cfg.PhaseUpdates <= 0 || cfg.RecomputeEvery <= 0 {
		return nil, fmt.Errorf("core: MDM phase durations must be positive")
	}
	if cfg.WriteWeight <= 0 {
		cfg.WriteWeight = 1
	}
	if cfg.InitialExpCnt <= 0 {
		// An unseeded exp_cnt would predict zero remaining accesses for
		// every block until the first estimation phase completes, freezing
		// all promotions; default to the optimistic 2 x MinBenefit so the
		// cold-start prediction is always strictly positive.
		cfg.InitialExpCnt = 2 * cfg.MinBenefit
		if cfg.InitialExpCnt <= 0 {
			cfg.InitialExpCnt = 1
		}
	}
	m := &MDM{cfg: cfg, progs: make([]mdmProgram, cfg.NumPrograms)}
	for i := range m.progs {
		p := &m.progs[i]
		p.observing = true
		for q := 0; q < hybrid.NumQI; q++ {
			p.expCnt[q] = cfg.InitialExpCnt
		}
	}
	return m, nil
}

// Name implements hybrid.Policy.
func (m *MDM) Name() string { return "mdm" }

// WriteWeight implements hybrid.Policy.
func (m *MDM) WriteWeight() int { return m.cfg.WriteWeight }

// MinBenefit returns the configured promotion threshold.
func (m *MDM) MinBenefit() float64 { return m.cfg.MinBenefit }

// OnSTCEvict implements hybrid.Policy: one Table 6 counter update for a
// block whose ST entry left the STC with a non-zero access count.
func (m *MDM) OnSTCEvict(core int, qI, qE uint8, count uint32) {
	if core < 0 || core >= len(m.progs) || qE == 0 {
		return
	}
	p := &m.progs[core]
	if qI >= hybrid.NumQI || qE > hybrid.NumQE || count == 0 || count > hybrid.CounterMax {
		// Sanity check: legitimate hardware can only deliver q_I in
		// [0, NumQI), q_E in [1, NumQE] and counts in [1, CounterMax] —
		// a zero count quantizes to q_E = 0, which never reaches this
		// point, so (q_E >= 1, count = 0) is inconsistent metadata; it
		// would also pollute eq. 6 with zero-count residencies and drag
		// exp_cnt toward zero. Anything else is corrupt ST metadata — reject
		// the update, discard the phase it may have polluted, and degrade
		// the program to competing-counter decisions until a full
		// observation phase completes on clean updates.
		m.CorruptUpdates++
		if !p.degraded {
			m.DegradedEntries++
		}
		*p = mdmProgram{observing: true, Recomputations: p.Recomputations, degraded: true}
		for q := 0; q < hybrid.NumQI; q++ {
			p.expCnt[q] = m.cfg.InitialExpCnt
		}
		if m.fallback == nil {
			m.fallback = make(map[int64]*ccGroup)
		}
		return
	}
	p.accumCnt[qE] += float64(count)
	p.numQSumI[qE]++
	p.numQ[qI][qE]++
	p.numQSumE[qI]++

	p.updates++
	if p.observing {
		if p.updates >= m.cfg.PhaseUpdates {
			// Observation done: enter the estimation phase.
			p.observing = false
			p.updates = 0
			p.recompute()
			if p.degraded {
				// A full observation phase of clean updates re-converged
				// the statistics: trust the recomputed estimates again.
				p.degraded = false
				m.dropFallbackIfIdle()
			}
		}
		return
	}
	if p.updates%m.cfg.RecomputeEvery == 0 {
		p.recompute()
	}
	if p.updates >= m.cfg.PhaseUpdates {
		// Estimation done: reset counters, enter observation (§3.2.2:
		// counters are reset at the beginning of each observation phase).
		*p = mdmProgram{observing: true, expCnt: p.expCnt, Recomputations: p.Recomputations}
	}
}

// recompute refreshes the registered exp_cnt values per eq. 5-7.
func (p *mdmProgram) recompute() {
	p.Recomputations++
	var avgCnt [hybrid.NumQI]float64
	for qE := 1; qE <= hybrid.NumQE; qE++ {
		if p.numQSumI[qE] > 0 {
			avgCnt[qE] = p.accumCnt[qE] / p.numQSumI[qE] // eq. 6
		}
	}
	for qI := 0; qI < hybrid.NumQI; qI++ {
		var e float64
		for qE := 1; qE <= hybrid.NumQE; qE++ {
			// eq. 7 with Laplace smoothing: (n+1)/(N+num_qE).
			pTrans := (p.numQ[qI][qE] + 1) / (p.numQSumE[qI] + float64(hybrid.NumQE))
			e += float64(avgCnt[qE] * pTrans) // eq. 5; float64 stops arm64 fusing it
		}
		p.expCnt[qI] = e
	}
}

// dropFallbackIfIdle frees the competing counters once no program is
// degraded any more.
func (m *MDM) dropFallbackIfIdle() {
	for i := range m.progs {
		if m.progs[i].degraded {
			return
		}
	}
	m.fallback = nil
}

// AnyDegraded reports whether any program's learned statistics are
// untrusted: the fallback counters exist exactly then.
func (m *MDM) AnyDegraded() bool { return m.fallback != nil }

// Degraded reports whether the program's learned statistics are currently
// untrusted.
func (m *MDM) Degraded(core int) bool {
	return core >= 0 && core < len(m.progs) && m.progs[core].degraded
}

// ExpCnt returns the registered expected access count for (program, q_I).
// A q_I outside the quantizer's range can only come from corrupt ST
// metadata; it predicts zero remaining accesses rather than indexing out
// of bounds.
func (m *MDM) ExpCnt(core int, qI uint8) float64 {
	if core < 0 || core >= len(m.progs) || qI >= hybrid.NumQI {
		return 0
	}
	return m.progs[core].expCnt[qI]
}

// RemainingM2 evaluates eq. 8 for the accessed M2 block.
func (m *MDM) RemainingM2(info hybrid.AccessInfo) float64 {
	e := info.Entry
	return m.ExpCnt(info.Core, e.QInsert[info.Slot]) - float64(e.Count(info.Slot))
}

// Decide runs the §3.2.3 migration decision for an access to an M2 block.
// treatM1Vacant implements ProFess's Case 1 aggressive help: the M1
// resident's remaining accesses are ignored, as if M1 were vacant.
func (m *MDM) Decide(info hybrid.AccessInfo, ctl hybrid.PolicyContext, treatM1Vacant bool) bool {
	remM2 := m.RemainingM2(info)
	if remM2 < m.cfg.MinBenefit {
		return false // no benefit to promote at all
	}
	if treatM1Vacant {
		return true // condition (a): M1 considered vacant
	}
	e := info.Entry
	m1Slot := ctl.M1Slot(info.Group)
	cnt1 := e.Count(m1Slot)
	if cnt1 == 0 {
		// Condition (b): M1 occupied but not accessed while some other
		// block of the group has been, hinting the M1 block is unlikely
		// to be accessed soon. We read "some other block" as a block
		// besides both the M1 resident and the candidate itself — i.e.
		// the group shows activity while M1 stays idle — or repeated
		// activity on the candidate beyond the current touch. The looser
		// reading (candidate counts as evidence) fires on every first
		// touch of a quiet group and over-promotes under STC thrash.
		for s := 0; s < hybrid.MaxSlots; s++ {
			if s != m1Slot && s != info.Slot && e.Count(s) > 0 {
				return true
			}
		}
		weight := uint32(1)
		if info.Write {
			weight = uint32(m.cfg.WriteWeight)
		}
		return e.Count(info.Slot) > weight // candidate was active before this touch
	}
	// Condition (c): predict the M1 resident's remaining accesses.
	ownerM1 := ctl.Owner(info.Group, m1Slot)
	if ownerM1 < 0 {
		return true // unallocated M1 block cannot be worth protecting
	}
	remM1 := m.ExpCnt(ownerM1, e.QInsert[m1Slot]) - float64(cnt1)
	if remM1 <= 0 {
		return true // (c.i)
	}
	return remM2-remM1 >= m.cfg.MinBenefit // (c.ii)
}

// OnAccess implements hybrid.Policy: standalone MDM, no fairness guidance.
// Degraded programs are decided by the competing-counter fallback instead
// of the (untrusted) learned estimates.
func (m *MDM) OnAccess(info hybrid.AccessInfo, ctl hybrid.PolicyContext) {
	if m.AnyDegraded() && m.lastNow > 0 && info.Now > m.lastNow {
		m.DegradedCycles += info.Now - m.lastNow
	}
	m.lastNow = info.Now
	if m.Degraded(info.Core) {
		m.fallbackAccess(info, ctl)
		return
	}
	if info.Loc == 0 {
		return
	}
	m.Considered++
	if m.Decide(info, ctl, false) && ctl.ScheduleSwap(info.Group, info.Slot) {
		m.Approved++
	}
}

// fallbackAccess is the degraded-mode policy: PoM-style per-group
// competing counters (an M1 access decays the challenger, an M2 access
// competes for candidacy) with the promotion threshold playing
// MinBenefit's role. It needs no learned state, so it stays sound while
// the Table 6 statistics re-converge.
func (m *MDM) fallbackAccess(info hybrid.AccessInfo, ctl hybrid.PolicyContext) {
	m.DegradedDecisions++
	g := m.fallback[info.Group]
	if g == nil {
		g = &ccGroup{candidate: -1}
		m.fallback[info.Group] = g
	}
	if info.Loc == 0 {
		if g.counter > 0 {
			g.counter--
		}
		return
	}
	m.Considered++
	weight := uint32(1)
	if info.Write {
		weight = uint32(m.cfg.WriteWeight)
	}
	switch {
	case g.candidate == int8(info.Slot):
		g.counter += weight
	case g.counter <= weight:
		g.candidate = int8(info.Slot)
		g.counter = weight
	default:
		g.counter -= weight
	}
	if g.candidate == int8(info.Slot) && float64(g.counter) >= m.cfg.MinBenefit {
		if ctl.ScheduleSwap(info.Group, info.Slot) {
			m.Approved++
			g.candidate = -1
			g.counter = 0
		}
	}
}

// RegisterTelemetry registers the mechanism's signals with a per-epoch
// sampler: the swap accept/reject tallies, the registered exp_cnt tables
// (one gauge per program and q_I), and the degradation counters.
func (m *MDM) RegisterTelemetry(s *telemetry.Sampler) {
	s.Counter("mdm.considered", func() int64 { return m.Considered })
	s.Counter("mdm.approved", func() int64 { return m.Approved })
	s.Counter("mdm.rejected", func() int64 { return m.Considered - m.Approved })
	s.Counter("mdm.corrupt_updates", func() int64 { return m.CorruptUpdates })
	s.Counter("mdm.fallback_decisions", func() int64 { return m.DegradedDecisions })
	for i := range m.progs {
		i := i
		for q := 0; q < hybrid.NumQI; q++ {
			q := q
			s.Gauge(fmt.Sprintf("p%d.expcnt.q%d", i, q), func(int64) float64 {
				return m.progs[i].expCnt[q]
			})
		}
		s.Counter(fmt.Sprintf("p%d.mdm_recomputes", i), func() int64 {
			return m.progs[i].Recomputations
		})
	}
}

// ResilienceStats reports the mechanism's degradation counters.
func (m *MDM) ResilienceStats() stats.Resilience {
	return stats.Resilience{
		CorruptQACUpdates: m.CorruptUpdates,
		DegradedEntries:   m.DegradedEntries,
		DegradedCycles:    m.DegradedCycles,
		DegradedDecisions: m.DegradedDecisions,
	}
}

var _ hybrid.Policy = (*MDM)(nil)
