// Package core implements the ProFess framework — the paper's primary
// contribution: the Relative-Slowdown Monitor (RSM, §3.1), the
// probabilistic Migration-Decision Mechanism (MDM, §3.2), and their
// integration (§3.3, Table 7). MDM is also usable as a standalone policy,
// matching the paper's MDM-only evaluations (§5.1-5.3).
package core

import (
	"fmt"
	"math"

	"profess/internal/fault"
	"profess/internal/stats"
	"profess/internal/telemetry"
)

// RSMConfig parameterises the Relative-Slowdown Monitor.
type RSMConfig struct {
	NumPrograms int
	// SamplingRequests is M_samp: the sampling-period duration in served
	// requests per program (§4.1: 128K at full scale; scaled runs shrink
	// it with the rest of the system).
	SamplingRequests int64
	// Alpha is the exponential-smoothing parameter (§3.1.3: 0.125).
	Alpha float64
	// Probe enables the Table 4 instrumentation (per-region request
	// spread and raw/averaged SF_A series).
	Probe bool
	// Regions is required when Probe is set.
	Regions int
	// ReconvergePeriods is how many consecutive clean sampling periods a
	// program's monitor must complete after an implausible slowdown
	// factor before its SF values are trusted again (0 = 2).
	ReconvergePeriods int
}

// DefaultRSMConfig returns the §4.1 configuration for n programs, with
// M_samp scaled by the given capacity scale.
func DefaultRSMConfig(n int, scale float64) RSMConfig {
	m := int64(128_000 * scale)
	if m < 1024 {
		m = 1024
	}
	return RSMConfig{NumPrograms: n, SamplingRequests: m, Alpha: 0.125}
}

// rsmCounters is one program's Table 3 counter set.
type rsmCounters struct {
	reqM1P    int64 // requests served from M1 of the private region
	reqTotalP int64 // requests served from M1+M2 of the private region
	reqM1S    int64 // requests served from M1 of the shared regions
	reqTotalS int64 // requests served from M1+M2 of the shared regions
	swapSelf  int64 // swaps where both blocks belong to the program
	swapTotal int64 // swaps where at least one block belongs to it
}

// rsmProgram is the per-program monitor state.
type rsmProgram struct {
	cur rsmCounters
	// Smoothed Table 3 counters (§3.1.3: each counter is incremented by
	// one before being added to its average, avoiding zeros).
	avg [6]stats.Smoother
	sfA float64
	sfB float64

	// degraded marks the program's SF values as untrusted after a sanity
	// check rejected them; cleanLeft counts the clean periods still
	// needed before re-trusting.
	degraded  bool
	cleanLeft int

	// Probe series (Table 4).
	regionCounts []int64
	sigmaReqPct  []float64
	rawSFA       []float64
	avgSFA       []float64
}

// RSM is the Relative-Slowdown Monitor: per-program counter sets updated
// on every served request and swap, recomputed into the slowdown factors
// SF_A (eq. 2) and SF_B (eq. 3) at the end of every sampling period.
type RSM struct {
	cfg   RSMConfig
	progs []rsmProgram
	// degraded counts the programs whose degraded flag is set, so the
	// per-access checks cost nothing while every monitor is trusted.
	degraded int
	// Periods counts completed sampling periods per program.
	Periods []int64

	// inj, when armed, corrupts SF registers at period boundaries.
	inj *fault.Injector
	// ImplausibleSFs counts slowdown factors rejected by the sanity
	// checks; DegradedEntries counts transitions into degraded mode;
	// DegradedPeriods counts sampling periods completed while degraded.
	ImplausibleSFs  int64
	DegradedEntries int64
	DegradedPeriods int64
}

// NewRSM builds the monitor.
func NewRSM(cfg RSMConfig) (*RSM, error) {
	if cfg.NumPrograms <= 0 {
		return nil, fmt.Errorf("core: RSM needs at least one program")
	}
	if cfg.SamplingRequests <= 0 {
		return nil, fmt.Errorf("core: RSM sampling period must be positive")
	}
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		return nil, fmt.Errorf("core: RSM alpha %v out of (0,1]", cfg.Alpha)
	}
	if cfg.Probe && cfg.Regions <= 0 {
		return nil, fmt.Errorf("core: RSM probe requires Regions")
	}
	if cfg.ReconvergePeriods <= 0 {
		cfg.ReconvergePeriods = 2
	}
	r := &RSM{cfg: cfg, progs: make([]rsmProgram, cfg.NumPrograms), Periods: make([]int64, cfg.NumPrograms)}
	for i := range r.progs {
		p := &r.progs[i]
		p.sfA, p.sfB = 1, 1
		for j := range p.avg {
			p.avg[j].Alpha = cfg.Alpha
		}
		if cfg.Probe {
			p.regionCounts = make([]int64, cfg.Regions)
		}
	}
	return r, nil
}

// OnServed records one served request for the program: region attribution
// (private vs shared) and which partition served it.
func (r *RSM) OnServed(core, region int, private, fromM1 bool) {
	p := &r.progs[core]
	if private {
		p.cur.reqTotalP++
		if fromM1 {
			p.cur.reqM1P++
		}
	} else {
		p.cur.reqTotalS++
		if fromM1 {
			p.cur.reqM1S++
		}
	}
	if p.regionCounts != nil {
		p.regionCounts[region]++
	}
	if p.cur.reqTotalP+p.cur.reqTotalS >= r.cfg.SamplingRequests {
		r.endPeriod(core)
	}
}

// OnSwapDone records a completed swap for RSM accounting. Swaps inside
// private regions are not counted (§3.1.2: in the private region all
// blocks belong to the same program, so that fraction is 1 by definition).
func (r *RSM) OnSwapDone(private bool, ownerM1, ownerM2 int) {
	if private {
		return
	}
	count := func(c int) {
		if c >= 0 && c < len(r.progs) {
			r.progs[c].cur.swapTotal++
			if ownerM1 == ownerM2 {
				r.progs[c].cur.swapSelf++
			}
		}
	}
	count(ownerM2)
	if ownerM1 != ownerM2 {
		count(ownerM1)
	}
}

// endPeriod recomputes SF_A and SF_B from the smoothed counters and resets
// the period counters (§3.1.3).
func (r *RSM) endPeriod(core int) {
	p := &r.progs[core]
	c := p.cur

	if p.regionCounts != nil {
		vals := make([]float64, len(p.regionCounts))
		for i, v := range p.regionCounts {
			vals[i] = float64(v)
			p.regionCounts[i] = 0
		}
		if m := stats.Mean(vals); m > 0 {
			p.sigmaReqPct = append(p.sigmaReqPct, stats.StdDev(vals)/m*100)
		}
		p.rawSFA = append(p.rawSFA, sfA(
			float64(c.reqM1P), float64(c.reqTotalP),
			float64(c.reqM1S), float64(c.reqTotalS)))
	}

	// Smooth the six counters, each incremented by one to avoid zeros.
	sm := func(i int, v int64) float64 { return p.avg[i].Add(float64(v) + 1) }
	m1P := sm(0, c.reqM1P)
	totP := sm(1, c.reqTotalP)
	m1S := sm(2, c.reqM1S)
	totS := sm(3, c.reqTotalS)
	self := sm(4, c.swapSelf)
	total := sm(5, c.swapTotal)

	p.sfA = sfA(m1P, totP, m1S, totS)
	p.sfB = total / self
	if r.inj.Fire(fault.SFCorruption) {
		// Injected register corruption: one SF arrives scrambled. The
		// sanity check below is the defense.
		if r.inj.Intn(2) == 0 {
			p.sfA = r.inj.CorruptSF()
		} else {
			p.sfB = r.inj.CorruptSF()
		}
	}
	// Sanity check: a slowdown factor must be a positive, finite value of
	// plausible magnitude. An implausible one means the monitoring state
	// is corrupt, so the whole smoothed history is discarded and the
	// program's guidance degrades to neutral until the monitor completes
	// ReconvergePeriods clean periods on fresh state.
	if !plausibleSF(p.sfA) || !plausibleSF(p.sfB) {
		r.ImplausibleSFs++
		if !p.degraded {
			r.DegradedEntries++
			r.degraded++
		}
		p.degraded = true
		p.cleanLeft = r.cfg.ReconvergePeriods
		p.sfA, p.sfB = 1, 1
		for j := range p.avg {
			p.avg[j].Reset()
		}
	} else if p.degraded {
		r.DegradedPeriods++
		p.cleanLeft--
		if p.cleanLeft <= 0 {
			p.degraded = false
			r.degraded--
		}
	}
	if p.regionCounts != nil {
		p.avgSFA = append(p.avgSFA, p.sfA)
	}

	p.cur = rsmCounters{}
	r.Periods[core]++
}

// plausibleSF accepts positive, finite slowdown factors below 1e9. The
// legitimate computation (smoothed counters incremented by one) can never
// produce NaN, an infinity, a non-positive value or that magnitude, so
// the check only fires on corrupted state and is a no-op in clean runs.
func plausibleSF(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v > 0 && v < 1e9
}

// SetFaultInjector arms the monitor with a fault injector (nil disarms).
func (r *RSM) SetFaultInjector(inj *fault.Injector) { r.inj = inj }

// Degraded reports whether the program's slowdown factors are currently
// untrusted.
func (r *RSM) Degraded(core int) bool { return r.progs[core].degraded }

// DegradedAny reports whether any of the given programs is degraded.
func (r *RSM) DegradedAny(cores ...int) bool {
	for _, c := range cores {
		if c >= 0 && c < len(r.progs) && r.progs[c].degraded {
			return true
		}
	}
	return false
}

// AnyDegraded reports whether any program at all is degraded.
func (r *RSM) AnyDegraded() bool { return r.degraded > 0 }

// sfA evaluates eq. 2 defensively: an undefined ratio degrades to 1
// ("no observed competition") rather than to an extreme value.
func sfA(m1P, totP, m1S, totS float64) float64 {
	if totP <= 0 || totS <= 0 || m1S <= 0 {
		return 1
	}
	v := (m1P / totP) / (m1S / totS)
	if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
		return 1
	}
	return v
}

// SFA returns program core's current slowdown factor SF_A (eq. 2).
func (r *RSM) SFA(core int) float64 { return r.progs[core].sfA }

// SFB returns program core's current slowdown factor SF_B (eq. 3).
func (r *RSM) SFB(core int) float64 { return r.progs[core].sfB }

// RegisterTelemetry registers the monitor's per-program signals — the
// SF_A/SF_B trajectories the paper's time-series figures are built from,
// completed sampling periods, and the degraded-mode flag — with a
// per-epoch sampler.
func (r *RSM) RegisterTelemetry(s *telemetry.Sampler) {
	for i := range r.progs {
		i := i
		s.Gauge(fmt.Sprintf("p%d.sfa", i), func(int64) float64 { return r.progs[i].sfA })
		s.Gauge(fmt.Sprintf("p%d.sfb", i), func(int64) float64 { return r.progs[i].sfB })
		s.Counter(fmt.Sprintf("p%d.rsm_periods", i), func() int64 { return r.Periods[i] })
		s.Gauge(fmt.Sprintf("p%d.rsm_degraded", i), func(int64) float64 {
			if r.progs[i].degraded {
				return 1
			}
			return 0
		})
	}
	s.Counter("rsm.implausible_sfs", func() int64 { return r.ImplausibleSFs })
}

// ProbeSeries returns the Table 4 instrumentation for a program: the
// per-period region-spread percentages and the raw and averaged SF_A
// series. It returns nils unless the RSM was built with Probe.
func (r *RSM) ProbeSeries(core int) (sigmaReqPct, rawSFA, avgSFA []float64) {
	p := &r.progs[core]
	return p.sigmaReqPct, p.rawSFA, p.avgSFA
}
