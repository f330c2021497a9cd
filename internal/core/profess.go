package core

import (
	"fmt"

	"profess/internal/fault"
	"profess/internal/hybrid"
	"profess/internal/stats"
	"profess/internal/telemetry"
)

// ProFessConfig parameterises the integrated framework.
type ProFessConfig struct {
	MDM MDMConfig
	RSM RSMConfig
	// Threshold excludes too-similar slowdown factors from the Table 7
	// comparisons (§3.3: ~3% = 1/32, chosen to simplify hardware).
	Threshold float64
	// ProductThreshold is the Case 3 product-comparison threshold
	// (§3.3: twice the base threshold, 1/16 ~ 6%).
	ProductThreshold float64
	// DisableSFB ablates SF_B: Table 7 degenerates to comparing SF_A
	// only (Cases 1 and 2; Case 3 can never fire). Not part of the paper;
	// used by the ablation benches.
	DisableSFB bool
	// DisableCase3 ablates the special Case 3 (§3.3). Not part of the
	// paper; used by the ablation benches.
	DisableCase3 bool
}

// DefaultProFessConfig returns the §4.1 configuration for n programs at
// the given capacity scale.
func DefaultProFessConfig(n int, scale float64) ProFessConfig {
	return ProFessConfig{
		MDM:              DefaultMDMConfig(n),
		RSM:              DefaultRSMConfig(n, scale),
		Threshold:        1.0 / 32,
		ProductThreshold: 1.0 / 16,
	}
}

// Decision classifies the outcome of the Table 7 guidance, for reporting.
type Decision uint8

const (
	// DecisionMDM: no case fired (or same program on both sides); plain MDM.
	DecisionMDM Decision = iota
	// DecisionHelp: Case 1 — consider M1 vacant and use MDM.
	DecisionHelp
	// DecisionProtect: Case 2 — do not swap.
	DecisionProtect
	// DecisionProtectCase3: Case 3 — do not swap.
	DecisionProtectCase3
)

// String implements fmt.Stringer.
func (d Decision) String() string {
	switch d {
	case DecisionMDM:
		return "mdm"
	case DecisionHelp:
		return "help(case1)"
	case DecisionProtect:
		return "protect(case2)"
	case DecisionProtectCase3:
		return "protect(case3)"
	}
	return fmt.Sprintf("decision(%d)", d)
}

// ProFess is the integrated framework (§3.3): MDM makes individual
// cost-benefit migration decisions while RSM steers them toward the
// program suffering the most from the competition for M1, per Table 7.
type ProFess struct {
	hybrid.BasePolicy
	cfg ProFessConfig
	mdm *MDM
	rsm *RSM

	// CaseCounts tallies Table 7 outcomes by Decision.
	CaseCounts [4]int64

	// GuidanceSuspended counts M2 accesses where the Table 7 guidance was
	// skipped because an involved program's slowdown factors were degraded.
	GuidanceSuspended int64
	// DegradedCycles accrues simulated time during which at least one
	// program's monitor was degraded (measured between consecutive access
	// stamps — the policy has no clock of its own).
	DegradedCycles int64
	lastNow        int64
}

// NewProFess builds the framework.
func NewProFess(cfg ProFessConfig) (*ProFess, error) {
	if cfg.Threshold < 0 || cfg.ProductThreshold < 0 {
		return nil, fmt.Errorf("core: ProFess thresholds must be non-negative")
	}
	mdm, err := NewMDM(cfg.MDM)
	if err != nil {
		return nil, err
	}
	rsm, err := NewRSM(cfg.RSM)
	if err != nil {
		return nil, err
	}
	return &ProFess{cfg: cfg, mdm: mdm, rsm: rsm}, nil
}

// Name implements hybrid.Policy.
func (p *ProFess) Name() string { return "profess" }

// WriteWeight implements hybrid.Policy.
func (p *ProFess) WriteWeight() int { return p.mdm.WriteWeight() }

// MDM exposes the wrapped mechanism (read-only use).
func (p *ProFess) MDM() *MDM { return p.mdm }

// RSM exposes the wrapped monitor (read-only use).
func (p *ProFess) RSM() *RSM { return p.rsm }

// OnServed implements hybrid.Policy: feed the RSM request counters.
func (p *ProFess) OnServed(core, region int, private, fromM1 bool) {
	p.rsm.OnServed(core, region, private, fromM1)
}

// OnSTCEvict implements hybrid.Policy: feed the MDM statistics.
func (p *ProFess) OnSTCEvict(core int, qI, qE uint8, count uint32) {
	p.mdm.OnSTCEvict(core, qI, qE, count)
}

// OnSwapDone implements hybrid.Policy: feed the RSM swap counters.
func (p *ProFess) OnSwapDone(region int, private bool, ownerM1, ownerM2 int) {
	p.rsm.OnSwapDone(private, ownerM1, ownerM2)
}

// Classify runs the Table 7 comparison for the two programs of a
// prospective swap (cM1 owns the group's M1 resident, cM2 the accessed M2
// block).
func (p *ProFess) Classify(cM1, cM2 int) Decision {
	thr := 1 + p.cfg.Threshold
	sfA1, sfA2 := p.rsm.SFA(cM1), p.rsm.SFA(cM2)
	sfB1, sfB2 := p.rsm.SFB(cM1), p.rsm.SFB(cM2)
	if p.cfg.DisableSFB {
		sfB1, sfB2 = sfA1, sfA2
	}
	switch {
	case sfA1*thr < sfA2 && sfB1*thr < sfB2:
		return DecisionHelp // Case 1: cM2 suffers more on both factors
	case sfA1 > sfA2*thr && sfB1 > sfB2*thr:
		return DecisionProtect // Case 2: cM1 suffers more on both factors
	case !p.cfg.DisableCase3 &&
		sfA1*thr < sfA2 && sfB1 > sfB2*thr &&
		sfA1*sfB1 > sfA2*sfB2*(1+p.cfg.ProductThreshold):
		// Case 3: mixed signals; protect cM1 while the SF_A*SF_B products
		// say it suffers more overall.
		return DecisionProtectCase3
	}
	return DecisionMDM
}

// OnAccess implements hybrid.Policy: Table 7 guidance around MDM.
func (p *ProFess) OnAccess(info hybrid.AccessInfo, ctl hybrid.PolicyContext) {
	degraded := p.rsm.AnyDegraded()
	if degraded {
		if p.lastNow > 0 && info.Now > p.lastNow {
			p.DegradedCycles += info.Now - p.lastNow
		}
	}
	p.lastNow = info.Now
	if info.Loc == 0 {
		return
	}
	cM2 := info.Core
	cM1 := ctl.Owner(info.Group, ctl.M1Slot(info.Group))
	if cM1 == cM2 || cM1 < 0 {
		// Same program on both sides (or unallocated M1): plain MDM.
		p.mdm.OnAccess(info, ctl)
		return
	}
	if degraded && p.rsm.DegradedAny(cM1, cM2) {
		// An involved program's slowdown factors are untrusted: suspend
		// the fairness guidance (which would steer on corrupt SF values)
		// and fall back to plain MDM until the monitor re-converges.
		p.GuidanceSuspended++
		p.mdm.OnAccess(info, ctl)
		return
	}
	d := p.Classify(cM1, cM2)
	p.CaseCounts[d]++
	switch d {
	case DecisionHelp:
		if p.mdm.Decide(info, ctl, true) {
			ctl.ScheduleSwap(info.Group, info.Slot)
		}
	case DecisionProtect, DecisionProtectCase3:
		// Do not swap: protect cM1's block.
	default:
		p.mdm.OnAccess(info, ctl)
	}
}

// RegisterTelemetry registers the framework's signals with a per-epoch
// sampler: everything the wrapped RSM and MDM expose, plus the Table 7
// case tallies.
func (p *ProFess) RegisterTelemetry(s *telemetry.Sampler) {
	p.rsm.RegisterTelemetry(s)
	p.mdm.RegisterTelemetry(s)
	for d := DecisionMDM; d <= DecisionProtectCase3; d++ {
		d := d
		s.Counter("profess.case."+d.String(), func() int64 { return p.CaseCounts[d] })
	}
	s.Counter("profess.guidance_suspended", func() int64 { return p.GuidanceSuspended })
}

// SetFaultInjector arms the wrapped RSM with a fault injector (the MDM's
// corruption arrives through the controller's ST metadata path, so only
// the monitor draws faults directly).
func (p *ProFess) SetFaultInjector(inj *fault.Injector) { p.rsm.SetFaultInjector(inj) }

// ResilienceStats aggregates the degradation counters of the wrapped
// mechanism and monitor.
func (p *ProFess) ResilienceStats() stats.Resilience {
	r := p.mdm.ResilienceStats()
	r.ImplausibleSFs += p.rsm.ImplausibleSFs
	r.DegradedEntries += p.rsm.DegradedEntries
	r.DegradedDecisions += p.GuidanceSuspended
	r.DegradedCycles += p.DegradedCycles
	return r
}

var _ hybrid.Policy = (*ProFess)(nil)
