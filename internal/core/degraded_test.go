package core

import (
	"testing"

	"profess/internal/fault"
	"profess/internal/hybrid"
)

// feedPeriod drives one full RSM sampling period of mixed traffic.
func feedPeriod(r *RSM, msamp int64) {
	for i := int64(0); i < msamp; i++ {
		r.OnServed(0, 0, i%2 == 0, i%3 == 0)
	}
}

func TestRSMDegradedEntryAndExit(t *testing.T) {
	r := newTestRSM(t, 1, 100)
	// Every period boundary corrupts one SF register.
	r.SetFaultInjector(fault.NewInjector(fault.Plan{Seed: 1, SFCorruptRate: 1}))
	feedPeriod(r, 100)
	if !r.Degraded(0) || !r.AnyDegraded() || !r.DegradedAny(0) {
		t.Fatal("corrupted SF must enter degraded mode")
	}
	if r.ImplausibleSFs != 1 || r.DegradedEntries != 1 {
		t.Errorf("implausible=%d entries=%d, want 1/1", r.ImplausibleSFs, r.DegradedEntries)
	}
	// Degraded SFs are neutralised, never served corrupt.
	if r.SFA(0) != 1 || r.SFB(0) != 1 {
		t.Errorf("degraded SFs = %v/%v, want 1/1", r.SFA(0), r.SFB(0))
	}

	// Disarm and run clean periods: the monitor must re-trust its state
	// only after ReconvergePeriods (default 2) clean periods.
	r.SetFaultInjector(nil)
	feedPeriod(r, 100)
	if !r.Degraded(0) {
		t.Fatal("one clean period must not yet re-trust the monitor")
	}
	feedPeriod(r, 100)
	if r.Degraded(0) {
		t.Fatal("two clean periods must exit degraded mode")
	}
	if r.DegradedPeriods != 2 {
		t.Errorf("degraded periods = %d, want 2", r.DegradedPeriods)
	}
}

// TestRSMDegradedCountMatchesFlags: AnyDegraded reads a count kept where
// each program's degraded flag flips, so after every sampling period it
// must agree with the flags themselves while three programs enter and
// leave degraded mode at random.
func TestRSMDegradedCountMatchesFlags(t *testing.T) {
	r := newTestRSM(t, 3, 20)
	r.SetFaultInjector(fault.NewInjector(fault.Plan{Seed: 7, SFCorruptRate: 0.3}))
	var entered, exited bool
	for period := 0; period < 300; period++ {
		core := period % 3
		was := r.Degraded(core)
		for i := 0; i < 20; i++ {
			r.OnServed(core, 0, i%2 == 0, i%3 == 0)
		}
		entered = entered || !was && r.Degraded(core)
		exited = exited || was && !r.Degraded(core)
		if want := r.Degraded(0) || r.Degraded(1) || r.Degraded(2); r.AnyDegraded() != want {
			t.Fatalf("period %d: AnyDegraded = %v, flags say %v", period, r.AnyDegraded(), want)
		}
	}
	if !entered || !exited {
		t.Fatalf("programs entered degraded mode: %v, left it: %v; want both", entered, exited)
	}
}

func TestRSMDegradationDeterministicUnderSeed(t *testing.T) {
	run := func() (int64, int64, float64, float64) {
		r := newTestRSM(t, 1, 50)
		r.SetFaultInjector(fault.NewInjector(fault.Plan{Seed: 42, SFCorruptRate: 0.3}))
		for p := 0; p < 40; p++ {
			feedPeriod(r, 50)
		}
		return r.ImplausibleSFs, r.DegradedEntries, r.SFA(0), r.SFB(0)
	}
	i1, e1, a1, b1 := run()
	i2, e2, a2, b2 := run()
	if i1 != i2 || e1 != e2 || a1 != a2 || b1 != b2 {
		t.Errorf("fixed fault seed must reproduce exactly: (%d %d %v %v) vs (%d %d %v %v)",
			i1, e1, a1, b1, i2, e2, a2, b2)
	}
	if i1 == 0 {
		t.Error("rate 0.3 over 40 periods fired no corruption")
	}
}

func TestMDMCorruptUpdateEntersAndExitsDegraded(t *testing.T) {
	cfg := DefaultMDMConfig(1)
	cfg.PhaseUpdates = 10
	m := newTestMDM(t, cfg)

	// Out-of-range q_I can only come from corrupt ST metadata.
	m.OnSTCEvict(0, hybrid.NumQI+3, 1, 5)
	if !m.Degraded(0) {
		t.Fatal("corrupt update must enter degraded mode")
	}
	if m.CorruptUpdates != 1 || m.DegradedEntries != 1 {
		t.Errorf("corrupt=%d entries=%d, want 1/1", m.CorruptUpdates, m.DegradedEntries)
	}
	// The polluted statistics were discarded: estimates are back at the
	// optimistic seed.
	if got := m.ExpCnt(0, 0); got != cfg.InitialExpCnt {
		t.Errorf("exp_cnt after reset = %v, want %v", got, cfg.InitialExpCnt)
	}

	// A full observation phase of clean updates re-converges the monitor.
	for i := 0; i < 9; i++ {
		m.OnSTCEvict(0, 1, 1, 3)
		if !m.Degraded(0) {
			t.Fatalf("degraded mode left after only %d clean updates", i+1)
		}
	}
	m.OnSTCEvict(0, 1, 1, 3)
	if m.Degraded(0) {
		t.Fatal("full clean observation phase must exit degraded mode")
	}
}

func TestMDMFallbackCompetingCounter(t *testing.T) {
	cfg := DefaultMDMConfig(1)
	m := newTestMDM(t, cfg)
	m.OnSTCEvict(0, hybrid.NumQI, 1, 5) // degrade
	if !m.Degraded(0) {
		t.Fatal("not degraded")
	}
	ctx := &mdmCtx{m1slot: 0, owners: map[int]int{}}
	// Repeated M2 accesses to one block build its challenger counter until
	// it crosses MinBenefit and the fallback promotes it.
	now := int64(0)
	for i := 0; ctx.swaps == 0 && i < 100; i++ {
		now += 10
		m.OnAccess(hybrid.AccessInfo{Now: now, Core: 0, Group: 7, Slot: 2, Loc: 3}, ctx)
	}
	if ctx.swaps != 1 {
		t.Fatalf("fallback never promoted the hot block (swaps=%d)", ctx.swaps)
	}
	if m.DegradedDecisions == 0 {
		t.Error("fallback decisions not tallied")
	}
	if m.DegradedCycles == 0 {
		t.Error("degraded cycles not accrued")
	}
	rs := m.ResilienceStats()
	if rs.CorruptQACUpdates != 1 || rs.DegradedEntries != 1 || rs.DegradedDecisions == 0 {
		t.Errorf("resilience stats = %+v", rs)
	}

	// M1 accesses decay the challenger: a fresh candidate needs more M2
	// traffic than MinBenefit when M1 is also hot.
	m2 := newTestMDM(t, cfg)
	m2.OnSTCEvict(0, hybrid.NumQI, 1, 5)
	ctx2 := &mdmCtx{m1slot: 0, owners: map[int]int{}}
	for i := 0; i < int(cfg.MinBenefit); i++ {
		m2.OnAccess(hybrid.AccessInfo{Now: int64(i + 1), Core: 0, Group: 7, Slot: 2, Loc: 3}, ctx2)
		m2.OnAccess(hybrid.AccessInfo{Now: int64(i + 1), Core: 0, Group: 7, Slot: 0, Loc: 0}, ctx2)
	}
	if ctx2.swaps != 0 {
		t.Error("decayed challenger must not yet promote")
	}
}

func TestProFessSuspendsGuidanceWhileRSMDegraded(t *testing.T) {
	p := newTestProFess(t)
	p.SetFaultInjector(fault.NewInjector(fault.Plan{Seed: 2, SFCorruptRate: 1}))
	// Complete one sampling period for program 0 so its SF corrupts.
	for i := int64(0); i < p.rsm.cfg.SamplingRequests; i++ {
		p.OnServed(0, 0, false, i%2 == 0)
	}
	if !p.RSM().Degraded(0) {
		t.Fatal("RSM should be degraded")
	}
	// M1 is owned by program 1, the access comes from degraded program 0.
	ctx := &mdmCtx{m1slot: 0, owners: map[int]int{0: 1}}
	before := p.GuidanceSuspended
	ai := info(decideEntry(2, 0, 0, 0))
	ai.Now = 100
	p.OnAccess(ai, ctx)
	if p.GuidanceSuspended != before+1 {
		t.Errorf("guidance suspensions = %d, want %d", p.GuidanceSuspended, before+1)
	}
}
