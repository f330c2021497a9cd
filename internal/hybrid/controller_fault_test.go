package hybrid

import (
	"testing"

	"profess/internal/fault"
)

// m2Addr finds an allocated byte address whose block currently resides in
// M2 (location != 0), so demand bursts to it are eligible for NVM
// transient injection.
func (h *ctlHarness) m2Addr(t *testing.T) int64 {
	t.Helper()
	for pg := range h.vmap {
		a := h.addrOf(pg, 0)
		block := a / h.layout.BlockBytes
		g, s := h.layout.Group(block), h.layout.Slot(block)
		if h.ctl.LocationIndex(g, s) != 0 {
			return a
		}
	}
	t.Fatal("no M2-resident page in the allocation")
	return 0
}

func TestTransientRetryBoundsAndBackoff(t *testing.T) {
	h := newHarness(t, 64, &recPolicy{})
	addr := h.m2Addr(t)

	// Fault-free reference latency for the same access (second submit hits
	// the STC, so both runs pay identical ST traffic: none).
	h.submit(addr, false)
	base := h.submit(addr, false)

	// Every M2 read burst fails: the controller must retry RetryMax times
	// with doubling backoff, then drop exactly once — never loop forever.
	inj := fault.NewInjector(fault.Plan{Seed: 1, NVMReadRate: 1})
	h.ctl.Channels()[0].SetFaultInjector(inj.Fork(1))
	lat := h.submit(addr, false)

	if h.ctl.Resilience.Retries != int64(RetryMax) {
		t.Errorf("retries = %d, want %d", h.ctl.Resilience.Retries, RetryMax)
	}
	if h.ctl.Resilience.Drops != 1 {
		t.Errorf("drops = %d, want 1", h.ctl.Resilience.Drops)
	}
	// The observed latency includes every failed attempt plus the
	// exponential backoff schedule (64 + 128 + 256 cycles).
	minExtra := int64(RetryBackoff) * (1 + 2 + 4)
	if lat < base+minExtra {
		t.Errorf("faulted latency %d should exceed clean %d by at least %d", lat, base, minExtra)
	}
}

func TestTransientRetrySucceedsWithinBudget(t *testing.T) {
	h := newHarness(t, 64, &recPolicy{})
	addr := h.m2Addr(t)
	h.submit(addr, false) // fill the STC

	// At rate 0.5 most bursts eventually succeed within the retry budget:
	// across many accesses we must see retries but almost no drops.
	inj := fault.NewInjector(fault.Plan{Seed: 7, NVMReadRate: 0.5})
	h.ctl.Channels()[0].SetFaultInjector(inj.Fork(1))
	const n = 200
	for i := 0; i < n; i++ {
		h.submit(addr, false)
	}
	res := h.ctl.Resilience
	if res.Retries == 0 {
		t.Fatal("no retries at 50% fault rate")
	}
	// P(drop) = 0.5^4 per access ≈ 6%; seeing more than a third dropped
	// would mean the budget is not being honoured.
	if res.Drops > n/3 {
		t.Errorf("drops = %d of %d, retry budget not effective", res.Drops, n)
	}
	if res.Drops+int64(n) < res.Retries/int64(RetryMax) {
		t.Errorf("implausible tally: %+v", res)
	}
}

func TestQACCorruptionTallied(t *testing.T) {
	h := newHarness(t, 4, &recPolicy{}) // tiny STC forces evictions
	inj := fault.NewInjector(fault.Plan{Seed: 3, QACCorruptRate: 1})
	h.ctl.SetFaultInjector(inj.Fork(0x100))
	for pg := 0; pg < 32; pg++ {
		h.submit(h.addrOf(pg, 0), true)
	}
	h.ctl.FlushSTCs()
	if inj.Counts()[fault.QACCorruption] == 0 {
		t.Error("no QAC corruption fired at rate 1 with forced evictions")
	}
}
