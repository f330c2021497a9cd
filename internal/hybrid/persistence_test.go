package hybrid

import (
	"testing"

	"profess/internal/event"
	"profess/internal/mem"
)

// evictGroup forces group's ST entry out of the STC by touching enough
// conflicting groups (same set) through the controller.
func (h *ctlHarness) evictGroup(t *testing.T, group int64) {
	t.Helper()
	stc := h.ctl.STCs()[0]
	for g := group + 1; g < h.layout.Groups; g++ {
		if stc.Peek(group) == nil {
			return
		}
		// Touch a block in group g via its original slot-0 address if g
		// maps to the same STC set.
		if g%int64(stcSets(stc)) == group%int64(stcSets(stc)) {
			addr := h.layout.Block(g, 0) * h.layout.BlockBytes
			h.submit(addr, false)
		}
	}
	if stc.Peek(group) != nil {
		t.Fatal("could not evict group")
	}
}

func stcSets(s *STC) int { return s.sets }

// TestQACPersistenceRoundTrip is the §3.2.1 contract: access counts
// quantize into the ST entry at eviction and come back as q_I at the next
// insertion — the attribute MDM predicts from.
func TestQACPersistenceRoundTrip(t *testing.T) {
	p := &recPolicy{}
	h := newHarness(t, 8, p) // tiny STC so evictions are easy
	// Pick an M2-resident block (slot 4 of group 0) and touch it 10 times
	// (quantizes to QAC 2 per Table 5).
	addr := h.layout.Block(0, 4) * h.layout.BlockBytes
	for i := 0; i < 10; i++ {
		h.submit(addr+int64(i*64), false)
	}
	h.evictGroup(t, 0)
	// Re-touch the block: its ST entry reloads with QInsert = 2.
	h.submit(addr, false)
	e := h.ctl.STCs()[0].Peek(0)
	if e == nil {
		t.Fatal("entry not resident after re-touch")
	}
	if got := e.QInsert[4]; got != 2 {
		t.Errorf("persisted QAC = %d, want 2 (10 accesses)", got)
	}
	// Untouched slots keep QAC 0 (previously unseen).
	if got := e.QInsert[7]; got != 0 {
		t.Errorf("untouched slot QAC = %d, want 0", got)
	}
}

// TestQACZeroCountDoesNotOverwrite checks §3.2.1: "If a block's access
// count is 0 at ST-entry eviction, the MC does not update the block's QAC
// value" — a hot block's QAC survives residencies where it is untouched.
func TestQACZeroCountDoesNotOverwrite(t *testing.T) {
	p := &recPolicy{}
	h := newHarness(t, 8, p)
	addr := h.layout.Block(0, 4) * h.layout.BlockBytes
	for i := 0; i < 40; i++ { // quantizes to 3
		h.submit(addr+int64((i%32)*64), false)
	}
	h.evictGroup(t, 0)
	// A residency that touches only a different block of group 0.
	other := h.layout.Block(0, 2) * h.layout.BlockBytes
	h.submit(other, false)
	h.evictGroup(t, 0)
	// Reload: slot 4 still carries QAC 3.
	h.submit(addr, false)
	e := h.ctl.STCs()[0].Peek(0)
	if got := e.QInsert[4]; got != 3 {
		t.Errorf("QAC = %d, want 3 preserved across an idle residency", got)
	}
}

// TestMultiChannelController verifies group striping across two channels:
// traffic to even groups hits channel 0, odd groups channel 1, and swaps
// stay channel-local.
func TestMultiChannelController(t *testing.T) {
	l, err := NewLayout(1<<20, 2, 128, 8)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := NewAllocator(l, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := &event.Queue{}
	mkChan := func() *mem.Channel {
		return mem.NewChannel(mem.DefaultChannelConfig(
			l.M1Capacity()/2+l.STBytesPerChannel(), l.M2Capacity()/2), q)
	}
	chans := []*mem.Channel{mkChan(), mkChan()}
	pol := &recPolicy{}
	ctl, err := NewController(ControllerConfig{
		Layout: l, STCEntries: 64, STCWays: 4, NumCores: 1, ModelSTTraffic: false,
	}, chans, alloc, pol, q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alloc.Alloc(0, 128); err != nil {
		t.Fatal(err)
	}
	// Even group -> channel 0, odd group -> channel 1.
	ctl.Submit(0, l.Block(2, 0)*l.BlockBytes, false, nil, 0)
	ctl.Submit(0, l.Block(3, 0)*l.BlockBytes, false, nil, 0)
	q.Drain()
	if chans[0].Counts.Reads[mem.M1] != 1 || chans[1].Counts.Reads[mem.M1] != 1 {
		t.Errorf("channel traffic: ch0=%d ch1=%d", chans[0].Counts.Reads[mem.M1], chans[1].Counts.Reads[mem.M1])
	}
	// A swap in an odd group blocks only channel 1.
	if !ctl.ScheduleSwap(3, 5) {
		t.Fatal("swap refused")
	}
	if chans[1].Counts.Swaps != 1 || chans[0].Counts.Swaps != 0 {
		t.Errorf("swap channel-locality violated: ch0=%d ch1=%d", chans[0].Counts.Swaps, chans[1].Counts.Swaps)
	}
	q.Drain()
}

// TestSTCHitServesWithoutSTRead pins the STC's purpose: resident entries
// translate without any ST traffic, so a burst to one group costs one ST
// read total.
func TestSTCHitServesWithoutSTRead(t *testing.T) {
	p := &recPolicy{}
	h := newHarness(t, 64, p)
	addr := h.addrOf(0, 0)
	for i := 0; i < 32; i++ {
		h.submit(addr+int64(i*64), false)
	}
	if h.ctl.STReads != 1 {
		t.Errorf("ST reads = %d for a single-group burst, want 1", h.ctl.STReads)
	}
}

// TestReadLatencyQuantiles checks the controller's tail-latency surface.
func TestReadLatencyQuantiles(t *testing.T) {
	p := &recPolicy{}
	h := newHarness(t, 64, p)
	for pg := 0; pg < 32; pg++ {
		h.submit(h.addrOf(pg, 0), false)
	}
	p50 := h.ctl.ReadLatencyQuantile(0, 0.5)
	p99 := h.ctl.ReadLatencyQuantile(0, 0.99)
	if p50 <= 0 || p99 < p50 {
		t.Errorf("quantiles p50=%v p99=%v", p50, p99)
	}
}
