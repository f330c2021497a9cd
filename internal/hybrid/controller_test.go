package hybrid

import (
	"testing"
	"testing/quick"

	"profess/internal/event"
	"profess/internal/mem"
)

// recPolicy records every hook invocation and optionally requests a swap
// on each M2 access.
type recPolicy struct {
	BasePolicy
	swapOnM2 bool

	served   []string
	accesses []AccessInfo
	evicts   []uint32
	swaps    [][2]int
}

func (p *recPolicy) Name() string { return "rec" }
func (p *recPolicy) OnAccess(info AccessInfo, ctl PolicyContext) {
	p.accesses = append(p.accesses, info)
	if p.swapOnM2 && info.Loc != 0 {
		ctl.ScheduleSwap(info.Group, info.Slot)
	}
}
func (p *recPolicy) OnServed(core, region int, private, fromM1 bool) {
	s := "shared"
	if private {
		s = "private"
	}
	if fromM1 {
		s += "/M1"
	} else {
		s += "/M2"
	}
	p.served = append(p.served, s)
}
func (p *recPolicy) OnSTCEvict(core int, qI, qE uint8, count uint32) {
	p.evicts = append(p.evicts, count)
}
func (p *recPolicy) OnSwapDone(region int, private bool, ownerM1, ownerM2 int) {
	p.swaps = append(p.swaps, [2]int{ownerM1, ownerM2})
}

type ctlHarness struct {
	q      *event.Queue
	ctl    *Controller
	alloc  *Allocator
	layout Layout
	policy *recPolicy
	vmap   []int64 // core 0's pages
}

// newHarness wires a single-channel controller with a tiny STC.
func newHarness(t *testing.T, stcEntries int, policy *recPolicy) *ctlHarness {
	t.Helper()
	l, err := NewLayout(1<<20, 1, 128, 8) // 512 groups
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := NewAllocator(l, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := &event.Queue{}
	chCfg := mem.DefaultChannelConfig(l.M1Capacity()+l.STBytesPerChannel(), l.M2Capacity())
	ch := mem.NewChannel(chCfg, q)
	ctl, err := NewController(ControllerConfig{
		Layout:         l,
		STCEntries:     stcEntries,
		STCWays:        4,
		NumCores:       1,
		ModelSTTraffic: true,
	}, []*mem.Channel{ch}, alloc, policy, q)
	if err != nil {
		t.Fatal(err)
	}
	vmap, err := alloc.Alloc(0, 512)
	if err != nil {
		t.Fatal(err)
	}
	return &ctlHarness{q: q, ctl: ctl, alloc: alloc, layout: l, policy: policy, vmap: vmap}
}

// addrOf returns the original byte address of the i-th allocated page.
func (h *ctlHarness) addrOf(page int, offset int64) int64 {
	return h.vmap[page]*h.layout.PageBytes + offset
}

// doneAt adapts a plain function to event.Handler for tests: it receives
// the access's completion cycle.
type doneAt func(now int64)

func (f doneAt) HandleEvent(now int64, _ int64, _ any) { f(now) }

// submit runs one access to completion and returns its latency.
func (h *ctlHarness) submit(addr int64, write bool) int64 {
	var lat int64 = -1
	start := h.q.Now()
	h.ctl.Submit(0, addr, write, doneAt(func(now int64) { lat = now - start }), 0)
	h.q.Drain()
	return lat
}

func TestControllerServesAndCounts(t *testing.T) {
	p := &recPolicy{}
	h := newHarness(t, 64, p)
	lat := h.submit(h.addrOf(0, 0), false)
	if lat <= 0 {
		t.Fatal("no latency recorded")
	}
	cs := h.ctl.Cores[0]
	if cs.Served != 1 || cs.Reads != 1 || cs.Writes != 0 {
		t.Errorf("stats = %+v", cs)
	}
	if cs.STCMisses != 1 || cs.STCHits != 0 {
		t.Errorf("STC stats = %+v", cs)
	}
	if h.ctl.STReads != 1 {
		t.Errorf("ST reads = %d (miss must fetch the ST entry)", h.ctl.STReads)
	}
	if len(p.served) != 1 || len(p.accesses) != 1 {
		t.Errorf("hooks: served=%v accesses=%d", p.served, len(p.accesses))
	}
	// Second access to the same group hits the STC: no new ST read.
	h.submit(h.addrOf(0, 64), false)
	if h.ctl.STReads != 1 {
		t.Errorf("ST reads = %d after STC hit", h.ctl.STReads)
	}
	if h.ctl.Cores[0].STCHits != 1 {
		t.Errorf("expected one STC hit: %+v", h.ctl.Cores[0])
	}
}

func TestControllerSTCMissLatencyAdds(t *testing.T) {
	p := &recPolicy{}
	h := newHarness(t, 64, p)
	missLat := h.submit(h.addrOf(0, 0), false)
	hitLat := h.submit(h.addrOf(0, 64), false)
	if missLat <= hitLat {
		t.Errorf("STC-miss access (%d) should be slower than STC-hit (%d)", missLat, hitLat)
	}
}

func TestCounterBumpAndWriteWeight(t *testing.T) {
	p := &recPolicy{}
	h := newHarness(t, 64, p)
	addr := h.addrOf(0, 0)
	h.submit(addr, false)
	info := p.accesses[0]
	if got := info.Entry.Count(info.Slot); got != 1 {
		t.Errorf("counter after read = %d", got)
	}
	h.submit(addr, true) // recPolicy's WriteWeight is BasePolicy's 1
	if got := p.accesses[1].Entry.Count(info.Slot); got != 2 {
		t.Errorf("counter after write = %d", got)
	}
}

func TestSwapRemapsAndNotifies(t *testing.T) {
	p := &recPolicy{swapOnM2: true}
	h := newHarness(t, 64, p)
	// Find an allocated page whose blocks sit in M2 (slot != 0).
	for pg := 0; pg < len(h.vmap); pg++ {
		addr := h.addrOf(pg, 0)
		block := addr / h.layout.BlockBytes
		if h.layout.Slot(block) == 0 {
			continue
		}
		group, slot := h.layout.Group(block), h.layout.Slot(block)
		if h.ctl.LocationIndex(group, slot) != slot {
			t.Fatal("initial mapping should be identity")
		}
		h.submit(addr, false) // triggers the swap via the policy
		if got := h.ctl.LocationIndex(group, slot); got != 0 {
			t.Fatalf("block not promoted: loc=%d", got)
		}
		if h.ctl.M1Slot(group) != slot {
			t.Fatalf("M1Slot = %d, want %d", h.ctl.M1Slot(group), slot)
		}
		// The old M1 resident (slot 0) moved to the promoted block's slot.
		if got := h.ctl.LocationIndex(group, 0); got != slot {
			t.Fatalf("demoted block at loc %d, want %d", got, slot)
		}
		if h.ctl.SwapsDone != 1 {
			t.Fatalf("SwapsDone = %d", h.ctl.SwapsDone)
		}
		if len(p.swaps) != 1 {
			t.Fatalf("OnSwapDone calls = %d", len(p.swaps))
		}
		if h.ctl.Cores[0].Swaps != 1 {
			t.Fatalf("core swap count = %d", h.ctl.Cores[0].Swaps)
		}
		return
	}
	t.Fatal("no M2-resident page found")
}

func TestScheduleSwapRejections(t *testing.T) {
	p := &recPolicy{}
	h := newHarness(t, 64, p)
	// Swapping the block already in M1 is refused.
	if h.ctl.ScheduleSwap(5, 0) {
		t.Error("swap of M1-resident block should be refused")
	}
	// A second swap for the same group while one is in flight is refused.
	if !h.ctl.ScheduleSwap(5, 3) {
		t.Fatal("first swap should be accepted")
	}
	if h.ctl.ScheduleSwap(5, 4) {
		t.Error("concurrent swap on the same group should be refused")
	}
	h.q.Drain()
	// After completion, a new swap is possible again.
	if !h.ctl.ScheduleSwap(5, 4) {
		t.Error("swap after completion should be accepted")
	}
}

func TestPermutationInvariantProperty(t *testing.T) {
	p := &recPolicy{}
	h := newHarness(t, 64, p)
	f := func(groupRaw int64, slots []uint8) bool {
		group := groupRaw
		if group < 0 {
			group = -group
		}
		group %= h.layout.Groups
		for _, sRaw := range slots {
			s := int(sRaw) % SlotsPerGroup
			h.ctl.ScheduleSwap(group, s)
			h.q.Drain()
			// Invariant: the slot->location map stays a permutation and
			// m1[group] names the slot mapped to location 0.
			seen := [SlotsPerGroup]bool{}
			for slot := 0; slot < SlotsPerGroup; slot++ {
				loc := h.ctl.LocationIndex(group, slot)
				if loc < 0 || loc >= SlotsPerGroup || seen[loc] {
					return false
				}
				seen[loc] = true
			}
			if h.ctl.LocationIndex(group, h.ctl.M1Slot(group)) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSTCEvictionFeedsMDMHooks(t *testing.T) {
	p := &recPolicy{}
	h := newHarness(t, 8, p) // tiny STC: 2 sets x 4 ways
	// Touch many distinct groups to force evictions.
	for pg := 0; pg < 60; pg++ {
		h.submit(h.addrOf(pg, 0), false)
	}
	if len(p.evicts) == 0 {
		t.Fatal("expected OnSTCEvict calls from STC pressure")
	}
	for _, c := range p.evicts {
		if c == 0 {
			t.Fatal("evict hook must only fire for non-zero counts")
		}
	}
	if h.ctl.STWrites == 0 {
		t.Error("dirty evictions should write the ST back")
	}
}

func TestFlushSTCsDrains(t *testing.T) {
	p := &recPolicy{}
	h := newHarness(t, 64, p)
	h.submit(h.addrOf(0, 0), false)
	before := len(p.evicts)
	h.ctl.FlushSTCs()
	if len(p.evicts) <= before {
		t.Error("flush should deliver final eviction statistics")
	}
}

func TestMSHRCoalescing(t *testing.T) {
	p := &recPolicy{}
	h := newHarness(t, 64, p)
	addr := h.addrOf(0, 0)
	done := 0
	// Two concurrent submits to the same group: one ST read only.
	h.ctl.Submit(0, addr, false, doneAt(func(int64) { done++ }), 0)
	h.ctl.Submit(0, addr+64, false, doneAt(func(int64) { done++ }), 0)
	h.q.Drain()
	if done != 2 {
		t.Fatalf("completions = %d", done)
	}
	if h.ctl.STReads != 1 {
		t.Errorf("ST reads = %d, want 1 (coalesced)", h.ctl.STReads)
	}
}

func TestControllerValidation(t *testing.T) {
	l := testLayout(t)
	alloc, _ := NewAllocator(l, 1, 1)
	q := &event.Queue{}
	ch := mem.NewChannel(mem.DefaultChannelConfig(1<<20, 8<<20), q)
	// Wrong channel count.
	if _, err := NewController(ControllerConfig{Layout: l, STCEntries: 64, STCWays: 8, NumCores: 1},
		[]*mem.Channel{ch}, alloc, &recPolicy{}, q); err == nil {
		t.Error("channel-count mismatch should fail")
	}
	// Indivisible STC entries.
	chans := []*mem.Channel{ch, mem.NewChannel(mem.DefaultChannelConfig(1<<20, 8<<20), q)}
	if _, err := NewController(ControllerConfig{Layout: l, STCEntries: 7, STCWays: 8, NumCores: 1},
		chans, alloc, &recPolicy{}, q); err == nil {
		t.Error("indivisible STC entries should fail")
	}
}

func TestRegionAttribution(t *testing.T) {
	p := &recPolicy{}
	h := newHarness(t, 64, p)
	// Find a page in the private region (region 0 for core 0) and one in
	// a shared region; verify the OnServed attribution.
	var privAddr, sharedAddr int64 = -1, -1
	for pg := 0; pg < len(h.vmap); pg++ {
		r := h.layout.PageRegion(h.vmap[pg])
		if r == 0 && privAddr < 0 {
			privAddr = h.addrOf(pg, 0)
		}
		if r != 0 && sharedAddr < 0 {
			sharedAddr = h.addrOf(pg, 0)
		}
	}
	if privAddr < 0 || sharedAddr < 0 {
		t.Fatal("missing private or shared page")
	}
	h.submit(privAddr, false)
	h.submit(sharedAddr, false)
	if p.served[0][:7] != "private" {
		t.Errorf("first access attribution = %s", p.served[0])
	}
	if p.served[1][:6] != "shared" {
		t.Errorf("second access attribution = %s", p.served[1])
	}
}
