package hybrid

import (
	"testing"

	"profess/internal/event"
	"profess/internal/mem"
)

// benchSink is a pre-bound completion handler, matching how the cpu core
// consumes the controller in production.
type benchSink struct{ n int64 }

func (s *benchSink) HandleEvent(int64, int64, any) { s.n++ }

// newBenchHarness wires a one-channel controller with a 64-entry, 4-way
// STC and maps pages pages for core 0.
func newBenchHarness(tb testing.TB, pages int64) (*Controller, *event.Queue, []int64, Layout) {
	tb.Helper()
	l, err := NewLayout(1<<20, 1, 128, 8)
	if err != nil {
		tb.Fatal(err)
	}
	alloc, err := NewAllocator(l, 1, 3)
	if err != nil {
		tb.Fatal(err)
	}
	q := &event.Queue{}
	chCfg := mem.DefaultChannelConfig(l.M1Capacity()+l.STBytesPerChannel(), l.M2Capacity())
	ch := mem.NewChannel(chCfg, q)
	ctl, err := NewController(ControllerConfig{
		Layout: l, STCEntries: 64, STCWays: 4, NumCores: 1, ModelSTTraffic: true,
	}, []*mem.Channel{ch}, alloc, NoMigration{}, q)
	if err != nil {
		tb.Fatal(err)
	}
	vmap, err := alloc.Alloc(0, pages)
	if err != nil {
		tb.Fatal(err)
	}
	return ctl, q, vmap, l
}

// BenchmarkController_Submit measures the full demand-access path — STC
// lookup/miss, ST traffic, translation, channel round trip, completion —
// over a working set that mixes STC hits and misses.
func BenchmarkController_Submit(b *testing.B) {
	ctl, q, vmap, l := newBenchHarness(b, 512)
	sink := &benchSink{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := vmap[i%len(vmap)]*l.PageBytes + int64(i%32)*64
		ctl.SubmitHandler(0, addr, i%4 == 0, sink, int64(i))
		q.Drain()
	}
	if sink.n != int64(b.N) {
		b.Fatalf("completed %d of %d submits", sink.n, b.N)
	}
}

// assertSteadyAllocs warms access up, then requires it to allocate
// nothing. With evicting set, every measured access must miss in the STC
// and write back a dirty victim, so the guard covers the eviction path
// and not only STC hits.
func assertSteadyAllocs(t *testing.T, ctl *Controller, evicting bool, access func()) {
	t.Helper()
	for i := 0; i < 4096; i++ {
		access()
	}
	stc := ctl.STCs()[0]
	hits, writes := stc.Hits, ctl.STWrites
	if allocs := testing.AllocsPerRun(1000, access); allocs != 0 {
		t.Fatalf("%v allocs per access, want 0", allocs)
	}
	switch {
	case evicting && stc.Hits != hits:
		t.Fatalf("%d STC hits while measuring, want every access to miss", stc.Hits-hits)
	case evicting && ctl.STWrites-writes != 1001:
		t.Fatalf("%d dirty STC evictions while measuring 1001 accesses, want one each", ctl.STWrites-writes)
	case !evicting && stc.Hits-hits != 1001:
		t.Fatalf("%d STC hits while measuring 1001 accesses, want all", stc.Hits-hits)
	}
}

// allocWorkingSets are the two shapes of the allocation guards: one
// block, every access an STC hit; and a cyclic sweep of 256 blocks over
// the 64-entry LRU STC, every access a miss that evicts a dirty entry.
var allocWorkingSets = []struct {
	name     string
	blocks   int
	evicting bool
}{{"stc-hit", 1, false}, {"stc-miss-evict", 256, true}}

// newAllocHarness is newBenchHarness with addr(i) walking the first
// blocks 2-KB blocks of core 0's pages cyclically.
func newAllocHarness(t *testing.T, blocks int) (*Controller, *event.Queue, func(i int) int64) {
	ctl, q, vmap, l := newBenchHarness(t, int64(blocks))
	perPage := l.BlocksPerPage()
	return ctl, q, func(i int) int64 {
		b := i % blocks
		return vmap[b/perPage]*l.PageBytes + int64(b%perPage)*l.BlockBytes
	}
}

// TestSubmitSteadyStateAllocs pins the controller's event-driven demand
// path at zero steady-state allocations per access, on STC hits and on
// STC misses that evict: the pooled access and ST records, the STC's
// reused eviction record and the typed event engine together leave
// nothing for the GC.
func TestSubmitSteadyStateAllocs(t *testing.T) {
	for _, ws := range allocWorkingSets {
		t.Run(ws.name, func(t *testing.T) {
			ctl, q, addr := newAllocHarness(t, ws.blocks)
			sink := &benchSink{}
			i := 0
			assertSteadyAllocs(t, ctl, ws.evicting, func() {
				ctl.SubmitHandler(0, addr(i), false, sink, 0)
				q.Drain()
				i++
			})
		})
	}
}

// TestFunctionalAccessSteadyStateAllocs is TestSubmitSteadyStateAllocs
// for the sampled tier's fast-forward path.
func TestFunctionalAccessSteadyStateAllocs(t *testing.T) {
	for _, ws := range allocWorkingSets {
		t.Run(ws.name, func(t *testing.T) {
			ctl, _, addr := newAllocHarness(t, ws.blocks)
			i := 0
			assertSteadyAllocs(t, ctl, ws.evicting, func() {
				ctl.FunctionalAccess(0, addr(i), false, int64(i)*100)
				i++
			})
		})
	}
}
