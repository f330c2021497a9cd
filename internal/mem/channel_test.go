package mem

import (
	"testing"

	"profess/internal/event"
)

// runOne enqueues a single request on an idle channel and returns its
// completion latency.
func runOne(t *testing.T, ch *Channel, q *event.Queue, r *Request) int64 {
	t.Helper()
	var lat int64 = -1
	r.OnDone = func(now int64) { lat = now - r.Arrival }
	ch.Enqueue(r)
	q.Drain()
	if lat < 0 {
		t.Fatal("request never completed")
	}
	return lat
}

// call adapts a plain function to event.Handler for tests.
type call func(now int64)

func (f call) HandleEvent(now int64, _ int64, _ any) { f(now) }

func newTestChannel() (*Channel, *event.Queue) {
	q := &event.Queue{}
	return NewChannel(DefaultChannelConfig(2<<20, 16<<20), q), q
}

func TestReadMissThenHitLatency(t *testing.T) {
	ch, q := newTestChannel()
	tm := ch.Config().M1Timing

	missLat := runOne(t, ch, q, &Request{Module: M1, Bank: 0, Row: 3})
	if want := tm.TRCD + tm.CL + tm.Burst; missLat != want {
		t.Errorf("cold miss latency = %d, want %d", missLat, want)
	}
	hitLat := runOne(t, ch, q, &Request{Module: M1, Bank: 0, Row: 3})
	if want := tm.CL + tm.Burst; hitLat != want {
		t.Errorf("row hit latency = %d, want %d", hitLat, want)
	}
	if ch.Counts.RowHits[M1] != 1 || ch.Counts.RowMisses[M1] != 1 {
		t.Errorf("hit/miss counts = %d/%d", ch.Counts.RowHits[M1], ch.Counts.RowMisses[M1])
	}
}

func TestConflictMissPaysPrecharge(t *testing.T) {
	ch, q := newTestChannel()
	tm := ch.Config().M1Timing
	runOne(t, ch, q, &Request{Module: M1, Bank: 0, Row: 3})
	lat := runOne(t, ch, q, &Request{Module: M1, Bank: 0, Row: 4})
	if want := tm.TRP + tm.TRCD + tm.CL + tm.Burst; lat != want {
		t.Errorf("conflict latency = %d, want %d", lat, want)
	}
	if ch.Counts.Precharges[M1] != 1 {
		t.Errorf("precharges = %d", ch.Counts.Precharges[M1])
	}
}

func TestM2SlowerThanM1(t *testing.T) {
	ch, q := newTestChannel()
	m1 := runOne(t, ch, q, &Request{Module: M1, Bank: 0, Row: 1})
	m2 := runOne(t, ch, q, &Request{Module: M2, Bank: 0, Row: 1})
	if m2 <= m1 {
		t.Errorf("M2 cold read (%d) should be slower than M1 (%d)", m2, m1)
	}
	if want := Cycles(137.5 - 13.75); m2-m1 != want {
		t.Errorf("M2-M1 gap = %d, want %d (t_RCD difference)", m2-m1, want)
	}
}

func TestWriteRecoveryDelaysConflict(t *testing.T) {
	ch, q := newTestChannel()
	tm := ch.Config().M2Timing
	runOne(t, ch, q, &Request{Module: M2, Bank: 0, Row: 1, IsWrite: true})
	base := q.Now()
	var done int64
	r := &Request{Module: M2, Bank: 0, Row: 2, OnDone: func(now int64) { done = now }}
	ch.Enqueue(r)
	q.Drain()
	// The conflicting access must wait out t_WR before precharging.
	minDone := base + tm.TWR + tm.TRP + tm.TRCD + tm.CL + tm.Burst
	if done < minDone {
		t.Errorf("write recovery not respected: done=%d want>=%d", done, minDone)
	}
}

func TestBankParallelismOverlaps(t *testing.T) {
	ch, q := newTestChannel()
	tm := ch.Config().M1Timing
	var done [2]int64
	for i := 0; i < 2; i++ {
		i := i
		ch.Enqueue(&Request{Module: M1, Bank: i, Row: 5, OnDone: func(now int64) { done[i] = now }})
	}
	q.Drain()
	// Two cold misses to different banks overlap their activates: the
	// second completes one burst after the first, not a full miss later.
	if done[1]-done[0] != tm.Burst {
		t.Errorf("bank-parallel completion gap = %d, want %d (one burst)", done[1]-done[0], tm.Burst)
	}
}

func TestSameBankSerialises(t *testing.T) {
	ch, q := newTestChannel()
	var done [2]int64
	for i := 0; i < 2; i++ {
		i := i
		ch.Enqueue(&Request{Module: M1, Bank: 0, Row: 5, OnDone: func(now int64) { done[i] = now }})
	}
	q.Drain()
	tm := ch.Config().M1Timing
	// Second request is a row hit but must wait for the first's column
	// access; gap is at least a burst and typically CL-ish.
	if done[1] <= done[0] || done[1]-done[0] < tm.Burst {
		t.Errorf("same-bank requests did not serialise: %v", done)
	}
}

func TestFRFCFSPrefersRowHit(t *testing.T) {
	ch, q := newTestChannel()
	// Open row 1 on bank 0, then occupy the bank so that the next two
	// requests queue together and the scheduler gets to reorder them.
	runOne(t, ch, q, &Request{Module: M1, Bank: 0, Row: 1})
	var order []string
	ch.Enqueue(&Request{Module: M1, Bank: 0, Row: 1, OnDone: func(int64) { order = append(order, "busy") }})
	ch.Enqueue(&Request{Module: M1, Bank: 0, Row: 9, OnDone: func(int64) { order = append(order, "miss") }})
	ch.Enqueue(&Request{Module: M1, Bank: 0, Row: 1, OnDone: func(int64) { order = append(order, "hit") }})
	q.Drain()
	if len(order) != 3 || order[1] != "hit" {
		t.Errorf("completion order = %v, want the younger row hit before the older miss", order)
	}
}

func TestFRFCFSCapLimitsStreak(t *testing.T) {
	ch, q := newTestChannel()
	// Cold miss (streak 0) + in-flight hit (streak 1) occupy the bank.
	runOne(t, ch, q, &Request{Module: M1, Bank: 0, Row: 1})
	var order []string
	ch.Enqueue(&Request{Module: M1, Bank: 0, Row: 1, OnDone: func(int64) { order = append(order, "busy") }})
	// One old conflicting request plus five row hits queue behind it.
	ch.Enqueue(&Request{Module: M1, Bank: 0, Row: 9, OnDone: func(int64) { order = append(order, "miss") }})
	for i := 0; i < 5; i++ {
		ch.Enqueue(&Request{Module: M1, Bank: 0, Row: 1, OnDone: func(int64) { order = append(order, "hit") }})
	}
	q.Drain()
	if len(order) != 7 {
		t.Fatalf("served %d requests", len(order))
	}
	// Streak reaches the cap of 4 after three more hits (1 -> 4), then the
	// old miss must be served: positions are busy, hit, hit, hit, miss.
	missPos := -1
	for i, s := range order {
		if s == "miss" {
			missPos = i
			break
		}
	}
	if missPos != 4 {
		t.Errorf("miss served at position %d, want 4 (cap): order=%v", missPos, order)
	}
}

func TestSwapBlocksChannel(t *testing.T) {
	ch, q := newTestChannel()
	swapDone := int64(-1)
	end := ch.Swap(
		SwapLocation{Module: M1, Bank: 0, Row: 1},
		SwapLocation{Module: M2, Bank: 3, Row: 7},
		call(func(now int64) { swapDone = now }), 0,
	)
	// A demand request enqueued during the swap must wait until it ends.
	var reqDone int64
	ch.Enqueue(&Request{Module: M1, Bank: 5, Row: 2, OnDone: func(now int64) { reqDone = now }})
	q.Drain()
	if swapDone != end {
		t.Errorf("swap completed at %d, expected %d", swapDone, end)
	}
	if want := ch.Config().SwapLatency(); end != want {
		t.Errorf("swap end = %d, want %d", end, want)
	}
	if reqDone <= end {
		t.Errorf("demand request (%d) overtook the blocking swap (%d)", reqDone, end)
	}
	if ch.Counts.Swaps != 1 || ch.Counts.SwapBusy != want(ch) {
		t.Errorf("swap counts: %+v", ch.Counts)
	}
	n := ch.Config().BlockBytes / 64
	if ch.Counts.SwapReads[M1] != n || ch.Counts.SwapWrites[M2] != n {
		t.Errorf("swap traffic counts wrong: %+v", ch.Counts)
	}
}

func want(ch *Channel) int64 { return ch.Config().SwapLatency() }

func TestSwapClosesInvolvedRows(t *testing.T) {
	ch, q := newTestChannel()
	runOne(t, ch, q, &Request{Module: M1, Bank: 0, Row: 1})
	ch.Swap(SwapLocation{Module: M1, Bank: 0, Row: 1}, SwapLocation{Module: M2, Bank: 0, Row: 1}, nil, 0)
	q.Drain()
	// Re-access the previously open row: it must be a miss again.
	misses := ch.Counts.RowMisses[M1]
	runOne(t, ch, q, &Request{Module: M1, Bank: 0, Row: 1})
	if ch.Counts.RowMisses[M1] != misses+1 {
		t.Error("swap should close the involved M1 row")
	}
}

func TestBackToBackSwapsQueue(t *testing.T) {
	ch, _ := newTestChannel()
	end1 := ch.Swap(SwapLocation{Module: M1, Bank: 0, Row: 1}, SwapLocation{Module: M2, Bank: 0, Row: 1}, nil, 0)
	end2 := ch.Swap(SwapLocation{Module: M1, Bank: 1, Row: 1}, SwapLocation{Module: M2, Bank: 1, Row: 1}, nil, 0)
	if end2 != end1+ch.Config().SwapLatency() {
		t.Errorf("second swap end = %d, want %d", end2, end1+ch.Config().SwapLatency())
	}
}

func TestChannelDeterminism(t *testing.T) {
	run := func() int64 {
		ch, q := newTestChannel()
		for i := 0; i < 200; i++ {
			ch.Enqueue(&Request{Module: Kind(i % 2), Bank: i % 16, Row: int64(i % 7)})
			if i%50 == 25 {
				ch.Swap(SwapLocation{Module: M1, Bank: i % 16, Row: 1},
					SwapLocation{Module: M2, Bank: i % 16, Row: 2}, nil, 0)
			}
		}
		return q.Drain()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic: %d vs %d", a, b)
	}
}

func TestQueueDepthAccounting(t *testing.T) {
	ch, q := newTestChannel()
	for i := 0; i < 10; i++ {
		ch.Enqueue(&Request{Module: M1, Bank: 0, Row: int64(i)})
	}
	q.Drain()
	if ch.AvgQueueDepth() <= 0 {
		t.Error("queue depth should have been sampled")
	}
	if ch.QueueLen() != 0 {
		t.Errorf("queue should drain, len=%d", ch.QueueLen())
	}
	if ch.String() == "" {
		t.Error("String empty")
	}
}
