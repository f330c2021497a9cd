package mem

import (
	"testing"
	"testing/quick"

	"profess/internal/event"
)

// TestEveryRequestCompletesProperty: whatever mix of requests and swaps is
// thrown at a channel, every request completes exactly once and counts
// balance.
func TestEveryRequestCompletesProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		q := &event.Queue{}
		ch := NewChannel(DefaultChannelConfig(2<<20, 16<<20), q)
		want, got := 0, 0
		for _, op := range ops {
			kind := Kind(op % 2)
			bank := int(op/2) % 16
			row := int64(op/32) % 8
			switch {
			case op%13 == 0:
				ch.Swap(SwapLocation{Module: M1, Bank: bank, Row: row},
					SwapLocation{Module: M2, Bank: bank, Row: row}, nil, 0)
			default:
				want++
				ch.Enqueue(&Request{
					Module: kind, Bank: bank, Row: row, IsWrite: op%3 == 0,
					Done: doneAt(func(int64) { got++ }),
				})
			}
		}
		q.Drain()
		if got != want {
			return false
		}
		// Count balance: reads+writes == demand requests served.
		c := ch.Counts
		return c.Reads[M1]+c.Reads[M2]+c.Writes[M1]+c.Writes[M2] == int64(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestLatencyNonNegativeProperty: completions never precede arrivals and
// the clock never runs backwards across a request's lifetime.
func TestLatencyNonNegativeProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		q := &event.Queue{}
		ch := NewChannel(DefaultChannelConfig(2<<20, 16<<20), q)
		ok := true
		for i, op := range ops {
			r := &Request{Module: Kind(op % 2), Bank: int(op) % 16, Row: int64(op) % 64}
			delay := int64(i) * 7
			q.Schedule(delay, call(func(int64) {
				arrivalFloor := delay
				r.Done = doneAt(func(now int64) {
					if now < arrivalFloor {
						ok = false
					}
				})
				ch.Enqueue(r)
			}), 0, nil)
		}
		q.Drain()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestBusSerialisesThroughputProperty: total demand bursts cannot complete
// faster than the data bus permits (one burst per Burst cycles).
func TestBusSerialisesThroughput(t *testing.T) {
	q := &event.Queue{}
	ch := NewChannel(DefaultChannelConfig(2<<20, 16<<20), q)
	const n = 500
	var last int64
	for i := 0; i < n; i++ {
		ch.Enqueue(&Request{Module: M1, Bank: i % 16, Row: int64(i % 4),
			Done: doneAt(func(now int64) { last = now })})
	}
	q.Drain()
	minCycles := int64(n) * ch.Config().M1Timing.Burst
	if last < minCycles {
		t.Errorf("%d bursts finished in %d cycles; bus floor is %d", n, last, minCycles)
	}
	if ch.BusBusyCycles != minCycles {
		t.Errorf("bus busy = %d, want %d", ch.BusBusyCycles, minCycles)
	}
}
