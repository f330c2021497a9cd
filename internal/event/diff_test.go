package event

import (
	"math/rand"
	"slices"
	"testing"
)

// sortedCal is the reference calendar of TestQueueMatchesSortedCalendar: a
// flat list of pending events, each pop taking the minimum (time,
// insertion order).
type sortedCal struct {
	now, seq, ids int64
	evs           [][3]int64 // (at, seq, id)
	fired         []int64
}

func (c *sortedCal) schedule(t int64) {
	if t < c.now {
		t = c.now
	}
	c.seq++
	c.ids++
	c.evs = append(c.evs, [3]int64{t, c.seq, c.ids})
}

func (c *sortedCal) nextAt() (int64, bool) {
	if len(c.evs) == 0 {
		return 0, false
	}
	return c.evs[c.min()][0], true
}

func (c *sortedCal) min() int {
	m := 0
	for i, e := range c.evs {
		if e[0] < c.evs[m][0] || e[0] == c.evs[m][0] && e[1] < c.evs[m][1] {
			m = i
		}
	}
	return m
}

func (c *sortedCal) step() bool {
	if len(c.evs) == 0 {
		return false
	}
	m := c.min()
	e := c.evs[m]
	c.evs = slices.Delete(c.evs, m, m+1)
	c.now = e[0]
	c.fired = append(c.fired, e[2])
	if d, ok := childDelay(e[2]); ok {
		c.schedule(c.now + d)
	}
	return true
}

func (c *sortedCal) advanceTo(t int64) int64 {
	if next, ok := c.nextAt(); ok && next < t {
		t = next
	}
	if t > c.now {
		c.now = t
	}
	return c.now
}

func (c *sortedCal) reset() { *c = sortedCal{fired: c.fired} }

// wheelCal drives a Queue with the same labelling as sortedCal: events are
// numbered in scheduling order and each dispatch may schedule a child.
type wheelCal struct {
	q     Queue
	ids   int64
	fired []int64
}

func (w *wheelCal) schedule(t int64) {
	w.ids++
	w.q.Schedule(t, w, w.ids, nil)
}

func (w *wheelCal) HandleEvent(now int64, id int64, _ any) {
	w.fired = append(w.fired, id)
	if d, ok := childDelay(id); ok {
		w.schedule(now + d)
	}
}

// childDelay decides, from an event's id alone, whether its dispatch
// schedules a child and how far ahead: into the past, the same cycle, the
// near wheel or beyond the horizon.
func childDelay(id int64) (int64, bool) {
	switch id % 8 {
	case 0:
		return -(id % 50), true
	case 1:
		return 0, true
	case 2:
		return wheelSize - 1 + id%3, true
	case 3:
		return id % 300, true
	}
	return 0, false
}

// TestQueueMatchesSortedCalendar runs a seeded random sequence of Schedule
// calls — inside the wheel horizon, at its edge, beyond it, in the past
// and in same-cycle batches — mixed with Step, NextAt, AdvanceTo and
// Reset, and requires the dispatch order, the clock and Len to match a
// calendar sorted by (time, insertion order) after every operation.
func TestQueueMatchesSortedCalendar(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := &wheelCal{}
		ref := &sortedCal{}
		for op := 0; op < 40000; op++ {
			switch x := rng.Intn(1000); {
			case x < 350:
				var t int64
				switch rng.Intn(6) {
				case 0:
					t = ref.now - rng.Int63n(100) // the past
				case 1:
					t = ref.now + wheelSize - 1 + rng.Int63n(3) // the horizon's edge
				case 2:
					t = ref.now + wheelSize + rng.Int63n(4*wheelSize) // overflow
				default:
					t = ref.now + rng.Int63n(wheelSize)
				}
				w.schedule(t)
				ref.schedule(t)
			case x < 370:
				// A same-cycle batch far ahead, migrated in one go.
				t := ref.now + 2*wheelSize + rng.Int63n(wheelSize)
				for n := rng.Intn(20); n >= 0; n-- {
					w.schedule(t)
					ref.schedule(t)
				}
			case x < 900:
				if got, want := w.q.Step(), ref.step(); got != want {
					t.Fatalf("seed %d op %d: Step = %v, reference %v", seed, op, got, want)
				}
			case x < 940:
				got, gok := w.q.NextAt()
				want, wok := ref.nextAt()
				if got != want || gok != wok {
					t.Fatalf("seed %d op %d: NextAt = %d,%v, reference %d,%v", seed, op, got, gok, want, wok)
				}
			case x < 999:
				to := ref.now + rng.Int63n(3*wheelSize)
				if got, want := w.q.AdvanceTo(to), ref.advanceTo(to); got != want {
					t.Fatalf("seed %d op %d: AdvanceTo(%d) = %d, reference %d", seed, op, to, got, want)
				}
			default:
				w.q.Reset()
				w.ids = 0
				ref.reset()
			}
			if w.q.Now() != ref.now || w.q.Len() != len(ref.evs) || w.q.Empty() != (len(ref.evs) == 0) {
				t.Fatalf("seed %d op %d: now %d len %d, reference now %d len %d",
					seed, op, w.q.Now(), w.q.Len(), ref.now, len(ref.evs))
			}
			// Earlier dispatches were checked on earlier operations.
			if n := len(ref.fired); len(w.fired) != n || n > 0 && w.fired[n-1] != ref.fired[n-1] {
				t.Fatalf("seed %d op %d: %d dispatches ending %v, reference %d ending %v",
					seed, op, len(w.fired), w.fired[max(len(w.fired)-1, 0):], n, ref.fired[max(n-1, 0):])
			}
		}
		for w.q.Step() {
		}
		for ref.step() {
		}
		if !slices.Equal(w.fired, ref.fired) || w.q.Now() != ref.now {
			t.Fatalf("seed %d: final drain diverged", seed)
		}
	}
}
