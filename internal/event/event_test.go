package event

import (
	"testing"
	"testing/quick"
)

// call adapts a plain function to Handler for tests.
type call func(now int64, i int64, p any)

func (f call) HandleEvent(now int64, i int64, p any) { f(now, i, p) }

// at schedules fn at cycle t through a test-local handler.
func at(q *Queue, t int64, fn func(now int64)) {
	q.Schedule(t, call(func(now int64, _ int64, _ any) { fn(now) }), 0, nil)
}

func TestOrdering(t *testing.T) {
	var q Queue
	var got []int
	at(&q, 30, func(int64) { got = append(got, 3) })
	at(&q, 10, func(int64) { got = append(got, 1) })
	at(&q, 20, func(int64) { got = append(got, 2) })
	q.Drain()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v", got)
	}
	if q.Now() != 30 {
		t.Errorf("final time = %d", q.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		at(&q, 5, func(int64) { got = append(got, i) })
	}
	q.Drain()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events reordered: %v", got)
		}
	}
}

func TestPastSchedulingClamps(t *testing.T) {
	var q Queue
	at(&q, 100, func(now int64) {
		at(&q, 50, func(now2 int64) {
			if now2 != 100 {
				t.Errorf("past event ran at %d, want clamp to 100", now2)
			}
		})
	})
	q.Drain()
	if q.Now() != 100 {
		t.Errorf("now = %d", q.Now())
	}
}

func TestStepAndEmpty(t *testing.T) {
	var q Queue
	if !q.Empty() || q.Len() != 0 {
		t.Error("new queue should be empty")
	}
	at(&q, 1, func(int64) {})
	if q.Empty() || q.Len() != 1 {
		t.Error("queue should have one event")
	}
	if !q.Step() {
		t.Error("Step should succeed")
	}
	if q.Step() {
		t.Error("Step on empty should report false")
	}
}

func TestRunUntilStops(t *testing.T) {
	var q Queue
	count := 0
	for i := 1; i <= 100; i++ {
		at(&q, int64(i), func(int64) { count++ })
	}
	q.RunUntil(func() bool { return count >= 10 })
	if count != 10 {
		t.Errorf("processed %d events, want 10", count)
	}
	if q.Len() != 90 {
		t.Errorf("remaining = %d, want 90", q.Len())
	}
}

func TestCascadingEvents(t *testing.T) {
	var q Queue
	depth := 0
	var recurse func(now int64)
	recurse = func(now int64) {
		if depth < 50 {
			depth++
			at(&q, now+1, recurse)
		}
	}
	at(&q, 0, recurse)
	q.Drain()
	if depth != 50 {
		t.Errorf("depth = %d", depth)
	}
	if q.Now() != 50 {
		t.Errorf("now = %d", q.Now())
	}
}

func TestMonotonicClockProperty(t *testing.T) {
	f := func(times []int64) bool {
		var q Queue
		var seen []int64
		for _, t := range times {
			if t < 0 {
				t = -t
			}
			at(&q, t%100000, func(now int64) { seen = append(seen, now) })
		}
		q.Drain()
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
