package event

import (
	"testing"
)

// countingHandler is a minimal pre-bound component for alloc tests.
type countingHandler struct {
	n   int64
	sum int64
}

func (h *countingHandler) HandleEvent(now int64, i int64, p any) {
	h.n++
	h.sum += i
}

// TestZeroAllocSteadyState pins the engine's core guarantee: once the wheel
// and node pool are warm, scheduling and dispatching a typed event
// allocates nothing. A regression here silently reintroduces per-event GC
// pressure across every simulation, so it fails the build.
func TestZeroAllocSteadyState(t *testing.T) {
	q := &Queue{}
	h := &countingHandler{}
	// Warm up: allocate the wheel, grow the node pool, exercise the
	// overflow heap so its backing array has capacity.
	for i := 0; i < 4*wheelSize; i++ {
		q.Schedule(q.Now()+int64(i%257), h, int64(i), nil)
		q.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		q.Schedule(q.Now()+64, h, 1, nil)
		q.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state typed event: %v allocs per schedule+dispatch, want 0", allocs)
	}
}

// TestZeroAllocOverflow checks the overflow heap path too: beyond-horizon
// events (telemetry epochs, refresh windows) migrate through the heap
// without boxing once its backing array is warm.
func TestZeroAllocOverflow(t *testing.T) {
	q := &Queue{}
	h := &countingHandler{}
	for i := 0; i < 1024; i++ {
		q.Schedule(q.Now()+2*wheelSize, h, int64(i), nil)
		q.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		q.Schedule(q.Now()+2*wheelSize, h, 1, nil)
		q.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state overflow event: %v allocs per schedule+dispatch, want 0", allocs)
	}
}

// TestSchedulePastClamps documents the monotonic-clamp contract: an event
// armed in the past fires at Now, after events already pending for Now.
func TestSchedulePastClamps(t *testing.T) {
	q := &Queue{}
	var order []int64
	rec := call(func(now int64, i int64, _ any) { order = append(order, i) })
	at(q, 10, func(now int64) {
		q.Schedule(3, rec, 1, nil) // past: clamps to cycle 10
		q.Schedule(10, rec, 2, nil)
	})
	q.Schedule(10, rec, 0, nil)
	q.Drain()
	if q.Now() != 10 {
		t.Fatalf("clock = %d, want 10 (past scheduling must not rewind)", q.Now())
	}
	// The clamped event keeps its insertion order: it was armed before the
	// second cycle-10 event, so it fires between the two.
	want := []int64{0, 1, 2}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// BenchmarkQueue_SteadyState measures one typed schedule+dispatch through
// the wheel — the cost the whole simulator pays per event.
func BenchmarkQueue_SteadyState(b *testing.B) {
	q := &Queue{}
	h := &countingHandler{}
	for i := 0; i < wheelSize; i++ { // warm the node pool
		q.Schedule(q.Now()+int64(i%97), h, 0, nil)
		q.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Schedule(q.Now()+int64(i%97)+1, h, int64(i), nil)
		q.Step()
	}
}

// TestZeroAllocMigrationDrain guards the batched overflow→wheel migration:
// when a batch of far-future events (refresh windows, telemetry epochs of
// a large config) comes due on the same cycle, the drain must reuse the
// staging slice and the pooled nodes instead of allocating per event.
func TestZeroAllocMigrationDrain(t *testing.T) {
	q := &Queue{}
	h := &countingHandler{}
	const batch = 512
	drain := func() {
		// Align the batch to a wheel-size boundary so every iteration
		// lands on the same destination bucket.
		base := (q.Now()/wheelSize + 2) * wheelSize
		for i := 0; i < batch; i++ {
			q.Schedule(base, h, int64(i), nil)
		}
		for i := 0; i < batch; i++ {
			if !q.Step() {
				t.Fatal("queue drained early")
			}
		}
	}
	drain() // warm: grow the heap, the staging slice and the node pool
	allocs := testing.AllocsPerRun(100, drain)
	if allocs != 0 {
		t.Fatalf("migration drain of %d far-future events: %v allocs per drain, want 0", batch, allocs)
	}
}
