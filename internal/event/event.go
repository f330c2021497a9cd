// Package event implements the discrete-event engine at the heart of the
// simulator: a monotonic clock plus a calendar of pending work. Components
// (cores, memory channels, the migration machinery) schedule future work
// with At/Schedule and the driver pumps events with Step/RunUntil.
//
// # Engine
//
// The calendar is a hierarchical timing wheel: events within the near
// horizon (wheelSize cycles) land in per-cycle buckets addressed by
// t mod wheelSize, and events beyond it wait in a typed overflow min-heap
// that is migrated into the wheel as the clock advances. Both tiers store
// events by value in reusable backing arrays, so pushing and popping an
// event performs no heap allocation in steady state — unlike the previous
// container/heap calendar, which boxed every item through interface{}.
//
// # Dispatch
//
// Events come in two flavours:
//
//   - Closure events (At/After): fn(now) — the compatibility surface; the
//     closure itself is allocated at the caller.
//   - Typed events (Schedule): h.HandleEvent(now, i, p) on a pre-bound
//     long-lived Handler with a small tagged payload. Scheduling one
//     allocates nothing, which is what the simulator's hot paths use.
//
// # Determinism
//
// Events fire in (time, insertion order) — the seq tiebreak. Within a
// wheel bucket insertion order is append order; the overflow heap orders
// by (at, seq); and migration drains the heap in that order before any
// same-cycle event can be inserted directly, so the global dispatch order
// is exactly the order a single sorted calendar would produce.
package event

import (
	"math/bits"
	"slices"
)

const (
	// wheelBits sizes the near-future horizon: events scheduled fewer
	// than wheelSize cycles ahead go straight to a bucket. 8192 cycles
	// covers every memory-system latency in the simulator (the longest,
	// a blocked-channel swap, is ~2.5K cycles); telemetry epochs and
	// refresh windows overflow to the heap, which is fine — they are
	// rare.
	wheelBits = 13
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
	occWords  = wheelSize / 64
)

// Handler receives typed event dispatches. Implementations are long-lived
// simulation components (a memory channel, a core, a sampler) that bind
// themselves once; i and p are per-event payload (an event-kind tag, a
// token, a request pointer). Scheduling a Handler allocates nothing.
type Handler interface {
	HandleEvent(now int64, i int64, p any)
}

// HandlerFunc adapts a plain function to the Handler interface — glue for
// tests and call sites where a pre-bound component would be overkill. Note
// that a HandlerFunc value is itself a closure, so this is not the
// zero-allocation path.
type HandlerFunc func(now int64, i int64, p any)

// HandleEvent implements Handler.
func (f HandlerFunc) HandleEvent(now int64, i int64, p any) { f(now, i, p) }

// timed is one scheduled event: a closure (fn non-nil) or a typed
// dispatch (h non-nil). Stored by value in wheel buckets and the
// overflow heap.
type timed struct {
	at  int64
	seq int64 // insertion order breaks ties for determinism
	fn  func(now int64)
	h   Handler
	i   int64
	p   any
}

// bucket holds the events of one cycle within the wheel horizon. head
// indexes the next event to fire; the backing array is reset (not freed)
// when drained, so capacity is reused across wheel rotations.
type bucket struct {
	head  int
	items []timed
}

// Queue is a discrete-event calendar. The zero value is ready to use.
type Queue struct {
	now int64
	seq int64
	n   int // total pending events (wheel + overflow)

	wheel    []bucket // wheelSize buckets, allocated on first insert
	occ      []uint64 // occupancy bitmap over buckets
	wheelN   int      // events currently in the wheel
	overflow []timed  // min-heap on (at, seq) for beyond-horizon events
	scratch  []timed  // reusable staging area for overflow→wheel migration
}

// Now returns the current simulation time in cycles.
func (q *Queue) Now() int64 { return q.now }

// At schedules fn to run at cycle t. Scheduling in the past (t < Now)
// clamps to the current time: the callback runs at Now, after every
// event already scheduled for Now (insertion order still breaks the
// tie), preserving the clock's monotonicity.
func (q *Queue) At(t int64, fn func(now int64)) {
	q.add(t, timed{fn: fn})
}

// After schedules fn delay cycles from now. A non-positive delay behaves
// like At(Now()): the callback runs at the current cycle.
func (q *Queue) After(delay int64, fn func(now int64)) {
	q.add(q.now+delay, timed{fn: fn})
}

// Schedule arms a typed event: at cycle t (clamped to Now like At), h
// receives HandleEvent(now, i, p). This is the zero-allocation scheduling
// path: the event is stored by value and h is a pre-bound component.
func (q *Queue) Schedule(t int64, h Handler, i int64, p any) {
	q.add(t, timed{h: h, i: i, p: p})
}

// add stamps and files one event.
func (q *Queue) add(t int64, ev timed) {
	if t < q.now {
		t = q.now
	}
	q.seq++
	ev.at = t
	ev.seq = q.seq
	q.n++
	if t < q.now+wheelSize {
		q.pushWheel(ev)
	} else {
		q.pushOverflow(ev)
	}
}

// pushWheel files an in-horizon event into its bucket.
func (q *Queue) pushWheel(ev timed) {
	if q.wheel == nil {
		q.wheel = make([]bucket, wheelSize)
		q.occ = make([]uint64, occWords)
	}
	idx := int(ev.at & wheelMask)
	b := &q.wheel[idx]
	b.items = append(b.items, ev)
	q.occ[idx>>6] |= 1 << uint(idx&63)
	q.wheelN++
}

// pushOverflow sift-up inserts into the typed min-heap.
func (q *Queue) pushOverflow(ev timed) {
	h := append(q.overflow, ev)
	j := len(h) - 1
	for j > 0 {
		parent := (j - 1) / 2
		if !less(&h[j], &h[parent]) {
			break
		}
		h[j], h[parent] = h[parent], h[j]
		j = parent
	}
	q.overflow = h
}

// less orders events by (time, insertion order).
func less(a, b *timed) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// siftDown restores the heap property below j. n is the heap length.
func siftDown(h []timed, j, n int) {
	for {
		l := 2*j + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && less(&h[r], &h[l]) {
			m = r
		}
		if !less(&h[m], &h[j]) {
			return
		}
		h[j], h[m] = h[m], h[j]
		j = m
	}
}

// migrate pulls every overflow event that the advancing clock brought
// inside the wheel horizon into its bucket, in (at, seq) order.
//
// Migration is batched: due events are partitioned out of the heap into a
// reusable staging slice, sorted once, and copied into their buckets with
// the capacity for each bucket reserved exactly, in one grow. The naive
// pop-and-push loop reallocated the destination bucket's backing array up
// to log2(k) times when k far-future events (refresh windows, telemetry
// epochs of a large config) came due on the same cycle; this path performs
// at most one allocation per destination bucket, and none once the bucket
// has seen a batch of that size before.
func (q *Queue) migrate() {
	horizon := q.now + wheelSize
	if len(q.overflow) == 0 || q.overflow[0].at >= horizon {
		return
	}
	// Partition in place: due events stage in scratch, the rest compact to
	// the front of the heap array (reads stay ahead of writes).
	keep := q.overflow[:0]
	sc := q.scratch[:0]
	for i := range q.overflow {
		if q.overflow[i].at < horizon {
			sc = append(sc, q.overflow[i])
		} else {
			keep = append(keep, q.overflow[i])
		}
	}
	// Release the tail slots the compaction vacated, then re-heapify.
	for i := len(keep); i < len(q.overflow); i++ {
		q.overflow[i] = timed{}
	}
	q.overflow = keep
	for j := len(keep)/2 - 1; j >= 0; j-- {
		siftDown(keep, j, len(keep))
	}
	slices.SortFunc(sc, func(a, b timed) int {
		if less(&a, &b) {
			return -1
		}
		return 1
	})
	// Bulk-insert runs of same-cycle events, reserving each destination
	// bucket once. Within the horizon each cycle maps to a unique bucket,
	// so a run shares its destination.
	for i := 0; i < len(sc); {
		j := i + 1
		for j < len(sc) && sc[j].at == sc[i].at {
			j++
		}
		q.reserveWheel(sc[i].at, j-i)
		for ; i < j; i++ {
			q.pushWheel(sc[i])
		}
	}
	// Zero the staging slots so retained capacity holds no payloads.
	for i := range sc {
		sc[i] = timed{}
	}
	q.scratch = sc[:0]
}

// reserveWheel ensures the bucket for cycle t can take n more events
// without growing during the subsequent appends.
func (q *Queue) reserveWheel(t int64, n int) {
	if q.wheel == nil {
		q.wheel = make([]bucket, wheelSize)
		q.occ = make([]uint64, occWords)
	}
	b := &q.wheel[int(t&wheelMask)]
	if cap(b.items)-len(b.items) >= n {
		return
	}
	grown := make([]timed, len(b.items), len(b.items)+n)
	copy(grown, b.items)
	b.items = grown
}

// nextWheelBucket scans the occupancy bitmap circularly from the current
// cycle's slot and returns the index of the first occupied bucket — the
// bucket holding the earliest pending wheel event. Callers must ensure
// wheelN > 0.
func (q *Queue) nextWheelBucket() int {
	start := int(q.now & wheelMask)
	w := start >> 6
	word := q.occ[w] &^ ((1 << uint(start&63)) - 1)
	for {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
		w++
		if w == occWords {
			w = 0
		}
		word = q.occ[w]
	}
}

// Reset rewinds the calendar to its zero state — clock at cycle 0, no
// pending events, insertion counter restarted — while keeping the wheel,
// bucket backing arrays, overflow heap and staging slice allocated for
// reuse. Pending events are dropped, with their closure/payload
// references zeroed so retained capacity pins nothing. A reset queue is
// indistinguishable from a fresh one to every scheduler client; the
// simulation-state arena relies on this to re-run a machine in place.
func (q *Queue) Reset() {
	if q.wheel != nil && q.wheelN > 0 {
		for w := range q.occ {
			word := q.occ[w]
			for word != 0 {
				idx := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				b := &q.wheel[idx]
				// Slots before head were already zeroed as they fired.
				for i := b.head; i < len(b.items); i++ {
					b.items[i] = timed{}
				}
				b.items = b.items[:0]
				b.head = 0
			}
			q.occ[w] = 0
		}
	}
	for i := range q.overflow {
		q.overflow[i] = timed{}
	}
	q.overflow = q.overflow[:0]
	for i := range q.scratch {
		q.scratch[i] = timed{}
	}
	q.scratch = q.scratch[:0]
	q.now, q.seq, q.n, q.wheelN = 0, 0, 0, 0
}

// AdvanceTo jumps the clock forward to cycle t without running anything —
// the fast-forward spans of the sampled execution mode use it to charge a
// functionally-simulated span in one step. The jump never passes a pending
// event: with events scheduled before t the clock stops at the earliest
// one (the caller quiesces the calendar first, so this is the exceptional
// path), and a jump into the past is ignored. Returns the resulting time.
func (q *Queue) AdvanceTo(t int64) int64 {
	if next, ok := q.NextAt(); ok && next < t {
		t = next
	}
	if t > q.now {
		q.now = t
		q.migrate()
	}
	return q.now
}

// Empty reports whether no events are pending.
func (q *Queue) Empty() bool { return q.n == 0 }

// Len returns the number of pending events.
func (q *Queue) Len() int { return q.n }

// Step pops and runs the earliest event, advancing the clock. It reports
// false when the calendar is empty.
func (q *Queue) Step() bool {
	if q.n == 0 {
		return false
	}
	var t int64
	if q.wheelN > 0 {
		idx := q.nextWheelBucket()
		b := &q.wheel[idx]
		t = b.items[b.head].at
	} else {
		t = q.overflow[0].at
	}
	if t > q.now {
		q.now = t
		q.migrate()
	}
	idx := int(t & wheelMask)
	b := &q.wheel[idx]
	ev := b.items[b.head]
	b.items[b.head] = timed{} // release closure/payload references
	b.head++
	if b.head == len(b.items) {
		b.items = b.items[:0]
		b.head = 0
		q.occ[idx>>6] &^= 1 << uint(idx&63)
	}
	q.wheelN--
	q.n--
	if ev.fn != nil {
		ev.fn(q.now)
	} else {
		ev.h.HandleEvent(q.now, ev.i, ev.p)
	}
	return true
}

// NextAt returns the cycle of the earliest pending event without running
// it, and false when the calendar is empty. The wheel, when populated,
// always holds the global minimum: overflow events live at or beyond the
// wheel horizon and are migrated in as the clock approaches them.
func (q *Queue) NextAt() (int64, bool) {
	if q.n == 0 {
		return 0, false
	}
	if q.wheelN > 0 {
		b := &q.wheel[q.nextWheelBucket()]
		return b.items[b.head].at, true
	}
	return q.overflow[0].at, true
}

// RunUntil pumps events until the calendar empties or the given predicate
// returns true (checked after every event). It returns the final time.
func (q *Queue) RunUntil(stop func() bool) int64 {
	for !stop() {
		if !q.Step() {
			break
		}
	}
	return q.now
}

// Drain pumps all remaining events.
func (q *Queue) Drain() int64 {
	for q.Step() {
	}
	return q.now
}

// Scheduler is the interface components use to talk to the calendar; both
// *Queue and test fakes satisfy it. At/After are the closure-based
// compatibility surface; Schedule is the zero-allocation typed path the
// hot loops use.
type Scheduler interface {
	Now() int64
	At(t int64, fn func(now int64))
	After(delay int64, fn func(now int64))
	Schedule(t int64, h Handler, i int64, p any)
}

var _ Scheduler = (*Queue)(nil)
