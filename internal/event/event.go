// Package event implements the discrete-event engine at the heart of the
// simulator: a monotonic clock plus a calendar of pending work. Components
// (cores, memory channels, the migration machinery) schedule future work
// with Schedule and the driver pumps events with Step/RunUntil.
//
// # Engine
//
// The calendar is a hierarchical timing wheel: events within the near
// horizon (wheelSize cycles) land in per-cycle buckets addressed by
// t mod wheelSize, and events beyond it wait in a typed overflow min-heap
// that is migrated into the wheel as the clock advances. A bucket is a
// FIFO of nodes linked by index through one pooled node array with a free
// list, so the wheel's memory is the peak number of pending events, not
// the peak depth of every bucket, and pushing and popping an event
// performs no heap allocation in steady state.
//
// # Dispatch
//
// An event is a typed dispatch: h.HandleEvent(now, i, p) on a pre-bound
// long-lived Handler with a small tagged payload. Scheduling one allocates
// nothing.
//
// # Determinism
//
// Events fire in (time, insertion order). Within a wheel bucket insertion
// order is FIFO order; the overflow heap orders by (at, seq); and
// migration drains the heap in that order before any same-cycle event can
// be inserted directly, so the global dispatch order is exactly the order
// a single sorted calendar would produce.
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

// timed is one beyond-horizon event, stored by value in the overflow heap.
type timed struct {
	at  int64
	seq int64 // insertion order breaks ties for determinism
	h   Handler
	i   int64
	p   any
}

// node is one in-horizon event in the pooled node array. A node needs no
// time: every event in a bucket fires on the bucket's one cycle.
type node struct {
	h    Handler
	p    any
	i    int64
	next int32 // next node of the bucket, or of the free list; 0 ends it
}

// fifo is one bucket: the first and last node of its events (0 = empty).
type fifo struct{ head, tail int32 }

// Queue is a discrete-event calendar. The zero value is ready to use.
type Queue struct {
	now int64
	seq int64 // overflow insertions so far; orders same-cycle overflow events
	n   int   // total pending events (wheel + overflow)

	wheel    []fifo   // wheelSize buckets, allocated on first insert
	occ      []uint64 // occupancy bitmap over buckets
	nodes    []node   // node pool; nodes[0] is the nil sentinel
	free     int32    // head of the free-node list
	wheelN   int      // events currently in the wheel
	overflow []timed  // min-heap on (at, seq) for beyond-horizon events
	scratch  []timed  // reusable staging area for overflow→wheel migration
}

// Now returns the current simulation time in cycles.
func (q *Queue) Now() int64 { return q.now }

// Schedule arms a typed event: at cycle t, h receives HandleEvent(now, i,
// p). Scheduling in the past (t < Now) clamps to the current time: the
// event fires at Now, after every event already scheduled for Now
// (insertion order still breaks the tie), preserving the clock's
// monotonicity.
func (q *Queue) Schedule(t int64, h Handler, i int64, p any) {
	if t < q.now {
		t = q.now
	}
	q.n++
	if t < q.now+wheelSize {
		q.pushWheel(t, h, i, p)
		return
	}
	q.seq++
	q.pushOverflow(timed{at: t, seq: q.seq, h: h, i: i, p: p})
}

// pushWheel appends an in-horizon event to its bucket's FIFO.
func (q *Queue) pushWheel(t int64, h Handler, i int64, p any) {
	if q.wheel == nil {
		q.wheel = make([]fifo, wheelSize)
		q.occ = make([]uint64, occWords)
		q.nodes = make([]node, 1) // the nil sentinel
	}
	x := q.free
	if x != 0 {
		q.free = q.nodes[x].next
	} else {
		x = int32(len(q.nodes))
		q.nodes = append(q.nodes, node{})
	}
	nd := &q.nodes[x]
	nd.h, nd.p, nd.i, nd.next = h, p, i, 0
	idx := int(t & wheelMask)
	b := &q.wheel[idx]
	if b.head == 0 {
		b.head = x
		q.occ[idx>>6] |= 1 << uint(idx&63)
	} else {
		q.nodes[b.tail].next = x
	}
	b.tail = x
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
// reusable staging slice, sorted once, and appended to their buckets, so a
// batch of k far-future events coming due together (refresh windows,
// telemetry epochs of a large config) costs one sort instead of k heap
// pops.
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
	clear(q.overflow[len(keep):])
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
	for i := range sc {
		q.pushWheel(sc[i].at, sc[i].h, sc[i].i, sc[i].p)
	}
	// Zero the staging slots so retained capacity holds no payloads.
	clear(sc)
	q.scratch = sc[:0]
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

// bucketTime returns the cycle of the events in bucket idx. Every wheel
// event lies in [now, now+wheelSize), where each cycle has its own bucket.
func (q *Queue) bucketTime(idx int) int64 {
	return q.now + int64((idx-int(q.now&wheelMask))&wheelMask)
}

// Reset rewinds the calendar to its zero state — clock at cycle 0, no
// pending events, insertion counter restarted — while keeping the wheel,
// node pool, overflow heap and staging slice allocated for reuse. Pending
// events are dropped, with their payload references zeroed so retained
// capacity pins nothing. A reset queue is indistinguishable from a fresh
// one to every scheduler client; the simulation-state arena relies on
// this to re-run a machine in place.
func (q *Queue) Reset() {
	if q.wheelN > 0 {
		for w := range q.occ {
			for word := q.occ[w]; word != 0; word &= word - 1 {
				q.wheel[w<<6+bits.TrailingZeros64(word)] = fifo{}
			}
			q.occ[w] = 0
		}
	}
	clear(q.nodes)
	q.nodes = q.nodes[:min(len(q.nodes), 1)]
	q.free = 0
	clear(q.overflow)
	q.overflow = q.overflow[:0]
	clear(q.scratch)
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
		t = q.bucketTime(q.nextWheelBucket())
	} else {
		t = q.overflow[0].at
	}
	if t > q.now {
		q.now = t
		q.migrate()
	}
	idx := int(t & wheelMask)
	b := &q.wheel[idx]
	x := b.head
	nd := &q.nodes[x]
	h, i, p := nd.h, nd.i, nd.p
	b.head = nd.next
	if b.head == 0 {
		b.tail = 0
		q.occ[idx>>6] &^= 1 << uint(idx&63)
	}
	nd.h, nd.p, nd.next = nil, nil, q.free // release payload references
	q.free = x
	q.wheelN--
	q.n--
	h.HandleEvent(q.now, i, p)
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
		return q.bucketTime(q.nextWheelBucket()), true
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
// *Queue and test fakes satisfy it.
type Scheduler interface {
	Now() int64
	Schedule(t int64, h Handler, i int64, p any)
}

var _ Scheduler = (*Queue)(nil)
