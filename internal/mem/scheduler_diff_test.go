package mem

import (
	"math/rand"
	"slices"
	"testing"

	"profess/internal/event"
)

// scanRef is the whole-queue FR-FCFS-Cap scheduler that the per-bank
// queues replaced, kept as the reference of
// TestSchedulerMatchesScanReference: one age-ordered queue of every waiting
// request, rescanned on each pick. It drives its own Channel's bank, bus
// and refresh state through the same issue and chargeSwap the scheduler
// uses, so only the queueing differs.
type scanRef struct {
	ch    *Channel // bank, bus and refresh state; its bank queues stay empty
	q     *event.Queue
	queue []*Request // waiting requests in age order
}

const (
	refEvComplete int64 = iota
	refEvDispatch
	refEvSwapDone
)

// refSwap is a pending swap completion of the reference.
type refSwap struct {
	done  event.Handler
	token int64
}

func (s *scanRef) Enqueue(r *Request) {
	now := s.q.Now()
	r.Arrival = now
	s.queue = append(s.queue, r)
	s.tryDispatch(now)
}

func (s *scanRef) Swap(m1Loc, m2Loc SwapLocation, done event.Handler, token int64) int64 {
	end := s.ch.chargeSwap(m1Loc, m2Loc, s.q.Now())
	s.q.Schedule(end, s, refEvSwapDone, &refSwap{done: done, token: token})
	return end
}

func (s *scanRef) HandleEvent(now int64, i int64, p any) {
	switch i {
	case refEvComplete:
		r := p.(*Request)
		s.ch.banks[r.Module][r.Bank].inflight = false
		r.Done.RequestDone(now, r)
	case refEvSwapDone:
		sw := p.(*refSwap)
		sw.done.HandleEvent(now, sw.token, nil)
	}
	s.tryDispatch(now)
}

func (s *scanRef) tryDispatch(now int64) {
	if now < s.ch.blockedUntil {
		s.q.Schedule(s.ch.blockedUntil, s, refEvDispatch, nil)
		return
	}
	for {
		idx := s.pick()
		if idx < 0 {
			return
		}
		r := s.queue[idx]
		s.queue = slices.Delete(s.queue, idx, idx+1)
		s.q.Schedule(s.ch.issue(now, r), s, refEvComplete, r)
	}
}

// pick returns the queue index to issue next, or -1 if nothing can issue:
// the oldest row hit in a bank under its hit cap, else the oldest request
// in a bank with nothing in flight.
func (s *scanRef) pick() int {
	firstReady := -1
	for i, r := range s.queue {
		b := &s.ch.banks[r.Module][r.Bank]
		if b.inflight {
			continue
		}
		if firstReady < 0 {
			firstReady = i
		}
		if b.openRow == r.Row && b.hitStreak < s.ch.cfg.RowHitCap {
			return i
		}
	}
	return firstReady
}

// doneLog records completions in firing order: requests by id, swaps by
// the negated token.
type doneLog struct {
	ids map[*Request]int64
	got [][2]int64 // (id, cycle)
}

func (l *doneLog) RequestDone(now int64, r *Request) {
	l.got = append(l.got, [2]int64{l.ids[r], now})
}

func (l *doneLog) HandleEvent(now int64, token int64, _ any) {
	l.got = append(l.got, [2]int64{-token, now})
}

func (l *doneLog) request(id int64, k Kind, bank int, row int64, write bool) *Request {
	r := &Request{Module: k, Bank: bank, Row: row, IsWrite: write, Core: int(id % 3), Done: l}
	l.ids[r] = id
	return r
}

// TestSchedulerMatchesScanReference drives the per-bank scheduler and the
// whole-queue reference with one seeded random stream — enqueues to both
// modules and every bank with repeated rows and writes, swaps, and clock
// advances short and long enough to cross refresh windows — and requires
// the same completions in the same order at the same cycles, and the same
// bank, bus and counter state, after every operation and every event.
// Completion order is issue order: the shared bus serialises bursts.
func TestSchedulerMatchesScanReference(t *testing.T) {
	for _, hitCap := range []int{1, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			diffScheduler(t, hitCap, seed, 20000)
		}
	}
}

// bankTiming is a bank's state without its queue, which the reference
// leaves empty.
type bankTiming struct {
	openRow, busyUntil, writeRecoveryUntil int64
	hitStreak                              int
	inflight                               bool
	refreshSeen, refClearAt, refNextAt     int64
}

func timingOf(b *bank) bankTiming {
	return bankTiming{b.openRow, b.busyUntil, b.writeRecoveryUntil, b.hitStreak, b.inflight,
		b.refreshSeen, b.refClearAt, b.refNextAt}
}

func diffScheduler(t *testing.T, hitCap int, seed int64, ops int) {
	t.Helper()
	cfg := DefaultChannelConfig(2<<20, 16<<20)
	cfg.RowHitCap = hitCap
	qa, qb := &event.Queue{}, &event.Queue{}
	ch := NewChannel(cfg, qa)
	ref := &scanRef{ch: NewChannel(cfg, qb), q: qb}
	la := &doneLog{ids: map[*Request]int64{}}
	lb := &doneLog{ids: map[*Request]int64{}}
	refi := cfg.M1Timing.TREFI
	rng := rand.New(rand.NewSource(seed))
	var id int64
	seen := 0 // completions already compared

	check := func(op int, what string) {
		t.Helper()
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("cap %d seed %d op %d (%s) at cycle %d: "+format,
				append([]any{hitCap, seed, op, what, qa.Now()}, args...)...)
		}
		if qa.Now() != qb.Now() || qa.Len() != qb.Len() {
			fail("calendar (now %d, len %d) vs reference (now %d, len %d)", qa.Now(), qa.Len(), qb.Now(), qb.Len())
		}
		if !slices.Equal(la.got[seen:], lb.got[min(seen, len(lb.got)):]) {
			fail("completions from #%d: got %v, reference %v", seen, la.got[seen:], lb.got[min(seen, len(lb.got)):])
		}
		seen = len(la.got)
		a, b := ch, ref.ch
		if a.Counts != b.Counts {
			fail("counts %+v, reference %+v", a.Counts, b.Counts)
		}
		if a.QueueLen() != len(ref.queue) || a.busFreeAt != b.busFreeAt || a.blockedUntil != b.blockedUntil ||
			a.BusBusyCycles != b.BusBusyCycles || a.refCounted != b.refCounted {
			fail("channel state differs: %v vs reference queue=%d busFree=%d blocked=%d",
				a, len(ref.queue), b.busFreeAt, b.blockedUntil)
		}
		for k := range a.banks {
			for i := range a.banks[k] {
				if x, y := timingOf(&a.banks[k][i]), timingOf(&b.banks[k][i]); x != y {
					fail("%v bank %d: %+v, reference %+v", Kind(k), i, x, y)
				}
			}
		}
	}

	for op := 0; op < ops; op++ {
		switch x := rng.Intn(100); {
		case x < 55:
			id++
			k, bank, row, write := Kind(rng.Intn(2)), rng.Intn(16), int64(rng.Intn(4)), rng.Intn(4) == 0
			ch.Enqueue(la.request(id, k, bank, row, write))
			ref.Enqueue(lb.request(id, k, bank, row, write))
			check(op, "enqueue")
		case x < 57:
			id++
			m1 := SwapLocation{Module: M1, Bank: rng.Intn(16), Row: int64(rng.Intn(4))}
			m2 := SwapLocation{Module: M2, Bank: rng.Intn(16), Row: int64(rng.Intn(4))}
			ch.Swap(m1, m2, la, id)
			ref.Swap(m1, m2, lb, id)
			check(op, "swap")
		default:
			gap := rng.Int63n(200)
			if x == 99 {
				gap = rng.Int63n(3 * refi) // cross refresh windows
			}
			target := qa.Now() + gap
			for {
				next, ok := qa.NextAt()
				if !ok || next > target {
					break
				}
				qa.Step()
				qb.Step()
				check(op, "event")
			}
			qa.AdvanceTo(target)
			qb.AdvanceTo(target)
			check(op, "advance")
		}
	}
	qa.Drain()
	qb.Drain()
	check(ops, "drain")
	if !slices.Equal(ch.m2RowWrites, ref.ch.m2RowWrites) {
		t.Fatalf("cap %d seed %d: M2 wear tallies differ", hitCap, seed)
	}
	if ch.QueueLen() != 0 || !ch.Quiesced() {
		t.Fatalf("cap %d seed %d: channel not quiesced after drain: %v", hitCap, seed, ch)
	}
	if ch.Counts.Refreshes[M1] < 10 {
		t.Fatalf("cap %d seed %d: only %d refresh windows crossed", hitCap, seed, ch.Counts.Refreshes[M1])
	}
}
