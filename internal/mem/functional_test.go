package mem

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"profess/internal/event"
)

// TestFunctionalAccessMatchesIssue pins the one bank-timing model that the
// detailed and the fast-forward paths share. Two channels built from one
// configuration (M1 refresh on) take the same seeded sequence of isolated
// accesses, each arriving once the data bus and every bank of both
// channels are free: one channel through Enqueue and the event queue, the
// other through FunctionalAccess at the same cycle. With nothing queued
// and no swap blocking, the backlog clamp is all that sets the functional
// path apart. So every functional latency must equal the event path's
// completion minus its arrival; the event counts, the M2 wear tallies and
// every bank's open row must agree after each access; and the accessed
// bank's horizons and the bus's must be the event path's, cut at the
// clamp's bound. A write's recovery may still be pending when the next
// access arrives, so conflicts pay it, except where the clamp cut it on
// the functional channel: then the next access waits it out.
func TestFunctionalAccessMatchesIssue(t *testing.T) {
	cfg := DefaultChannelConfig(2<<20, 16<<20)
	m1 := cfg.M1Timing
	if m1.TREFI == 0 {
		t.Fatal("M1 must refresh for the sequence to cover refresh stalls")
	}
	q := &event.Queue{}
	ev := NewChannel(cfg, q)
	fn := NewChannel(cfg, &event.Queue{})
	rng := rand.New(rand.NewSource(1))
	at, stalls, recovering := int64(0), 0, 0
	for i := 0; i < 3000; i++ {
		for k := range ev.banks {
			for j := range ev.banks[k] {
				e, f := &ev.banks[k][j], &fn.banks[k][j]
				at = max(at, e.busyUntil, f.busyUntil)
				if e.writeRecoveryUntil != f.writeRecoveryUntil {
					at = max(at, e.writeRecoveryUntil, f.writeRecoveryUntil)
				}
			}
		}
		at = max(at, ev.busFreeAt, fn.busFreeAt) + rng.Int63n(3000)
		k := Kind(rng.Intn(2))
		r := &Request{Module: k, Bank: rng.Intn(cfg.Geom(k).Banks), Row: rng.Int63n(8), IsWrite: rng.Intn(3) == 0}
		if k == M1 && at >= m1.TREFI && at%m1.TREFI < m1.TRFC {
			stalls++
		}
		if b := &ev.banks[k][r.Bank]; b.openRow >= 0 && b.openRow != r.Row && b.writeRecoveryUntil > at {
			recovering++
		}
		done := int64(-1)
		r.Done = doneAt(func(now int64) { done = now })
		q.Schedule(at, call(func(int64) { ev.Enqueue(r) }), 0, nil)
		q.Drain()
		lat := fn.FunctionalAccess(r.Module, r.Bank, r.Row, r.IsWrite, at)
		what := func() string {
			return fmt.Sprintf("access %d (%v bank %d row %d write %v at cycle %d)", i, r.Module, r.Bank, r.Row, r.IsWrite, at)
		}
		if done < 0 || r.Arrival != at {
			t.Fatalf("%s: event path arrived at %d and completed at %d", what(), r.Arrival, done)
		}
		if lat != done-at {
			t.Fatalf("%s: functional latency %d, event path %d", what(), lat, done-at)
		}
		tk := cfg.Timing(k)
		lead := at + tk.TRP + tk.TRCD + tk.CL + tk.Burst + tk.TWR
		e, f := &ev.banks[k][r.Bank], &fn.banks[k][r.Bank]
		if fn.busFreeAt != min(ev.busFreeAt, lead) || f.busyUntil != min(e.busyUntil, lead) ||
			(r.IsWrite && f.writeRecoveryUntil != min(e.writeRecoveryUntil, lead)) {
			t.Fatalf("%s: functional horizons (bus %d, bank %d, write recovery %d) are not the event path's (%d, %d, %d) cut at %d",
				what(), fn.busFreeAt, f.busyUntil, f.writeRecoveryUntil, ev.busFreeAt, e.busyUntil, e.writeRecoveryUntil, lead)
		}
		if ev.Counts != fn.Counts {
			t.Fatalf("%s: counts differ\nevent:      %+v\nfunctional: %+v", what(), ev.Counts, fn.Counts)
		}
		if !slices.Equal(ev.m2RowWrites, fn.m2RowWrites) {
			t.Fatalf("%s: M2 wear tallies differ", what())
		}
		for k := range ev.banks {
			for j := range ev.banks[k] {
				if e, f := ev.banks[k][j].openRow, fn.banks[k][j].openRow; e != f {
					t.Fatalf("%s: %v bank %d open row %d on the event path, %d on the functional path", what(), Kind(k), j, e, f)
				}
			}
		}
	}
	c := ev.Counts
	if stalls == 0 || recovering == 0 || c.Refreshes[M1] == 0 || c.Precharges[M1] == 0 || c.Precharges[M2] == 0 ||
		c.RowHits[M1] == 0 || c.RowHits[M2] == 0 || c.Writes[M1] == 0 || c.Writes[M2] == 0 {
		t.Errorf("the sequence missed a case: %d refresh stalls, %d conflicts inside write recovery, counts %+v", stalls, recovering, c)
	}
}
