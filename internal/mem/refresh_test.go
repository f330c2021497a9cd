package mem

import (
	"testing"
)

func TestRefreshStallsRequests(t *testing.T) {
	ch, q := newTestChannel()
	tm := ch.Config().M1Timing
	if tm.TREFI == 0 {
		t.Fatal("M1 must have refresh enabled by default")
	}
	// Land a request just inside the second refresh window.
	var done int64
	q.Schedule(tm.TREFI+1, call(func(now int64) {
		ch.Enqueue(&Request{Module: M1, Bank: 0, Row: 1, Done: doneAt(func(n int64) { done = n })})
	}), 0, nil)
	q.Drain()
	minDone := tm.TREFI + tm.TRFC + tm.TRCD + tm.CL + tm.Burst
	if done < minDone {
		t.Errorf("request inside refresh window done at %d, want >= %d", done, minDone)
	}
	if ch.Counts.Refreshes[M1] == 0 {
		t.Error("refresh windows not counted")
	}
}

func TestRefreshClosesRows(t *testing.T) {
	ch, q := newTestChannel()
	tm := ch.Config().M1Timing
	runOne(t, ch, q, &Request{Module: M1, Bank: 0, Row: 5}) // opens row 5
	// Re-access the same row after a refresh interval: must be a miss.
	misses := ch.Counts.RowMisses[M1]
	var fired bool
	q.Schedule(tm.TREFI+tm.TRFC+10, call(func(now int64) {
		fired = true
		ch.Enqueue(&Request{Module: M1, Bank: 0, Row: 5})
	}), 0, nil)
	q.Drain()
	if !fired {
		t.Fatal("scheduling failed")
	}
	if ch.Counts.RowMisses[M1] != misses+1 {
		t.Error("refresh should have closed the open row")
	}
}

func TestM2HasNoRefresh(t *testing.T) {
	ch, q := newTestChannel()
	tm := ch.Config().M2Timing
	if tm.TREFI != 0 {
		t.Fatal("M2 must not refresh (Table 8)")
	}
	m1refi := ch.Config().M1Timing.TREFI
	runOne(t, ch, q, &Request{Module: M2, Bank: 0, Row: 5})
	misses := ch.Counts.RowMisses[M2]
	q.Schedule(3*m1refi, call(func(now int64) {
		ch.Enqueue(&Request{Module: M2, Bank: 0, Row: 5})
	}), 0, nil)
	q.Drain()
	if ch.Counts.RowMisses[M2] != misses {
		t.Error("M2 row should survive (no refresh): expected a row hit")
	}
	if ch.Counts.Refreshes[M2] != 0 {
		t.Error("M2 refreshes counted")
	}
}

func TestRefreshDoesNotAffectTimeZero(t *testing.T) {
	ch, q := newTestChannel()
	tm := ch.Config().M1Timing
	lat := runOne(t, ch, q, &Request{Module: M1, Bank: 0, Row: 1})
	if want := tm.TRCD + tm.CL + tm.Burst; lat != want {
		t.Errorf("time-zero latency %d, want %d (window 0 never stalls)", lat, want)
	}
}
