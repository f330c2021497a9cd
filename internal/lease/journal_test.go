package lease

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// openTestJournal opens a journal at path, failing the test on error, and
// closes it when the test ends.
func openTestJournal(t *testing.T, path string) *Journal {
	t.Helper()
	j, err := OpenJournal(context.Background(), path, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

func TestJournalAppendTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j := openTestJournal(t, path)

	recs := []Record{
		{Key: "a", Status: StatusClaimed, Owner: "o1", Attempt: 0},
		{Key: "a", Status: StatusDone, Owner: "o1"},
		{Key: "b", Status: StatusFailed, Owner: "o1", Attempt: 1, Err: "boom"},
		{Key: "c", Status: StatusClaimed},
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("ReadJournal returned %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Key != recs[i].Key || got[i].Status != recs[i].Status || got[i].Err != recs[i].Err {
			t.Errorf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
		if got[i].Nanos == 0 {
			t.Errorf("record %d missing timestamp", i)
		}
	}
	if got[0].Owner != "o1" {
		t.Errorf("explicit owner rewritten to %q", got[0].Owner)
	}
	if got[3].Owner == "" || got[3].Owner == "o1" {
		t.Errorf("unset owner stamped as %q, want the journal's own id", got[3].Owner)
	}
}

// TestJournalTornTail pins the crash contract: a record whose write was
// cut mid-line is invisible — skipped, not an error — and so is a corrupt
// complete line; neither hides the records around it.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j := openTestJournal(t, path)
	if err := j.Append(Record{Key: "a", Status: StatusDone, Owner: "o1"}); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("not json\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := j.Append(Record{Key: "b", Status: StatusDone, Owner: "o1"}); err != nil {
		t.Fatal(err)
	}
	// A torn write: half a record, no newline.
	f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"c","sta`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Key != "a" || got[1].Key != "b" {
		t.Fatalf("ReadJournal over a corrupt line and a torn tail = %+v, want a and b", got)
	}
}

// TestJournalConcurrentAppend exercises many goroutines appending through
// one handle, as a sweep's workers do; every record must come back
// line-whole.
func TestJournalConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j := openTestJournal(t, path)

	const writers, perWriter = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			owner := fmt.Sprintf("o%d", w)
			for i := 0; i < perWriter; i++ {
				if err := j.Append(Record{Key: "k", Status: StatusClaimed, Owner: owner, Attempt: i}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	recs, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != writers*perWriter {
		t.Fatalf("read %d records, want %d (torn or interleaved writes)", len(recs), writers*perWriter)
	}
	seen := map[string]map[int]bool{}
	for _, r := range recs {
		if seen[r.Owner] == nil {
			seen[r.Owner] = map[int]bool{}
		}
		seen[r.Owner][r.Attempt] = true
	}
	if len(seen) != writers {
		t.Errorf("%d distinct owners, want %d", len(seen), writers)
	}
	for owner, m := range seen {
		if len(m) != perWriter {
			t.Errorf("%s: %d distinct records, want %d", owner, len(m), perWriter)
		}
	}
}

// TestJournalLockExcludes pins the plan lock: while one Journal is open a
// second OpenJournal waits and gives up with its context's error, touching
// nothing; once the holder closes, the waiter gets the lock; and fresh
// truncates the same file in place rather than replacing it.
func TestJournalLockExcludes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.jsonl")
	j1, err := OpenJournal(context.Background(), path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j1.Append(Record{Key: "a", Status: StatusDone}); err != nil {
		t.Fatal(err)
	}
	st1, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 3*lockRetry)
	defer cancel()
	if _, err := OpenJournal(ctx, path, true); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("open of a held journal = %v, want context.DeadlineExceeded", err)
	}
	if recs, err := ReadJournal(path); err != nil || len(recs) != 1 {
		t.Fatalf("refused fresh open left %d records (%v), want the holder's 1", len(recs), err)
	}

	type opened struct {
		j   *Journal
		err error
	}
	waiter := make(chan opened, 1)
	go func() {
		j, err := OpenJournal(context.Background(), path, false)
		waiter <- opened{j, err}
	}()
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	var j2 *Journal
	select {
	case o := <-waiter:
		if o.err != nil {
			t.Fatal(o.err)
		}
		j2 = o.j
	case <-time.After(10 * time.Second):
		t.Fatal("waiter never got the released lock")
	}
	if err := j2.Append(Record{Key: "b", Status: StatusDone}); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadJournal(path)
	if err != nil || len(recs) != 2 {
		t.Fatalf("after handover: %d records (%v), want 2", len(recs), err)
	}
	if recs[0].Owner == recs[1].Owner {
		t.Errorf("two holders share the owner id %q", recs[0].Owner)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	j3, err := OpenJournal(context.Background(), path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	st3, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(st1, st3) {
		t.Error("fresh open replaced the journal file; a second process could lock the old one")
	}
	if recs, err := ReadJournal(path); err != nil || len(recs) != 0 {
		t.Errorf("fresh open kept %d records (%v), want 0", len(recs), err)
	}
}
