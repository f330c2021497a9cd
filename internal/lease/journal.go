// Package lease keeps a sweep's ownership and its progress log in one
// file: an append-only JSONL journal per sweep plan, recording
// claimed/done/failed cell transitions keyed by run key. The process
// executing a plan holds an exclusive flock(2) on the plan's journal for
// the whole sweep, so one process at a time executes a plan, and the
// kernel drops the lock the moment its holder exits or dies.
//
// The journal is advisory: the simulation results live in the
// content-addressed run cache, whose writes are atomic and idempotent,
// and a later process resumes by skipping the cells whose results the
// cache holds, not by reading the journal. A lost record or a lock a
// filesystem does not honour costs duplicated work, never wrong results.
// ReadJournal serves tools that audit or trace a sweep. flock makes the
// package Unix-only.
package lease

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"syscall"
	"time"
)

// Status is a journal record's cell transition.
type Status string

const (
	// StatusClaimed marks a worker starting (an attempt at) a cell. A
	// claimed record with no matching done/failed means the worker died
	// mid-cell.
	StatusClaimed Status = "claimed"
	// StatusDone marks a cell completed, its result durable in the run
	// cache.
	StatusDone Status = "done"
	// StatusFailed marks one failed attempt at a cell.
	StatusFailed Status = "failed"
)

// Record is one journal line.
type Record struct {
	Key     string `json:"key"`
	Status  Status `json:"status"`
	Owner   string `json:"owner"`
	Attempt int    `json:"attempt,omitempty"`
	Err     string `json:"err,omitempty"`
	// Nanos is the wall-clock timestamp (UnixNano). The chaos harness
	// audits that the claimed→done intervals of different owners never
	// overlap.
	Nanos int64 `json:"t"`
}

// lockRetry is how often OpenJournal retries a lock another process
// holds.
const lockRetry = 100 * time.Millisecond

// Journal is one sweep plan's journal, opened for appending and held
// under an exclusive lock until Close.
type Journal struct {
	mu    sync.Mutex
	f     *os.File
	owner string
}

// OpenJournal opens (creating if needed) the journal at path and takes an
// exclusive flock on it, waiting while another process (or another open
// Journal) holds it; if ctx ends first it returns ctx.Err(). With fresh
// set it truncates the journal under the lock. The file is never
// unlinked: a second process could then lock a new file at the same path
// and two holders would coexist.
func OpenJournal(ctx context.Context, path string, fresh bool) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("lease: journal: %w", err)
	}
	if err := lock(ctx, f); err != nil {
		f.Close()
		return nil, err
	}
	if fresh {
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, fmt.Errorf("lease: journal truncate: %w", err)
		}
	}
	return &Journal{f: f, owner: newOwner()}, nil
}

// lock takes an exclusive flock on f, retrying every lockRetry while it
// is held elsewhere, until ctx ends.
func lock(ctx context.Context, f *os.File) error {
	tick := time.NewTicker(lockRetry)
	defer tick.Stop()
	for {
		err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
		if err == nil {
			return nil
		}
		if !errors.Is(err, syscall.EWOULDBLOCK) {
			return fmt.Errorf("lease: lock %s: %w", f.Name(), err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// newOwner builds an owner id unique among live journal holders:
// host:pid:nonce.
func newOwner() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "unknown"
	}
	var nonce [4]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return fmt.Sprintf("%s:%d:t%d", host, os.Getpid(), time.Now().UnixNano())
	}
	return fmt.Sprintf("%s:%d:%s", host, os.Getpid(), hex.EncodeToString(nonce[:]))
}

// Append writes one record, stamping this Journal's owner id and the
// time where they are unset.
func (j *Journal) Append(r Record) error {
	if r.Owner == "" {
		r.Owner = j.owner
	}
	if r.Nanos == 0 {
		r.Nanos = time.Now().UnixNano()
	}
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("lease: journal record: %w", err)
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("lease: journal append: %w", err)
	}
	return nil
}

// Close closes the journal, releasing its lock.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// ReadJournal reads a journal's complete records. Unparseable complete
// lines are skipped, and so is a torn final line, the trace of a write
// cut by a crash.
func ReadJournal(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	data = data[:bytes.LastIndexByte(data, '\n')+1]
	var recs []Record
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var r Record
		if json.Unmarshal(line, &r) != nil {
			continue
		}
		recs = append(recs, r)
	}
	return recs, nil
}
