// Package lease coordinates crash-safe, multi-process sweep execution
// through two durable primitives kept under a shared directory (in
// practice the persistent run-cache directory):
//
//   - Leases: per-cell claim files created with O_CREATE|O_EXCL, so
//     exactly one process owns a cell at a time across every process —
//     and every host, when the directory is shared — pointed at the same
//     sweep. A lease carries its owner id and plan hash; the owner's
//     manager refreshes the file's mtime on a heartbeat, and a lease
//     whose mtime is older than the TTL belongs to a presumed-dead owner
//     and may be taken over. Takeover checks, removes and re-creates the
//     stale file as one step under an exclusive flock(2) on the lease
//     directory, so two processes can never both "clean up" a stale
//     lease and both claim the cell. flock makes the package Unix-only.
//
//   - A journal: an append-only JSONL file per sweep recording
//     claimed/done/failed cell transitions keyed by run key. Every
//     worker process appends to the same journal (O_APPEND, one write
//     per record) and tail-reads it to learn what other workers have
//     completed, so any process can join a sweep in flight or resume one
//     whose workers were killed, skipping completed cells.
//
// Both primitives are advisory and self-healing: the simulation results
// themselves live in the content-addressed run cache whose writes are
// idempotent (two owners racing the same cell at worst write the same
// bytes), so lease loss or journal corruption costs duplicated work,
// never wrong results.
package lease

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// ErrHeld reports that a lease is currently held by another live owner
// (its file exists and its heartbeat is within the TTL).
var ErrHeld = errors.New("lease: held by a live owner")

// DefaultTTL is how stale a lease's heartbeat may grow before other
// processes may presume its owner dead and take the cell over.
const DefaultTTL = 10 * time.Second

// Options configures a Manager.
type Options struct {
	// Dir is the lease directory, created if missing.
	Dir string
	// Owner uniquely identifies this process ("host:pid:nonce" when
	// empty). It is written into every lease file for the operational
	// post-mortem: `cat` a stuck lease to see who held it.
	Owner string
	// Plan tags every lease this manager creates with the sweep (plan
	// hash) it belongs to.
	Plan string
	// TTL is the takeover threshold (DefaultTTL when zero).
	TTL time.Duration
	// Heartbeat is the refresh period (TTL/4 when zero). It must stay
	// well under TTL or live owners will be presumed dead.
	Heartbeat time.Duration
}

// info is the lease file's JSON payload. Liveness is carried by the
// file's mtime, not the payload; the payload exists for humans and for
// the chaos harness's audits.
type info struct {
	Owner string    `json:"owner"`
	Plan  string    `json:"plan,omitempty"`
	Start time.Time `json:"start"`
}

// Manager acquires and heartbeats leases for one owner process.
type Manager struct {
	dir   string
	owner string
	plan  string
	ttl   time.Duration
	beat  time.Duration

	mu   sync.Mutex
	held map[string]*Lease

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// Lease is one held cell claim.
type Lease struct {
	m    *Manager
	key  string
	path string
	// stolen reports the lease was acquired by expiring a dead owner's
	// claim rather than by fresh creation.
	stolen bool

	mu   sync.Mutex
	lost bool // the file vanished under us: we were presumed dead
	rel  bool
}

// defaultOwner builds a unique owner id.
func defaultOwner() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "unknown"
	}
	var nonce [4]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		// Fall back to the start time; uniqueness only needs to hold
		// across concurrently-live processes on one directory.
		return fmt.Sprintf("%s:%d:t%d", host, os.Getpid(), time.Now().UnixNano())
	}
	return fmt.Sprintf("%s:%d:%s", host, os.Getpid(), hex.EncodeToString(nonce[:]))
}

// NewManager creates the lease directory if needed and starts the
// heartbeat loop.
func NewManager(o Options) (*Manager, error) {
	if o.Dir == "" {
		return nil, errors.New("lease: empty directory")
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("lease: dir: %w", err)
	}
	if o.Owner == "" {
		o.Owner = defaultOwner()
	}
	if o.TTL <= 0 {
		o.TTL = DefaultTTL
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = o.TTL / 4
	}
	m := &Manager{
		dir:   o.Dir,
		owner: o.Owner,
		plan:  o.Plan,
		ttl:   o.TTL,
		beat:  o.Heartbeat,
		held:  map[string]*Lease{},
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go m.heartbeat()
	return m, nil
}

// Owner returns the manager's owner id.
func (m *Manager) Owner() string { return m.owner }

// TTL returns the takeover threshold.
func (m *Manager) TTL() time.Duration { return m.ttl }

// path maps a cell key to its lease file. Keys are run-cache content
// hashes (hex), but stay defensive about separators anyway.
func (m *Manager) path(key string) string {
	key = strings.Map(func(r rune) rune {
		switch r {
		case '/', '\\', ':':
			return '_'
		}
		return r
	}, key)
	return filepath.Join(m.dir, key+".lease")
}

// Acquire claims the cell, returning ErrHeld while another live owner
// holds it. A claim whose heartbeat has expired is taken over (see
// takeover); the returned lease then reports Stolen.
func (m *Manager) Acquire(key string) (*Lease, error) {
	path := m.path(key)
	l, err := m.create(key, path, false)
	if errors.Is(err, fs.ErrExist) {
		return m.takeover(key, path)
	}
	return l, err
}

// create claims the cell by creating its lease file with O_EXCL. The
// error wraps fs.ErrExist when the file is already there.
func (m *Manager) create(key, path string, stolen bool) (*Lease, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("lease: create %s: %w", path, err)
	}
	payload, merr := json.Marshal(info{Owner: m.owner, Plan: m.plan, Start: time.Now().UTC()})
	if merr == nil {
		_, merr = f.Write(append(payload, '\n'))
	}
	if cerr := f.Close(); merr == nil {
		merr = cerr
	}
	if merr != nil {
		os.Remove(path)
		return nil, fmt.Errorf("lease: write %s: %w", path, merr)
	}
	l := &Lease{m: m, key: key, path: path, stolen: stolen}
	m.mu.Lock()
	m.held[key] = l
	m.mu.Unlock()
	return l, nil
}

// takeover claims a cell whose lease file existed at create time. The
// check, the removal of an expired file and the create run as one step
// under an exclusive flock on the lease directory, so of several
// claimants that saw the same expired file exactly one wins, and none
// can remove a lease another claimant has just created. The kernel
// drops the lock when the descriptor closes or the claimant dies, and
// the lock leaves no file behind.
func (m *Manager) takeover(key, path string) (*Lease, error) {
	dir, err := os.Open(m.dir)
	if err != nil {
		return nil, fmt.Errorf("lease: lock %s: %w", m.dir, err)
	}
	defer dir.Close()
	if err := syscall.Flock(int(dir.Fd()), syscall.LOCK_EX); err != nil {
		return nil, fmt.Errorf("lease: lock %s: %w", m.dir, err)
	}
	stolen := false
	st, err := os.Stat(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// The holder released since create: claim the cell afresh.
	case err != nil:
		return nil, fmt.Errorf("lease: takeover %s: %w", path, err)
	case time.Since(st.ModTime()) <= m.ttl:
		return nil, ErrHeld
	default:
		if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("lease: takeover %s: %w", path, err)
		}
		stolen = true
	}
	l, err := m.create(key, path, stolen)
	if errors.Is(err, fs.ErrExist) {
		// A fresh claimant, which takes no lock, got there first.
		return nil, ErrHeld
	}
	return l, err
}

// heartbeat refreshes the mtime of every held lease until Close.
func (m *Manager) heartbeat() {
	defer close(m.done)
	t := time.NewTicker(m.beat)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
		}
		now := time.Now()
		m.mu.Lock()
		leases := make([]*Lease, 0, len(m.held))
		for _, l := range m.held {
			leases = append(leases, l)
		}
		m.mu.Unlock()
		for _, l := range leases {
			if err := os.Chtimes(l.path, now, now); err != nil {
				if errors.Is(err, fs.ErrNotExist) {
					// The file vanished: another process presumed this
					// one dead and took the cell over. Stop claiming it.
					l.mu.Lock()
					l.lost = true
					l.mu.Unlock()
					m.mu.Lock()
					if m.held[l.key] == l {
						delete(m.held, l.key)
					}
					m.mu.Unlock()
				}
				// Other refresh errors are transient; the TTL gives the
				// next beat headroom to catch up.
			}
		}
	}
}

// Close stops the heartbeat and releases every lease still held. It is
// idempotent.
func (m *Manager) Close() error {
	m.stopOnce.Do(func() { close(m.stop) })
	<-m.done
	m.mu.Lock()
	leases := make([]*Lease, 0, len(m.held))
	for _, l := range m.held {
		leases = append(leases, l)
	}
	m.mu.Unlock()
	var err error
	for _, l := range leases {
		if rerr := l.Release(); rerr != nil && err == nil {
			err = rerr
		}
	}
	return err
}

// Key returns the leased cell key.
func (l *Lease) Key() string { return l.key }

// Stolen reports whether this claim took over an expired lease.
func (l *Lease) Stolen() bool { return l.stolen }

// Lost reports whether the lease file vanished under us (this owner was
// presumed dead and the cell taken over). Work already done is still
// valid — run-cache writes are idempotent — but the cell may have been
// duplicated.
func (l *Lease) Lost() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lost
}

// Release removes the lease file. Releasing a lost or already-released
// lease is a no-op.
func (l *Lease) Release() error {
	l.mu.Lock()
	if l.rel || l.lost {
		l.mu.Unlock()
		return nil
	}
	l.rel = true
	l.mu.Unlock()
	l.m.mu.Lock()
	if l.m.held[l.key] == l {
		delete(l.m.held, l.key)
	}
	l.m.mu.Unlock()
	if err := os.Remove(l.path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("lease: release %s: %w", l.path, err)
	}
	return nil
}

// Holder returns the owner recorded in a cell's lease file, or "" when
// the cell is unclaimed (or the file is unreadable/corrupt).
func (m *Manager) Holder(key string) string {
	data, err := os.ReadFile(m.path(key))
	if err != nil {
		return ""
	}
	var in info
	if json.Unmarshal(data, &in) != nil {
		return ""
	}
	return in.Owner
}

// SweepExpired removes lease files whose heartbeat is older than ttl and
// orphaned ".reap-" temporaries (which takeovers by rename, in older
// versions of this package, left behind when killed), returning how many
// files it removed. It is safe to run concurrently with live workers: a live
// owner's heartbeat keeps its leases younger than any sane ttl, and a
// removed-but-live lease only costs a duplicated (idempotent) cell.
func SweepExpired(dir string, ttl time.Duration) int {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	removed := 0
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		isReap := strings.Contains(name, ".lease.reap-")
		if !isReap && !strings.HasSuffix(name, ".lease") {
			continue
		}
		in, err := e.Info()
		if err != nil {
			continue
		}
		if !isReap && time.Since(in.ModTime()) <= ttl {
			continue
		}
		if os.Remove(filepath.Join(dir, name)) == nil {
			removed++
		}
	}
	return removed
}

// RemoveKeys removes the lease files of the given keys regardless of
// age. Callers use it when the sweep-level journal proves the cells are
// complete: any file still present belongs to an owner that died between
// finishing the cell and releasing, or to a straggler redundantly
// re-verifying a finished cell — in both cases removal is safe because
// the cell's result is durable and idempotent.
func RemoveKeys(dir string, keys []string) int {
	m := Manager{dir: dir}
	removed := 0
	for _, k := range keys {
		if err := os.Remove(m.path(k)); err == nil {
			removed++
		}
	}
	return removed
}
