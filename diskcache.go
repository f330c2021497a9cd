package profess

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// The persistent run-cache tier stores one JSON file per memoised
// simulation under a cache directory, so warm re-runs of an experiment
// sweep perform no simulation even across processes. Entries are
// self-describing envelopes: a format version, a code-version stamp, the
// run key they answer for, and a checksum over the serialised Result.
// Anything that fails those checks — truncated writes that escaped the
// atomic rename, entries from an older format, entries simulated by
// different code — is deleted on sight and treated as a miss, so the
// directory is self-healing and never needs manual invalidation beyond
// `rm -rf` when iterating on unstamped (dirty or test) builds.
//
// Writes are atomic (temp file in the same directory + rename) so a
// crashed or concurrent writer can never publish a half-written entry,
// and concurrent processes sharing one directory at worst both write the
// same bytes. The directory is bounded by an LRU byte cap, enforced when
// a process attaches: loads refresh an entry's mtime and SetRunCacheDir
// evicts oldest-first. A store lists no directory.

// runCacheFormat is the on-disk envelope format version. Bump it when the
// envelope or Result serialisation changes shape; every older entry is
// then skipped and deleted on load.
const runCacheFormat = 1

// runCacheSizeLimit bounds the cache directory's entries in bytes
// (1 GiB, over a thousand times what a full sweep writes). Variable for
// tests.
var runCacheSizeLimit int64 = 1 << 30

// runCacheCodeStamp identifies the code that produced an entry. Builds
// stamped by the Go toolchain carry their VCS revision (plus "+dirty"
// when the worktree was modified); unstamped builds — `go test`, builds
// outside a checkout — share the revision "dev". The stamp ends in the
// target architecture, because results may differ across architectures:
// arm64 fuses floating-point multiply-adds that amd64 rounds separately,
// which can change swap decisions. Entries whose stamp differs from the
// running binary's are stale: deleted on load and re-simulated.
var runCacheCodeStamp = func() string {
	rev := "dev"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var vcs, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				vcs = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if vcs != "" {
			rev = vcs + dirty
		}
	}
	return rev + "/" + runtime.GOARCH
}()

// diskEnvelope is the on-disk entry format. Result stays raw so the
// checksum verifies the exact bytes that will be decoded.
type diskEnvelope struct {
	Format int             `json:"format"`
	Code   string          `json:"code"`
	Key    string          `json:"key"`
	Sum    string          `json:"sum"`
	Result json.RawMessage `json:"result"`
}

type diskCache struct {
	mu  sync.Mutex
	dir string // "" = tier disabled
}

var theDiskCache = &diskCache{}

// DefaultRunCacheDir returns the conventional persistent cache location,
// $XDG_CACHE_HOME/profess/runs (falling back to the OS user cache dir),
// or "" when no user cache directory can be determined.
func DefaultRunCacheDir() string {
	base, err := os.UserCacheDir()
	if err != nil {
		return ""
	}
	return filepath.Join(base, "profess", "runs")
}

// SetRunCacheDir enables the persistent run-cache tier under dir
// (created if missing), or disables it when dir is empty. The tier sits
// below the in-process cache: the singleflight still guarantees each cell
// simulates (or loads) at most once per process. Attaching to a
// directory also tidies it (see tidyRunCacheDir).
func SetRunCacheDir(dir string) error {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("profess: run cache dir: %w", err)
		}
		tidyRunCacheDir(dir)
	}
	theDiskCache.mu.Lock()
	theDiskCache.dir = dir
	theDiskCache.mu.Unlock()
	return nil
}

// runCacheTmpGrace is how old a ".tmp-*" file must be before the orphan
// sweeper may remove it. A live writer holds its temp file for
// milliseconds (serialise + write + rename), so anything minutes old was
// stranded by a killed process. Variable for tests.
var runCacheTmpGrace = 15 * time.Minute

// tidyRunCacheDir lists dir once. It removes the ".tmp-*" files of
// writers killed between CreateTemp and Rename, once they are old enough
// that no live writer can still own them, then evicts ".json" entries
// oldest-first (by last use) until the rest fit runCacheSizeLimit. Fresh
// temp files, the sweeps/ journal subdirectory and foreign files are
// neither counted nor removed.
func tidyRunCacheDir(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	type entry struct {
		path  string
		size  int64
		mtime time.Time
	}
	var (
		files []entry
		total int64
	)
	for _, e := range entries {
		info, err := e.Info()
		if err != nil || e.IsDir() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		switch {
		case strings.HasPrefix(e.Name(), ".tmp-"):
			if time.Since(info.ModTime()) > runCacheTmpGrace {
				os.Remove(path)
			}
		case filepath.Ext(e.Name()) == ".json":
			files = append(files, entry{path, info.Size(), info.ModTime()})
			total += info.Size()
		}
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
	for _, f := range files {
		if total <= runCacheSizeLimit {
			break
		}
		if os.Remove(f.path) == nil {
			total -= f.size
		}
	}
}

// RunCacheDir returns the persistent tier's directory ("" when disabled).
func RunCacheDir() string { return theDiskCache.directory() }

func (d *diskCache) directory() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dir
}

func (d *diskCache) path(dir, key string) string {
	return filepath.Join(dir, key+".json")
}

// load fetches and verifies one entry. A vanished file — including one
// another process's eviction removed between our lookup and read —
// is a clean miss: the caller re-simulates and overwrites, no error, no
// deletion. Verification failures of bytes actually read (truncation
// that escaped the atomic rename, older formats, foreign code stamps)
// delete the entry, since those bytes can never become valid; the delete
// is skipped if the file changed size since the read, so a concurrent
// writer's fresh entry is never the casualty of a stale verdict.
func (d *diskCache) load(key string) (*Result, bool) {
	dir := d.directory()
	if dir == "" {
		return nil, false
	}
	path := d.path(dir, key)
	data, err := os.ReadFile(path)
	if err != nil {
		// ENOENT (evicted or never written) and every other read error:
		// a miss, never a deletion — the path may already hold another
		// process's freshly-written entry.
		return nil, false
	}
	// dropCorrupt discards what we read; it must not touch the path if a
	// concurrent writer has since replaced the entry we judged.
	dropCorrupt := func() {
		if st, err := os.Stat(path); err == nil && st.Size() == int64(len(data)) {
			os.Remove(path)
		}
	}
	var env diskEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		dropCorrupt()
		return nil, false
	}
	if env.Format != runCacheFormat || env.Code != runCacheCodeStamp || env.Key != key {
		dropCorrupt()
		return nil, false
	}
	sum := sha256.Sum256(env.Result)
	if hex.EncodeToString(sum[:]) != env.Sum {
		dropCorrupt()
		return nil, false
	}
	var res Result
	if err := json.Unmarshal(env.Result, &res); err != nil {
		dropCorrupt()
		return nil, false
	}
	// Refresh recency so eviction keeps live cells. Best-effort:
	// the entry may have been evicted since the read, which only costs
	// the refresh.
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	return &res, true
}

// has reports whether a non-empty entry file exists for the key, without
// reading it. The sweep executor resumes such cells instead of running
// them; load still verifies the entry when a driver renders it.
func (d *diskCache) has(key string) bool {
	dir := d.directory()
	if dir == "" {
		return false
	}
	st, err := os.Stat(d.path(dir, key))
	return err == nil && st.Size() > 0
}

// store writes one entry atomically: a temp file in the cache directory,
// then a rename over the entry's path. Storage is best-effort: any failure
// (including a Result that does not serialise, e.g. a NaN metric) just
// means the cell stays a disk miss. Marshalling the RawMessage result
// re-emits the payload's compact bytes unchanged, so the checksum covers
// exactly what load will hash.
func (d *diskCache) store(key string, res *Result) {
	dir := d.directory()
	if dir == "" {
		return
	}
	payload, err := json.Marshal(res)
	if err != nil {
		return
	}
	sum := sha256.Sum256(payload)
	data, err := json.Marshal(diskEnvelope{
		Format: runCacheFormat,
		Code:   runCacheCodeStamp,
		Key:    key,
		Sum:    hex.EncodeToString(sum[:]),
		Result: payload,
	})
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), d.path(dir, key))
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
}
