package profess

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
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
// same bytes. The directory is bounded by an LRU byte cap: loads refresh
// an entry's mtime and the pruner evicts oldest-first.

// runCacheFormat is the on-disk envelope format version. Bump it when the
// envelope or Result serialisation changes shape; every older entry is
// then skipped and deleted on load.
const runCacheFormat = 1

// DefaultRunCacheSizeLimit bounds the cache directory's total size
// (1 GiB) unless SetRunCacheSizeLimit overrides it.
const DefaultRunCacheSizeLimit int64 = 1 << 30

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
	mu    sync.Mutex
	dir   string // "" = tier disabled
	limit int64
}

var theDiskCache = &diskCache{limit: DefaultRunCacheSizeLimit}

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
// directory also sweeps temp files orphaned by writers that died between
// temp-file creation and the atomic rename.
func SetRunCacheDir(dir string) error {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("profess: run cache dir: %w", err)
		}
		sweepTmpOrphans(dir)
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

// sweepTmpOrphans removes stranded atomic-write temporaries under dir. A
// writer killed between CreateTemp and Rename leaks its ".tmp-*" file;
// nothing ever references it again, so reclaim it once it is old enough
// that no live writer can still own it.
func sweepTmpOrphans(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), ".tmp-") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		if time.Since(info.ModTime()) > runCacheTmpGrace {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// RunCacheDir returns the persistent tier's directory ("" when disabled).
func RunCacheDir() string {
	theDiskCache.mu.Lock()
	defer theDiskCache.mu.Unlock()
	return theDiskCache.dir
}

// SetRunCacheSizeLimit caps the persistent tier's total size in bytes
// (DefaultRunCacheSizeLimit initially). The oldest entries by last use are
// evicted once the cap is exceeded; n <= 0 restores the default.
func SetRunCacheSizeLimit(n int64) {
	if n <= 0 {
		n = DefaultRunCacheSizeLimit
	}
	theDiskCache.mu.Lock()
	theDiskCache.limit = n
	theDiskCache.mu.Unlock()
}

func (d *diskCache) snapshot() (dir string, limit int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dir, d.limit
}

func (d *diskCache) path(dir, key string) string {
	return filepath.Join(dir, key+".json")
}

// load fetches and verifies one entry. A vanished file — including one
// another process's LRU eviction removed between our lookup and read —
// is a clean miss: the caller re-simulates and overwrites, no error, no
// deletion. Verification failures of bytes actually read (truncation
// that escaped the atomic rename, older formats, foreign code stamps)
// delete the entry, since those bytes can never become valid; the delete
// is skipped if the file changed size since the read, so a concurrent
// writer's fresh entry is never the casualty of a stale verdict.
func (d *diskCache) load(key string) (*Result, bool) {
	dir, _ := d.snapshot()
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
	// Refresh recency so the LRU pruner keeps live cells. Best-effort:
	// the entry may have been evicted since the read, which only costs
	// the refresh.
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	return &res, true
}

// has reports whether a verified-shape entry file exists for the key
// without decoding it. The sweep executor uses it to double-check
// journal "done" claims: a cell is only skipped when its result is
// actually present (it may have been LRU-evicted since).
func (d *diskCache) has(key string) bool {
	dir, _ := d.snapshot()
	if dir == "" {
		return false
	}
	st, err := os.Stat(d.path(dir, key))
	return err == nil && st.Size() > 0
}

// storeBufPool recycles the per-store payload encode buffer, and
// storeWriterPool the buffered file writer in front of the temp file.
// Sweep workers store thousands of cells back to back; without pooling,
// every cell re-grows a multi-kilobyte encode buffer from scratch.
var (
	storeBufPool    = sync.Pool{New: func() any { return new(bytes.Buffer) }}
	storeWriterPool = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 32<<10) }}
)

// jsonString renders s as a JSON string literal.
func jsonString(s string) []byte {
	b, _ := json.Marshal(s)
	return b
}

// store writes one entry atomically, then prunes. Storage is best-effort:
// any failure (including a Result that does not serialise, e.g. a NaN
// metric) just means the cell stays a disk miss.
//
// The Result is serialised exactly once, into a pooled buffer; the
// envelope is then written around it field by field, with the checksum
// streamed over the payload bytes as they go to disk. (The old path
// marshalled the envelope as a whole, which copied the payload a second
// time — the dominant allocation of a warm sweep's write side.) The
// "sum" field is emitted after "result": JSON field order is irrelevant
// to decoding, and trailing placement is what lets the hash stream
// during the single write pass. load() is unchanged — its RawMessage
// captures exactly the payload bytes hashed here (the json.Encoder's
// trailing newline is trimmed before hashing for the same reason).
func (d *diskCache) store(key string, res *Result) {
	dir, _ := d.snapshot()
	if dir == "" {
		return
	}
	buf := storeBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer storeBufPool.Put(buf)
	if err := json.NewEncoder(buf).Encode(res); err != nil {
		return
	}
	payload := buf.Bytes()
	if n := len(payload); n > 0 && payload[n-1] == '\n' {
		payload = payload[:n-1]
	}

	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return
	}
	bw := storeWriterPool.Get().(*bufio.Writer)
	bw.Reset(tmp)
	releaseWriter := func() {
		bw.Reset(nil)
		storeWriterPool.Put(bw)
	}

	h := sha256.New()
	bw.WriteString(`{"format":`)
	bw.WriteString(strconv.Itoa(runCacheFormat))
	bw.WriteString(`,"code":`)
	bw.Write(jsonString(runCacheCodeStamp))
	bw.WriteString(`,"key":`)
	bw.Write(jsonString(key))
	bw.WriteString(`,"result":`)
	if _, err := io.MultiWriter(bw, h).Write(payload); err != nil {
		releaseWriter()
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	bw.WriteString(`,"sum":"`)
	bw.WriteString(hex.EncodeToString(h.Sum(nil)))
	bw.WriteString(`"}`)
	if err := bw.Flush(); err != nil {
		releaseWriter()
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	releaseWriter()
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), d.path(dir, key)); err != nil {
		os.Remove(tmp.Name())
		return
	}
	d.prune(dir)
}

// prune evicts entries oldest-first until the directory fits the size
// cap. Serialised under the cache mutex so concurrent stores do not race
// the directory scan. Only ".json" entries count toward the size cap and
// are eviction candidates: orphaned temp files (reclaimed separately by
// sweepTmpOrphans once stale), the sweeps/ journal subdirectory and other
// foreign files neither inflate the accounted size nor get evicted.
func (d *diskCache) prune(dir string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dir != dir {
		return // retargeted while storing
	}
	sweepTmpOrphans(dir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	type ent struct {
		path  string
		size  int64
		mtime time.Time
	}
	var (
		files []ent
		total int64
	)
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, ent{filepath.Join(dir, e.Name()), info.Size(), info.ModTime()})
		total += info.Size()
	}
	if total <= d.limit {
		return
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
	for _, f := range files {
		if total <= d.limit {
			break
		}
		if os.Remove(f.path) == nil {
			total -= f.size
		}
	}
}
