package profess

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// withDiskCache points the persistent tier at a fresh temp directory for
// one test and restores a clean cache state afterwards.
func withDiskCache(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	ResetRunCache()
	SetRunCaching(true)
	if err := SetRunCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := SetRunCacheDir(""); err != nil {
			t.Fatal(err)
		}
		ResetRunCache()
	})
	return dir
}

// withRunCacheSizeLimit sets the disk tier's byte cap for one test.
func withRunCacheSizeLimit(t *testing.T, n int64) {
	t.Helper()
	old := runCacheSizeLimit
	runCacheSizeLimit = n
	t.Cleanup(func() { runCacheSizeLimit = old })
}

func smallCfg() Config {
	cfg := SingleCoreConfig(PaperScale)
	cfg.Instructions = 30_000
	return cfg
}

// TestDiskCacheRoundTrip simulates once, drops the in-process tier, and
// checks the second run is served from disk with a deeply identical
// Result and zero simulations.
func TestDiskCacheRoundTrip(t *testing.T) {
	dir := withDiskCache(t)
	cfg := smallCfg()

	r1, err := RunProgram("mcf", SchemePoM, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := RunCacheDetail(); d.Sims != 1 || d.DiskHits != 0 {
		t.Fatalf("cold run: %+v, want 1 sim and no disk hits", d)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("want exactly one cache entry on disk, got %v (err %v)", entries, err)
	}

	ResetRunCache() // drop the in-process tier; disk survives
	r2, err := RunProgram("mcf", SchemePoM, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := RunCacheDetail(); d.Sims != 0 || d.DiskHits != 1 {
		t.Fatalf("warm run: %+v, want 0 sims and 1 disk hit", d)
	}
	if r1 == r2 {
		t.Fatal("disk-served Result should be a fresh decode, not the same pointer")
	}
	if !reflect.DeepEqual(*r1, *r2) {
		t.Errorf("disk round-trip changed the Result:\n got %+v\nwant %+v", *r2, *r1)
	}
}

// TestDiskCacheCorruptEntriesDeleted covers the self-healing rules: a
// truncated entry, a checksum mismatch, and a stale code stamp are each
// skipped AND deleted on load.
func TestDiskCacheCorruptEntriesDeleted(t *testing.T) {
	dir := withDiskCache(t)
	cfg := smallCfg()
	res, err := RunProgram("mcf", SchemePoM, cfg)
	if err != nil {
		t.Fatal(err)
	}
	entries, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(entries) != 1 {
		t.Fatalf("want one entry, got %v", entries)
	}
	path := entries[0]
	key := strings.TrimSuffix(filepath.Base(path), ".json")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(name string, mutate func() error) {
		t.Helper()
		if err := mutate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, ok := theDiskCache.load(key); ok {
			t.Errorf("%s: load accepted a bad entry: %+v", name, got)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s: bad entry not deleted", name)
		}
		// Restore the good entry for the next case.
		if err := os.WriteFile(path, good, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	corrupt("truncated", func() error {
		return os.WriteFile(path, good[:len(good)/2], 0o644)
	})
	corrupt("checksum mismatch", func() error {
		var env diskEnvelope
		if err := json.Unmarshal(good, &env); err != nil {
			return err
		}
		env.Sum = strings.Repeat("0", len(env.Sum))
		bad, err := json.Marshal(env)
		if err != nil {
			return err
		}
		return os.WriteFile(path, bad, 0o644)
	})
	corrupt("stale code stamp", func() error {
		var env diskEnvelope
		if err := json.Unmarshal(good, &env); err != nil {
			return err
		}
		env.Code = "some-older-revision"
		bad, err := json.Marshal(env)
		if err != nil {
			return err
		}
		return os.WriteFile(path, bad, 0o644)
	})

	// The intact entry still loads.
	got, ok := theDiskCache.load(key)
	if !ok {
		t.Fatal("restored good entry should load")
	}
	if !reflect.DeepEqual(*res, *got) {
		t.Error("restored entry decoded to a different Result")
	}
}

// TestDiskCacheStampNamesGOARCH checks the code stamp names the target
// architecture, so a host of another architecture sharing the directory
// misses instead of reading results its own floating-point code might not
// reproduce; the stale-stamp case above covers the miss itself.
func TestDiskCacheStampNamesGOARCH(t *testing.T) {
	if !strings.HasSuffix(runCacheCodeStamp, "/"+runtime.GOARCH) {
		t.Errorf("code stamp %q does not end in the architecture %q", runCacheCodeStamp, runtime.GOARCH)
	}
}

// TestDiskCacheLRUSizeCap fills the tier, then re-attaches it under a
// cap of about two entries: attaching evicts the oldest entry (by last
// use) and keeps the newer two, and a later store evicts nothing, since
// the cap is enforced on attach only.
func TestDiskCacheLRUSizeCap(t *testing.T) {
	dir := withDiskCache(t)
	cfg := smallCfg()

	progs := []string{"mcf", "lbm", "milc"}
	var (
		biggest int64
		oldest  string
	)
	for i, p := range progs {
		if _, err := RunProgram(p, SchemePoM, cfg); err != nil {
			t.Fatal(err)
		}
		// Space the mtimes out so LRU order is unambiguous: the entry of
		// progs[i] is i hours younger than the first.
		entries, _ := filepath.Glob(filepath.Join(dir, "*.json"))
		if i == 0 {
			oldest = entries[0]
		}
		for _, e := range entries {
			info, err := os.Stat(e)
			if err != nil {
				t.Fatal(err)
			}
			biggest = max(biggest, info.Size())
			old := time.Now().Add(-time.Duration(len(progs)-i) * time.Hour)
			if info.ModTime().After(old) {
				if err := os.Chtimes(e, old, old); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	withRunCacheSizeLimit(t, 2*biggest)
	if err := SetRunCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	after, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(after) != 2 {
		t.Fatalf("attach under a two-entry cap left %d entries, want 2", len(after))
	}
	if _, err := os.Stat(oldest); !os.IsNotExist(err) {
		t.Error("attach evicted a newer entry and kept the least recently used one")
	}

	if _, err := RunProgram("omnetpp", SchemePoM, cfg); err != nil {
		t.Fatal(err)
	}
	if n, _ := filepath.Glob(filepath.Join(dir, "*.json")); len(n) != 3 {
		t.Errorf("a store over the cap left %d entries, want 3: stores must not evict", len(n))
	}
}

// TestDiskCacheSweepsTmpOrphans checks that attaching a directory
// reclaims temp files stranded by a writer killed before its atomic
// rename once they are past the grace period, while a fresh temp file (a
// live writer's) is neither removed nor counted toward the size cap: an
// entry that exactly fills the cap survives the attach beside it.
func TestDiskCacheSweepsTmpOrphans(t *testing.T) {
	dir := withDiskCache(t)
	if _, err := RunProgram("mcf", SchemePoM, smallCfg()); err != nil {
		t.Fatal(err)
	}
	entries, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(entries) != 1 {
		t.Fatalf("want one entry, got %v", entries)
	}
	info, err := os.Stat(entries[0])
	if err != nil {
		t.Fatal(err)
	}

	old := filepath.Join(dir, ".tmp-stranded")
	fresh := filepath.Join(dir, ".tmp-live")
	for _, p := range []string{old, fresh} {
		if err := os.WriteFile(p, []byte("half-written entry"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stale := time.Now().Add(-2 * runCacheTmpGrace)
	if err := os.Chtimes(old, stale, stale); err != nil {
		t.Fatal(err)
	}

	withRunCacheSizeLimit(t, info.Size())
	if err := SetRunCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(old); !os.IsNotExist(err) {
		t.Error("stale orphan survived the attach-time sweep")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("fresh temp file (a live writer's) was swept: %v", err)
	}
	if _, err := os.Stat(entries[0]); err != nil {
		t.Errorf("an entry within the cap was evicted, so the fresh temp file was counted: %v", err)
	}
}

// TestDiskCacheIgnoresForeignFiles checks that non-entry files in the
// cache directory never break loads.
func TestDiskCacheIgnoresForeignFiles(t *testing.T) {
	dir := withDiskCache(t)
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("not a cache entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := smallCfg()
	if _, err := RunProgram("mcf", SchemePoM, cfg); err != nil {
		t.Fatal(err)
	}
	ResetRunCache()
	if _, err := RunProgram("mcf", SchemePoM, cfg); err != nil {
		t.Fatal(err)
	}
	if d := RunCacheDetail(); d.DiskHits != 1 {
		t.Errorf("foreign file broke the disk tier: %+v", d)
	}
}

// BenchmarkDiskCacheStore times storing one real Result under a new key
// into a directory that already holds 3,000 entries (ten full sweeps'
// worth), the way a sweep worker stores each finished cell.
func BenchmarkDiskCacheStore(b *testing.B) {
	SetRunCaching(true)
	ResetRunCache()
	res, err := RunProgram("mcf", SchemePoM, smallCfg())
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	filler := bytes.Repeat([]byte("x"), 2048)
	for i := 0; i < 3000; i++ {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("filler-%04d.json", i)), filler, 0o644); err != nil {
			b.Fatal(err)
		}
	}
	if err := SetRunCacheDir(dir); err != nil {
		b.Fatal(err)
	}
	defer func() {
		if err := SetRunCacheDir(""); err != nil {
			b.Fatal(err)
		}
		ResetRunCache()
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		theDiskCache.store(fmt.Sprintf("bench-%d", i), res)
	}
}
