package profess

import (
	"encoding/json"
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
		SetRunCacheSizeLimit(0)
		ResetRunCache()
	})
	return dir
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

// TestDiskCacheLRUSizeCap fills the tier past a tiny byte cap and checks
// the oldest entries (by last use) are evicted while the newest survive.
func TestDiskCacheLRUSizeCap(t *testing.T) {
	dir := withDiskCache(t)
	cfg := smallCfg()

	progs := []string{"mcf", "lbm", "milc"}
	for i, p := range progs {
		if _, err := RunProgram(p, SchemePoM, cfg); err != nil {
			t.Fatal(err)
		}
		// Space the mtimes out so LRU order is unambiguous.
		entries, _ := filepath.Glob(filepath.Join(dir, "*.json"))
		for _, e := range entries {
			info, err := os.Stat(e)
			if err != nil {
				t.Fatal(err)
			}
			old := time.Now().Add(-time.Duration(len(progs)-i) * time.Hour)
			if info.ModTime().After(old) {
				if err := os.Chtimes(e, old, old); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	entries, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(entries) != len(progs) {
		t.Fatalf("want %d entries, got %d", len(progs), len(entries))
	}
	var biggest int64
	for _, e := range entries {
		info, err := os.Stat(e)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() > biggest {
			biggest = info.Size()
		}
	}

	// Cap to roughly two entries and store a fourth cell: the two oldest
	// must be evicted.
	SetRunCacheSizeLimit(2 * biggest)
	if _, err := RunProgram("omnetpp", SchemePoM, cfg); err != nil {
		t.Fatal(err)
	}
	after, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(after) >= 4 {
		t.Fatalf("size cap did not evict: %d entries remain", len(after))
	}
	// The newest entry (the one just stored) must have survived.
	var newestAlive bool
	for _, e := range after {
		info, err := os.Stat(e)
		if err != nil {
			continue
		}
		if time.Since(info.ModTime()) < time.Hour {
			newestAlive = true
		}
	}
	if !newestAlive {
		t.Error("LRU eviction removed the most recent entry")
	}
}

// TestDiskCacheSweepsTmpOrphans checks that temp files stranded by a
// writer killed before its atomic rename are reclaimed once past the
// grace period — and that fresh temp files (a live writer's) survive
// both the attach-time sweep and the pruner, which must also exclude
// them from the size accounting.
func TestDiskCacheSweepsTmpOrphans(t *testing.T) {
	dir := t.TempDir()
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

	ResetRunCache()
	SetRunCaching(true)
	if err := SetRunCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := SetRunCacheDir(""); err != nil {
			t.Fatal(err)
		}
		SetRunCacheSizeLimit(0)
		ResetRunCache()
	})

	if _, err := os.Stat(old); !os.IsNotExist(err) {
		t.Error("stale orphan survived the attach-time sweep")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("fresh temp file (a live writer's) was swept: %v", err)
	}

	// A store under a tiny cap prunes entries by their own size: the
	// fresh temp file neither counts toward the total nor gets evicted.
	SetRunCacheSizeLimit(1)
	if _, err := RunProgram("mcf", SchemePoM, smallCfg()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("pruner removed a live temp file: %v", err)
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
