package profess

import (
	"sync"
	"testing"
)

// TestRunCacheMemoises checks that two identical runs share one simulation
// and that the toggle and reset work.
func TestRunCacheMemoises(t *testing.T) {
	ResetRunCache()
	SetRunCaching(true)
	defer SetRunCaching(true)

	cfg := SingleCoreConfig(PaperScale)
	cfg.Instructions = 50_000
	r1, err := RunProgram("mcf", SchemePoM, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunProgram("mcf", SchemePoM, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("identical runs should share one cached Result")
	}
	if d := RunCacheDetail(); d != (RunCacheCounters{MemHits: 1, Sims: 1}) {
		t.Errorf("counters %+v, want 1 mem hit and 1 sim", d)
	}

	// A different scheme is a different cell.
	if _, err := RunProgram("mcf", SchemeMDM, cfg); err != nil {
		t.Fatal(err)
	}
	if d := RunCacheDetail(); d.Sims != 2 {
		t.Errorf("different scheme should simulate; sims = %d", d.Sims)
	}

	// Disabling the cache forces a fresh simulation.
	SetRunCaching(false)
	r3, err := RunProgram("mcf", SchemePoM, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r1 {
		t.Error("caching disabled: run should not come from the cache")
	}
	SetRunCaching(true)

	ResetRunCache()
	if d := RunCacheDetail(); d != (RunCacheCounters{}) {
		t.Errorf("reset left counters %+v", d)
	}
}

// hammerCell fires n concurrent callers at one cell and returns the
// Results they observed. Run under -race this doubles as a data-race
// check on the cache's singleflight.
func hammerCell(t *testing.T, n int, cfg Config) []*Result {
	t.Helper()
	results := make([]*Result, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			r, err := RunProgram("mcf", SchemePoM, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	close(start)
	wg.Wait()
	return results
}

// TestRunCacheSingleflightConcurrent checks the singleflight contract for
// both tiers: N concurrent callers of one cell observe exactly one miss
// (one simulation, or one disk load on the warm pass) and share one
// *Result.
func TestRunCacheSingleflightConcurrent(t *testing.T) {
	dir := t.TempDir()
	ResetRunCache()
	SetRunCaching(true)
	if err := SetRunCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := SetRunCacheDir(""); err != nil {
			t.Fatal(err)
		}
		ResetRunCache()
	}()

	cfg := SingleCoreConfig(PaperScale)
	cfg.Instructions = 30_000
	const n = 16

	// Cold: exactly one simulation, n-1 singleflight joins, one shared
	// pointer.
	cold := hammerCell(t, n, cfg)
	for i := 1; i < n; i++ {
		if cold[i] != cold[0] {
			t.Fatalf("caller %d saw a different Result pointer", i)
		}
	}
	if d := RunCacheDetail(); d.Sims != 1 || d.MemHits != n-1 || d.DiskHits != 0 {
		t.Errorf("cold pass: %+v, want 1 sim / %d mem hits / 0 disk hits", d, n-1)
	}

	// Warm disk tier: drop the in-process tier; n concurrent callers must
	// trigger exactly one disk load, zero simulations, and again share one
	// pointer.
	ResetRunCache()
	warm := hammerCell(t, n, cfg)
	for i := 1; i < n; i++ {
		if warm[i] != warm[0] {
			t.Fatalf("warm caller %d saw a different Result pointer", i)
		}
	}
	if d := RunCacheDetail(); d.Sims != 0 || d.DiskHits != 1 || d.MemHits != n-1 {
		t.Errorf("warm pass: %+v, want 0 sims / 1 disk hit / %d mem hits", d, n-1)
	}
}

// TestRunCacheBypassesTelemetry pins the soundness rule: a telemetry-
// enabled run carries a private stateful sampler and must never be shared.
func TestRunCacheBypassesTelemetry(t *testing.T) {
	ResetRunCache()
	cfg := SingleCoreConfig(PaperScale)
	cfg.Instructions = 50_000
	cfg.TelemetryEvery = 10_000
	r1, err := RunProgram("mcf", SchemePoM, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunProgram("mcf", SchemePoM, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1 == r2 {
		t.Error("telemetry-enabled runs must bypass the cache")
	}
	if d := RunCacheDetail(); d.MemHits+d.DiskHits != 0 {
		t.Errorf("telemetry runs recorded cache hits %+v, want none", d)
	}
}

// TestRunCacheCountersTable pins the pure accounting helpers: HitRate's
// zero-total guard and division, and Sub's per-tier deltas (including
// negative ones, which callers rely on never being clamped).
func TestRunCacheCountersTable(t *testing.T) {
	cases := []struct {
		name    string
		c       RunCacheCounters
		hitRate float64
	}{
		{"zero", RunCacheCounters{}, 0},
		{"all sims", RunCacheCounters{Sims: 7}, 0},
		{"all mem", RunCacheCounters{MemHits: 4}, 1},
		{"all disk", RunCacheCounters{DiskHits: 9}, 1},
		{"mixed", RunCacheCounters{MemHits: 2, DiskHits: 1, Sims: 1}, 0.75},
		{"mostly sims", RunCacheCounters{MemHits: 1, Sims: 3}, 0.25},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.c.HitRate(); got != tc.hitRate {
				t.Errorf("HitRate(%+v) = %v, want %v", tc.c, got, tc.hitRate)
			}
		})
	}

	subCases := []struct {
		name         string
		now, earlier RunCacheCounters
		want         RunCacheCounters
	}{
		{"zero minus zero", RunCacheCounters{}, RunCacheCounters{}, RunCacheCounters{}},
		{"plain delta",
			RunCacheCounters{MemHits: 5, DiskHits: 3, Sims: 9},
			RunCacheCounters{MemHits: 2, DiskHits: 3, Sims: 4},
			RunCacheCounters{MemHits: 3, DiskHits: 0, Sims: 5}},
		{"negative after reset",
			RunCacheCounters{Sims: 1},
			RunCacheCounters{MemHits: 2, Sims: 4},
			RunCacheCounters{MemHits: -2, Sims: -3}},
	}
	for _, tc := range subCases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.now.Sub(tc.earlier); got != tc.want {
				t.Errorf("%+v.Sub(%+v) = %+v, want %+v", tc.now, tc.earlier, got, tc.want)
			}
		})
	}
}

// TestRunCacheDetailTiers checks the per-tier attribution RunCacheDetail
// reports: a cold run is a sim and a repeat is a memory hit.
func TestRunCacheDetailTiers(t *testing.T) {
	ResetRunCache()
	cfg := SingleCoreConfig(PaperScale)
	cfg.Instructions = 50_000
	if _, err := RunProgram("mcf", SchemePoM, cfg); err != nil {
		t.Fatal(err)
	}
	if d := RunCacheDetail(); d != (RunCacheCounters{Sims: 1}) {
		t.Fatalf("cold run: %+v, want exactly one sim", d)
	}
	before := RunCacheDetail()
	if _, err := RunProgram("mcf", SchemePoM, cfg); err != nil {
		t.Fatal(err)
	}
	if d := RunCacheDetail().Sub(before); d != (RunCacheCounters{MemHits: 1}) {
		t.Fatalf("warm run delta: %+v, want exactly one mem hit", d)
	}
}

// TestRunCacheShardInvariant pins the runKey normalisation of the shard
// knob: the worker count of a clustered run cannot split cache cells —
// -shards 1 and -shards 8 are the same simulation (byte-identical by the
// sim package's sweep test), so they must share one cached Result, while
// Clusters (a topology change) must not.
func TestRunCacheShardInvariant(t *testing.T) {
	ResetRunCache()
	SetRunCaching(true)
	defer SetRunCaching(true)

	cfg := Scale16Config(PaperScale)
	cfg.Instructions = 5_000
	specs, err := Fleet16Specs(cfg.Scale)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 1
	r1, err := RunSpecs(specs, SchemeProFess, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 8
	r8, err := RunSpecs(specs, SchemeProFess, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r8 {
		t.Error("shards=1 and shards=8 runs should share one cached Result")
	}
	if d := RunCacheDetail(); d != (RunCacheCounters{MemHits: 1, Sims: 1}) {
		t.Errorf("counters %+v, want 1 mem hit and 1 sim (shards must not split the key)", d)
	}

	// Clusters is semantic: a different topology is a different cell.
	if runKey(cfg, specs, SchemeProFess) == runKey(MultiCoreConfig(PaperScale), specs, SchemeProFess) {
		t.Error("different topologies hashed to one key")
	}
	ResetRunCache()
}
