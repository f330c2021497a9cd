package profess

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// The run cache memoises whole simulations keyed on their complete input —
// (Config, specs, Scheme) — so sweeps and ablation suites that revisit the
// same cell (every stand-alone baseline, every shared PoM reference
// column) pay for it once per process. Simulations are deterministic
// functions of that key, which is what makes memoisation sound.
//
// The cache has two tiers. The in-process tier memoises *Result pointers
// with singleflight semantics: concurrent callers of one cell run it at
// most once per process and share the outcome. The optional persistent
// tier (see diskcache.go, enabled via SetRunCacheDir or the CLIs'
// -cachedir flag) round-trips Results through JSON on disk, so warm
// re-runs across processes perform no simulation at all.
//
// Cached *Results are shared between callers and must be treated as
// immutable; every driver in this package already does. Runs that are not
// pure functions of the key bypass the cache: a custom trace Source (its
// stream state is outside the key), telemetry-enabled runs (the Result
// carries a stateful sampler that must be private to each caller), and
// custom policies (their identity and internal state are not hashable).

// runCacheEntry is one memoised simulation; once coordinates the
// singleflight so concurrent sweep workers asking for the same cell run it
// exactly once and share the outcome.
type runCacheEntry struct {
	once sync.Once
	res  *Result
	err  error
}

type runCache struct {
	mu sync.Mutex
	m  map[string]*runCacheEntry

	memHits  atomic.Int64
	diskHits atomic.Int64
	sims     atomic.Int64
}

var (
	theRunCache   = &runCache{m: make(map[string]*runCacheEntry)}
	runCachingOff atomic.Bool
)

// SetRunCaching toggles the process-wide run cache (on by default).
// Disable it to force every simulation to execute — e.g. when timing runs,
// or via the -nocache flag of the command-line tools. Disabling it also
// bypasses the persistent disk tier.
func SetRunCaching(on bool) { runCachingOff.Store(!on) }

// RunCaching reports whether the run cache is enabled.
func RunCaching() bool { return !runCachingOff.Load() }

// ResetRunCache drops every memoised run (and the hit/miss counters) from
// the in-process tier. Entries in the persistent disk tier, if one is
// configured, survive — delete the cache directory to cold-start those.
// Benchmarks call it between iterations so repeated identical runs are
// measured honestly.
func ResetRunCache() {
	theRunCache.mu.Lock()
	theRunCache.m = make(map[string]*runCacheEntry)
	theRunCache.mu.Unlock()
	theRunCache.memHits.Store(0)
	theRunCache.diskHits.Store(0)
	theRunCache.sims.Store(0)
}

// RunCacheStats returns the cache's cumulative hit and miss counts. A hit
// is a run served without simulating (from either tier); a miss is a
// simulation that actually executed.
func RunCacheStats() (hits, misses int64) {
	d := RunCacheDetail()
	return d.MemHits + d.DiskHits, d.Sims
}

// RunCacheCounters breaks the cache accounting down by tier.
type RunCacheCounters struct {
	// MemHits counts runs served from the in-process tier (including
	// singleflight joins on an in-flight simulation).
	MemHits int64
	// DiskHits counts runs loaded from the persistent tier.
	DiskHits int64
	// Sims counts simulations that actually executed.
	Sims int64
}

// HitRate returns the fraction of cache-eligible runs served without
// simulating, in [0, 1]; 0 when nothing has run.
func (c RunCacheCounters) HitRate() float64 {
	total := c.MemHits + c.DiskHits + c.Sims
	if total == 0 {
		return 0
	}
	return float64(c.MemHits+c.DiskHits) / float64(total)
}

// Sub returns the counter deltas since an earlier snapshot.
func (c RunCacheCounters) Sub(earlier RunCacheCounters) RunCacheCounters {
	return RunCacheCounters{
		MemHits:  c.MemHits - earlier.MemHits,
		DiskHits: c.DiskHits - earlier.DiskHits,
		Sims:     c.Sims - earlier.Sims,
	}
}

// RunCacheDetail returns the cumulative per-tier cache counters.
func RunCacheDetail() RunCacheCounters {
	return RunCacheCounters{
		MemHits:  theRunCache.memHits.Load(),
		DiskHits: theRunCache.diskHits.Load(),
		Sims:     theRunCache.sims.Load(),
	}
}

// cacheable reports whether a run is a pure function of (cfg, specs,
// scheme) and safe to share.
func cacheable(cfg Config, specs []ProgramSpec) bool {
	if !RunCaching() {
		return false
	}
	if cfg.TelemetryEvery > 0 {
		return false
	}
	for _, s := range specs {
		if s.Source != nil {
			return false
		}
	}
	return true
}

// runKey content-hashes the full simulation input. Config, ProgramSpec and
// trace.Params are plain value structs (no pointers, no functions, no
// maps), so their %#v rendering is a faithful, deterministic
// serialisation. TestRunKeyHashableFields guards that property against
// future fields.
//
// Config.Shards is normalised out of the key: the worker count of a
// clustered run is a pure speed knob with byte-identical results (the
// contract TestShardCountSweepByteIdentical pins), so -shards 1 and
// -shards 8 runs of the same cell share one cache entry. Clusters, by
// contrast, changes the simulated topology and stays in the key.
//
// The sampling fields are normalised too, but differently, because
// sampling is semantic, not a speed knob: when sampling is off — fraction
// 0, or >= 1, which the engine serves with the classic full run,
// byte-identically by construction — every spelling collapses to the
// canonical zero fields and shares the full run's entry (the window is
// irrelevant when no window ever runs). An active fraction stays in the
// key verbatim — a sampled Result is an estimate, never interchangeable
// with the full run's — with the window resolved to its effective value
// so SampleWindow 0 and an explicit DefaultSampleWindow hash identically.
// TestRunKeySamplingNormalised pins both directions.
func runKey(cfg Config, specs []ProgramSpec, scheme Scheme) string {
	cfg.Shards = 0
	if !cfg.SamplingOn() {
		cfg.SampleFraction, cfg.SampleWindow = 0, 0
	} else {
		cfg.SampleWindow = cfg.EffectiveSampleWindow()
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%#v\x00", scheme, cfg)
	for _, s := range specs {
		fmt.Fprintf(h, "%#v\x00", s)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cachedRun memoises run() under the given key with singleflight
// semantics, consulting the persistent tier before simulating and writing
// fresh results through to it.
//
// Failures are never memoised: a run that errors (a cancelled context, a
// transient injected fault, a wedged watchdog abort) or panics (recovered
// into an error carrying the stack, as par.For does) evicts its entry so
// the next caller re-attempts, rather than poisoning the key for the
// process's lifetime. Callers already waiting on the singleflight share
// the error — they asked for that attempt — but retries (the sweep
// executor's backoff loop) get a fresh simulation.
func (c *runCache) cachedRun(key string, run func() (*Result, error)) (*Result, error) {
	c.mu.Lock()
	e, ok := c.m[key]
	if !ok {
		e = &runCacheEntry{}
		c.m[key] = e
	}
	c.mu.Unlock()
	const (
		joined = iota
		fromDisk
		simulated
	)
	from := joined
	e.once.Do(func() {
		if res, ok := theDiskCache.load(key); ok {
			e.res = res
			from = fromDisk
			return
		}
		from = simulated
		defer func() {
			if r := recover(); r != nil {
				e.res, e.err = nil, fmt.Errorf("run %s panicked: %v\n%s", key[:12], r, debug.Stack())
			}
		}()
		e.res, e.err = run()
		if e.err == nil {
			theDiskCache.store(key, e.res)
		}
	})
	switch from {
	case joined:
		c.memHits.Add(1)
	case fromDisk:
		c.diskHits.Add(1)
	case simulated:
		// The sim itself was counted in runSimUncached, which also covers
		// uncacheable runs (telemetry, trace sources, caching disabled) —
		// Sims means "simulations that actually executed", not "cache
		// misses".
	}
	if e.err != nil {
		c.mu.Lock()
		if c.m[key] == e {
			delete(c.m, key)
		}
		c.mu.Unlock()
	}
	return e.res, e.err
}

// runSim is the cache-aware funnel every scheme-based driver in this
// package goes through. While a sweep plan is being built (PlanSweep) it
// records the cell and returns a stub instead of simulating.
func runSim(cfg Config, specs []ProgramSpec, scheme Scheme) (*Result, error) {
	return runSimCtx(context.Background(), cfg, specs, scheme)
}

// runSimCtx is runSim under a context: the deadline/cancellation reaches
// the simulation's event loop (sim.RunContext polls it every
// watchdog-check epoch), so an in-flight cell stops within one epoch of
// cancellation rather than running to completion. Under the singleflight
// the first caller's context governs the shared attempt; a join cannot
// abandon it early, but a cancelled attempt is not memoised (see
// cachedRun), so later callers retry cleanly.
func runSimCtx(ctx context.Context, cfg Config, specs []ProgramSpec, scheme Scheme) (*Result, error) {
	if pc := activePlan.Load(); pc != nil {
		return pc.record(cfg, specs, scheme), nil
	}
	if !cacheable(cfg, specs) {
		return runSimUncached(ctx, cfg, specs, scheme)
	}
	return theRunCache.cachedRun(runKey(cfg, specs, scheme), func() (*Result, error) {
		if simCellHook != nil {
			if err := simCellHook(runKey(cfg, specs, scheme)); err != nil {
				return nil, err
			}
		}
		return runSimUncached(ctx, cfg, specs, scheme)
	})
}

// simCellHook, when non-nil, runs before every real (cache-missing)
// simulation in the runSim funnel. It exists for tests, which use it to
// inject transient failures and artificial latency into sweep cells.
var simCellHook func(key string) error
