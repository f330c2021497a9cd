package sim

import (
	"context"

	"profess/internal/hybrid"
)

// SystemArena caches one constructed System and reuses it across runs of
// the same structural shape, resetting the machine in place instead of
// rebuilding it. Construction is the dominant per-cell cost of a planned
// sweep once the hot paths are allocation-free: every cell reallocates
// the channels, the flattened ST/STC/cache arrays, the freelists and the
// timing wheel just to tear them down again. The arena turns that into a
// handful of clear()s and free-list rewinds.
//
// An arena is single-goroutine state: each sweep worker owns one (see
// SweepPlan.ExecuteOpts in the root package), so there is no locking on
// the hot path. It holds a handful of machines, one per recently-used
// shape: experiment drivers routinely interleave shapes (a multi-program
// cell, then its single-core alone-IPC baselines, then the next cell),
// and a single-machine cache would rebuild on every alternation. Beyond
// arenaMaxMachines shapes the least-recently-used machine is dropped.
// Clustered configurations (Clusters > 1) keep their per-cluster machines
// in a separate fleet cache (see clusterMachine).
//
// Correctness contract: a reused machine must be byte-identical to a
// fresh one — same Result JSON, same telemetry stream. Every component
// Reset (event wheel, channels, controller, STCs, allocator, L3,
// histograms) restores exactly the state its constructor builds, and the
// differential arena-vs-fresh test pins the end-to-end guarantee the
// same way the shard-count sweep pins the clustered runner's.
type SystemArena struct {
	machines []arenaMachine
	tick     int64

	// The cluster fleet: one machine per cluster index of the last
	// clustered configuration this arena served (all clusters of an even
	// split share one shape). Kept separately from machines because a
	// fleet's machines are alive concurrently.
	clusterShape arenaShape
	clusterSys   []*System

	// Builds counts fresh constructions (shape misses), Reuses in-place
	// resets (shape hits). Exposed for tests and diagnostics.
	Builds int64
	Reuses int64
}

// arenaMachine is one cached (shape, machine) pair with its recency
// stamp.
type arenaMachine struct {
	shape   arenaShape
	sys     *System
	lastUse int64
}

// arenaMaxMachines bounds how many shapes one arena keeps live. The
// standard sweeps alternate between at most a few shapes at a time (cell
// + baselines, or one sensitivity variant and its neighbours); beyond
// that, keeping old machines only pins memory.
const arenaMaxMachines = 4

// arenaShape is the comparable structure key of a System: every Config
// field that is baked into component geometry at construction time.
// Everything else — seed, instruction budget, latencies read from s.Cfg,
// fault plan, telemetry epoch, the specs' generator parameters — is
// rewound or rebuilt per reset and deliberately excluded, as is the
// scheme: policies are cheap and constructed fresh for every cell.
type arenaShape struct {
	cores      int
	channels   int
	m1Capacity int64
	m2Slots    int
	regions    int
	l3Capacity int64
	l3Ways     int
	stcEntries int
	stcWays    int
	modelST    bool
	m2TWR      float64
	numSpecs   int
}

// shapeFor derives the structure key for a configuration and spec count.
func shapeFor(cfg Config, numSpecs int) arenaShape {
	return arenaShape{
		cores:      cfg.Cores,
		channels:   cfg.Channels,
		m1Capacity: cfg.M1Capacity,
		m2Slots:    cfg.M2Slots,
		regions:    cfg.Regions,
		l3Capacity: cfg.L3Capacity,
		l3Ways:     cfg.L3Ways,
		stcEntries: cfg.STCEntries,
		stcWays:    cfg.STCWays,
		modelST:    cfg.ModelSTTraffic,
		m2TWR:      cfg.M2TWRFactor,
		numSpecs:   numSpecs,
	}
}

// RunContext runs one simulation through the arena: a shape hit resets
// the cached machine in place, a miss (or a nil arena) builds fresh.
// Clustered configurations run through runClustered with the arena
// supplying (and keeping) the per-cluster machines.
func (a *SystemArena) RunContext(ctx context.Context, cfg Config, specs []ProgramSpec, scheme Scheme) (*Result, error) {
	if a == nil {
		return RunContext(ctx, cfg, specs, scheme)
	}
	if cfg.Clusters > 1 {
		return runClustered(ctx, cfg, specs, scheme, a)
	}
	policy, err := NewPolicy(scheme, len(specs), cfg.Scale)
	if err != nil {
		return nil, err
	}
	shape := shapeFor(cfg, len(specs))
	a.tick++
	for i := range a.machines {
		m := &a.machines[i]
		if m.shape != shape {
			continue
		}
		if err := m.sys.reset(cfg, specs, policy); err != nil {
			// A failed reset leaves the machine half-rewound: drop it so
			// the next cell rebuilds. The error is the same one NewSystem
			// would return for these inputs (validation, page-frame
			// exhaustion).
			a.machines[i] = a.machines[len(a.machines)-1]
			a.machines = a.machines[:len(a.machines)-1]
			return nil, err
		}
		m.lastUse = a.tick
		a.Reuses++
		return m.sys.RunContext(ctx)
	}
	sys, err := NewSystem(cfg, specs, policy)
	if err != nil {
		return nil, err
	}
	if len(a.machines) < arenaMaxMachines {
		a.machines = append(a.machines, arenaMachine{shape, sys, a.tick})
	} else {
		lru := 0
		for i := 1; i < len(a.machines); i++ {
			if a.machines[i].lastUse < a.machines[lru].lastUse {
				lru = i
			}
		}
		a.machines[lru] = arenaMachine{shape, sys, a.tick}
	}
	a.Builds++
	return sys.RunContext(ctx)
}

// clusterMachine returns the machine for cluster k of an n-cluster fleet:
// a reset of the cached one when the fleet shape matches, a fresh build
// otherwise. A nil arena always builds fresh. runClustered calls it for
// k = 0..n-1 in order on one goroutine, before any worker starts.
func (a *SystemArena) clusterMachine(k, n int, cfg Config, specs []ProgramSpec, policy hybrid.Policy) (*System, error) {
	if a == nil {
		return NewSystem(cfg, specs, policy)
	}
	shape := shapeFor(cfg, len(specs))
	if k == 0 && (len(a.clusterSys) != n || a.clusterShape != shape) {
		a.clusterSys = make([]*System, n)
		a.clusterShape = shape
	}
	if shape != a.clusterShape {
		// An uneven fleet (cluster shapes differ): serve this cluster
		// uncached rather than corrupting the fleet cache.
		return NewSystem(cfg, specs, policy)
	}
	if sys := a.clusterSys[k]; sys != nil {
		if err := sys.reset(cfg, specs, policy); err != nil {
			a.clusterSys[k] = nil
			return nil, err
		}
		a.Reuses++
		return sys, nil
	}
	sys, err := NewSystem(cfg, specs, policy)
	if err != nil {
		return nil, err
	}
	a.clusterSys[k] = sys
	a.Builds++
	return sys, nil
}

// reset rewinds a finished (or aborted) machine to the state NewSystem
// builds for (cfg, specs, policy), reusing every allocation whose size is
// fixed by the arena shape. The caller guarantees the shape matches.
func (s *System) reset(cfg Config, specs []ProgramSpec, policy hybrid.Policy) error {
	if err := checkFit(cfg, specs); err != nil {
		return err
	}
	// Order matters only at the edges: the event wheel first (dropping
	// every pending event, so stale ops cannot fire into reset state) and
	// core construction last (it allocates frames from the reset
	// allocator and telemetry schedules its first tick on the reset
	// wheel).
	s.Queue.Reset()
	s.Alloc.Reset(cfg.Seed)
	for _, ch := range s.Ctl.Channels() {
		ch.Reset()
	}
	s.Ctl.Reset(policy)
	s.L3.Reset()
	clear(s.Front.perCoreHits)
	clear(s.Front.perCoreMisses)
	s.Front.hitLat = cfg.L3HitLatency
	s.Cfg = cfg
	s.Policy = policy
	s.specs = specs
	// The resets above disarmed every injector.
	s.Inj = wireFaults(cfg.Faults, s.Ctl, policy)
	if err := s.buildCores(); err != nil {
		return err
	}
	return s.wireTelemetry()
}
