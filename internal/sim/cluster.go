package sim

import (
	"context"
	"fmt"
	"math"

	"profess/internal/mem"
	"profess/internal/par"
	"profess/internal/telemetry"
)

// Clustered execution: a Config with Clusters > 1 describes a fleet of
// independent sub-machines ("sockets"), each a full System — cores, L3
// slice, controller, channels, policy — on its own timing wheel. Clusters
// share no simulated state and exchange no messages, so a fleet is one
// independent run per cluster plus a merge, and the clusters run on
// Config.Shards worker goroutines with byte-identical results at any
// worker count.
//
// Why clusters and not per-channel pieces of one machine: inside a
// machine the front-end and its channels are coupled at zero latency —
// Controller.serve enqueues into a channel at the current cycle, and a
// completing request resumes its core synchronously — so the pieces of
// one machine cannot run apart. A cluster owns all of its zero-latency
// couplings, so it is the finest unit that runs on its own. On the
// Scale16 configuration each cluster owns exactly one channel.
//
// The run has two phases, each one parallel pass over the clusters:
//
//   - Phase one runs every cluster until all its programs have completed
//     once, or until it freezes at MaxCycles.
//   - Phase two runs every cluster that did not freeze up to the fleet
//     stop cycle (fleetStop), so the clusters' counters cover a common
//     span of simulated time; a cluster that finished early keeps its
//     programs repeating, as a single machine does (§4.2).

// clusterStopQuantum is the granularity of the fleet stop cycle. Results,
// goldens and run-cache entries of clustered runs all depend on it.
const clusterStopQuantum = 8192

// fleetStop returns the exclusive cycle bound of phase two: one grace
// quantum after the quantum in which the last cluster's phase one ended.
func fleetStop(states []*clusterState) int64 {
	var last int64
	for _, st := range states {
		last = max(last, st.sys.Queue.Now())
	}
	return (last/clusterStopQuantum + 2) * clusterStopQuantum
}

// clusterState is the runner's per-cluster bookkeeping.
type clusterState struct {
	sys       *System
	remaining *int
	doneAt    int64 // cycle every program first completed (0 = not yet)
	frozen    bool  // stopped stepping (MaxCycles reached)
	wd        watchdog
}

// run steps the cluster's events before the cycle bound, stopping early
// once doneAt is set when untilDone is true. Like the single-machine loop
// it runs the first event at or past MaxCycles and then freezes.
func (st *clusterState) run(k int, bound int64, untilDone bool) error {
	q := st.sys.Queue
	maxCycles := st.sys.Cfg.MaxCycles
	for !st.frozen && !(untilDone && st.doneAt != 0) {
		t, ok := q.NextAt()
		if !ok || t >= bound {
			return nil
		}
		q.Step()
		if maxCycles > 0 && q.Now() >= maxCycles {
			st.frozen = true
		} else if st.wd.due() {
			if err := st.wd.check(q.Now()); err != nil {
				return fmt.Errorf("sim: cluster %d: %w", k, err)
			}
		}
	}
	return nil
}

// runClustered executes a Clusters > 1 configuration. Results are a
// deterministic merge of the per-cluster results and are byte-identical
// for every Shards value. A non-nil arena supplies (and keeps) the
// per-cluster machines: cluster construction happens on this goroutine
// before the workers start and the workers all join before this function
// returns, so arena custody never overlaps a running fleet.
func runClustered(ctx context.Context, cfg Config, specs []ProgramSpec, scheme Scheme, arena *SystemArena) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Clusters
	if len(specs) == 0 || len(specs)%n != 0 {
		return nil, fmt.Errorf("sim: %d programs cannot split evenly across %d clusters", len(specs), n)
	}
	per := len(specs) / n

	states := make([]*clusterState, n)
	for k := range states {
		policy, err := NewPolicy(scheme, per, cfg.Scale)
		if err != nil {
			return nil, err
		}
		sys, err := arena.clusterMachine(k, n, cfg.clusterSlice(k), specs[k*per:(k+1)*per], policy)
		if err != nil {
			return nil, fmt.Errorf("sim: cluster %d: %w", k, err)
		}
		st := &clusterState{sys: sys, wd: newWatchdog(ctx)}
		st.remaining = sys.startCores(func(now int64) { st.doneAt = now })
		states[k] = st
	}

	workers := max(cfg.Shards, 1)
	err := par.For(ctx, n, workers, func(k int) error { return states[k].run(k, math.MaxInt64, true) })
	if err == nil {
		stop := fleetStop(states)
		err = par.For(ctx, n, workers, func(k int) error { return states[k].run(k, stop, false) })
	}
	for _, st := range states {
		for _, c := range st.sys.Cores {
			c.Stop()
		}
	}
	if err != nil {
		return nil, err
	}
	return mergeClustered(cfg, states)
}

// mergeClustered folds the per-cluster results into one Result in cluster
// order — a pure function of deterministic inputs.
func mergeClustered(cfg Config, states []*clusterState) (*Result, error) {
	merged := &Result{ClusterDone: make([]int64, len(states))}
	var (
		stcHits, stcMisses int64
		l3Hits, l3Misses   int64
		chans              []*mem.Channel
		telParts           []telemetry.MergePart
	)
	for k, st := range states {
		res, err := st.sys.gather(st.frozen && *st.remaining > 0)
		if err != nil {
			return nil, fmt.Errorf("sim: cluster %d: %w", k, err)
		}
		merged.Scheme = res.Scheme
		if res.Cycles > merged.Cycles {
			merged.Cycles = res.Cycles
		}
		merged.TimedOut = merged.TimedOut || res.TimedOut
		merged.PerCore = append(merged.PerCore, res.PerCore...)
		merged.Counts.Add(res.Counts)
		merged.STReads += res.STReads
		merged.STWrites += res.STWrites
		merged.Resilience.Add(res.Resilience)
		merged.ClusterDone[k] = st.doneAt
		for _, stc := range st.sys.Ctl.STCs() {
			stcHits += stc.Hits
			stcMisses += stc.Misses
		}
		l3Hits += st.sys.L3.Hits
		l3Misses += st.sys.L3.Misses
		chans = append(chans, st.sys.Ctl.Channels()...)
		if res.Telemetry != nil {
			telParts = append(telParts, telemetry.MergePart{Prefix: fmt.Sprintf("c%d.", k), S: res.Telemetry})
		}
	}
	if t := stcHits + stcMisses; t > 0 {
		merged.STCHitRate = float64(stcHits) / float64(t)
	}
	if t := l3Hits + l3Misses; t > 0 {
		merged.L3HitRate = float64(l3Hits) / float64(t)
	}
	if demand := merged.Counts.DemandAccesses(); demand > 0 {
		merged.SwapFraction = float64(merged.Counts.Swaps) / float64(demand)
	}
	rep := cfg.Energy.Evaluate(merged.Counts, merged.Cycles, cfg.Channels)
	merged.EnergyEff = rep.Efficiency()
	merged.Watts = rep.Watts()
	merged.NVM = nvmWear(chans, merged.Cycles)
	merged.Telemetry = telemetry.Merge(telParts)
	return merged, nil
}
