// Package sim assembles the full simulated system of Table 8 — cores,
// shared L3, hybrid memory controller, channels — and runs single- and
// multi-program experiments, producing the paper's figures of merit.
package sim

import (
	"fmt"

	"profess/internal/cache"
	"profess/internal/cpu"
	"profess/internal/energy"
	"profess/internal/fault"
)

// Config describes one simulated system. All capacities are bytes.
type Config struct {
	Cores    int
	Channels int
	// M1Capacity is the total M1 block area across channels; M2 capacity
	// follows from M2Slots (the 1:8 ratio of §2.2 by default).
	M1Capacity int64
	M2Slots    int
	Regions    int

	L3Capacity   int64
	L3Ways       int
	L3HitLatency int64

	// STCEntries is the total Swap-group Table Cache capacity in entries
	// (8 B each); STCWays its associativity (Table 8: 8).
	STCEntries int
	STCWays    int

	// Clusters partitions the machine into that many independent
	// sub-machines ("sockets"): each cluster owns Cores/Clusters cores, its
	// own L3 slice, controller, Channels/Clusters channels, policy instance
	// and timing wheel, and runs on its own up to the fleet stop cycle (see
	// cluster.go). 0 or 1 is the classic single machine.
	// Clusters is a semantic knob — it changes the simulated topology and
	// therefore the results — so it participates in run-cache keys.
	Clusters int
	// Shards is the number of worker goroutines that run the clusters of a
	// clustered run (0 or 1 = one). It is a pure speed knob: results are
	// byte-identical for every value. Ignored when Clusters <= 1; excluded
	// from run-cache keys.
	Shards int

	CoreCfg cpu.Config
	// Instructions is the per-run instruction budget per program.
	Instructions int64
	// MaxCycles is a safety stop (0 = no limit).
	MaxCycles int64

	// SampleFraction, when in (0, 1), enables the interval-sampling
	// execution mode: only that fraction of simulated time runs under the
	// full cycle model (short detailed windows on a seeded deterministic
	// schedule), and the spans between windows fast-forward functionally —
	// cores replay their generators against closed-form channel latencies
	// while all history-carrying state keeps warming. 0 (the default) and
	// any value >= 1 run the classic full-fidelity simulation; a fraction
	// of exactly 1.0 is therefore byte-identical to a full run by
	// construction. Sampling is a semantic knob (results are estimates),
	// so it participates in run-cache keys — but only when active.
	SampleFraction float64
	// SampleWindow is the detailed-window length in cycles for the
	// sampled mode (DefaultSampleWindow when 0).
	SampleWindow int64

	ModelSTTraffic bool
	Seed           uint64
	// Scale records the capacity scale relative to the paper's system
	// (1.0 = Table 8); policy defaults (e.g. RSM's M_samp) derive from it.
	Scale float64

	// M2TWRFactor scales M2's write-recovery latency for the §5.2
	// sensitivity study (1.0 = Table 8's t_WR_M2 = 275 ns).
	M2TWRFactor float64

	// Faults is the fault-injection plan. The zero plan wires no injector
	// and the simulation stays bit-identical to a fault-free build.
	Faults fault.Plan

	// TelemetryEvery enables the per-epoch telemetry sampler: every N CPU
	// cycles the registered gauges and counters are snapshotted into
	// Result.Telemetry. 0 disables telemetry entirely — no sampler is
	// built, no events are scheduled, and the run stays bit-identical and
	// cycle-identical to a build without the subsystem.
	TelemetryEvery int64
	// TelemetryCapacity bounds the in-memory epoch ring
	// (telemetry.DefaultCapacity when 0); the oldest epochs are evicted
	// once it fills.
	TelemetryCapacity int

	Energy energy.Model
}

// WithM1Ratio derives a configuration with a different M1:M2 capacity
// ratio (1:n) while keeping the M2 capacity fixed, matching the §5.2/§5.4
// sensitivity methodology: at 1:4 M1 doubles, at 1:16 it halves.
func (c Config) WithM1Ratio(n int) Config {
	if n <= 0 {
		return c
	}
	m2 := c.M1Capacity * int64(c.M2Slots)
	c.M2Slots = n
	c.M1Capacity = scaleBytes(m2/int64(n), 1, int64(c.Channels)*2048)
	return c
}

// PaperScale is the default capacity scale of this reproduction: 1/32 of
// Table 8, preserving every ratio that drives the results (see DESIGN.md).
const PaperScale = 1.0 / 32

// MultiCoreConfig returns the quad-core evaluation system of Table 8 at
// the given scale: 4 cores, 2 channels, 256 MB M1 / 2 GB M2, 8 MB L3,
// 64-KB STC (8K entries), 500M instructions per program.
func MultiCoreConfig(scale float64) Config {
	return Config{
		Cores:          4,
		Channels:       2,
		M1Capacity:     scaleBytes(256<<20, scale, 2*2048),
		M2Slots:        8,
		Regions:        128,
		L3Capacity:     scaleBytes(8<<20, scale, 16*64),
		L3Ways:         16,
		L3HitLatency:   20,
		STCEntries:     scaleCount(8192, scale, 2*8),
		STCWays:        8,
		CoreCfg:        cpu.DefaultConfig(),
		Instructions:   int64(500e6 * scale),
		ModelSTTraffic: true,
		Seed:           1,
		Scale:          scale,
		Energy:         energy.Default(),
	}
}

// SingleCoreConfig returns the single-core system of §4.1 at the given
// scale: one channel and capacities of L3, STC, M1 and M2 scaled to a
// quarter of the quad-core system (64 MB M1, 2 MB L3, 32-KB STC).
func SingleCoreConfig(scale float64) Config {
	c := MultiCoreConfig(scale)
	c.Cores = 1
	c.Channels = 1
	c.M1Capacity = scaleBytes(64<<20, scale, 2048)
	c.L3Capacity = scaleBytes(2<<20, scale, 16*64)
	c.STCEntries = scaleCount(4096, scale, 8)
	return c
}

// Scale16Config returns the sixteen-program "datacenter node" scaling
// showcase at the given scale: 8 clusters of 2 cores + 1 channel each,
// 1 GB M1 / 8 GB M2 (GB-class at scale 1), 32 MB L3 and a 128-KB STC,
// all sliced evenly across the clusters. Pair it with workload.Fleet16;
// drive the worker count with Config.Shards.
func Scale16Config(scale float64) Config {
	return Config{
		Cores:    16,
		Channels: 8,
		Clusters: 8,
		// Quanta carry an extra ×8 so every capacity stays divisible by
		// the cluster count after scaling.
		M1Capacity:     scaleBytes(1<<30, scale, 8*2048*8),
		M2Slots:        8,
		Regions:        256,
		L3Capacity:     scaleBytes(32<<20, scale, 16*64*8),
		L3Ways:         16,
		L3HitLatency:   20,
		STCEntries:     scaleCount(16384, scale, 8*8*8),
		STCWays:        8,
		CoreCfg:        cpu.DefaultConfig(),
		Instructions:   int64(500e6 * scale),
		ModelSTTraffic: true,
		Seed:           1,
		Scale:          scale,
		Energy:         energy.Default(),
	}
}

// scaleBytes scales a capacity, rounding up to a multiple of quantum.
func scaleBytes(base int64, scale float64, quantum int64) int64 {
	v := int64(float64(base) * scale)
	if v < quantum {
		v = quantum
	}
	if r := v % quantum; r != 0 {
		v += quantum - r
	}
	return v
}

// scaleCount scales an entry count, rounding up to a multiple of quantum.
func scaleCount(base int, scale float64, quantum int) int {
	v := int(float64(base) * scale)
	if v < quantum {
		v = quantum
	}
	if r := v % quantum; r != 0 {
		v += quantum - r
	}
	return v
}

// DefaultSampleWindow is the detailed-window length of the sampled
// execution mode when Config.SampleWindow is 0. The restart transient
// after each fast-forward span decays in absolute time (~26 kilocycles,
// set by the swap latency; see warmupCycles), so windows must be long
// enough that the measured span dominates the warm-up; 240k was the
// accuracy/speedup sweet spot in the window sweep behind
// testdata/sample_envelope.json. Short diagnostic runs that need many
// windows should set Config.SampleWindow explicitly.
const DefaultSampleWindow int64 = 240_000

// SamplingOn reports whether the interval-sampling execution mode is
// active: a fraction strictly between 0 and 1. Zero disables it; 1 (or
// more) means "sample everything", which is served by the classic full
// run and is byte-identical to it.
func (c Config) SamplingOn() bool {
	return c.SampleFraction > 0 && c.SampleFraction < 1
}

// EffectiveSampleWindow resolves the detailed-window length, applying the
// default.
func (c Config) EffectiveSampleWindow() int64 {
	if c.SampleWindow > 0 {
		return c.SampleWindow
	}
	return DefaultSampleWindow
}

// Validate sanity-checks a configuration.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("sim: need at least one core")
	}
	if c.Channels <= 0 {
		return fmt.Errorf("sim: need at least one channel")
	}
	if c.Instructions <= 0 {
		return fmt.Errorf("sim: need a positive instruction budget")
	}
	if c.M2Slots <= 0 {
		return fmt.Errorf("sim: need at least one M2 slot per group")
	}
	if c.Regions <= c.Cores {
		return fmt.Errorf("sim: %d regions cannot host %d private regions plus shared ones", c.Regions, c.Cores)
	}
	// A set's LRU order is one 64-bit word of 4-bit way indices.
	if c.L3Ways < 1 || c.L3Ways > cache.MaxWays {
		return fmt.Errorf("sim: L3Ways %d outside 1..%d", c.L3Ways, cache.MaxWays)
	}
	if c.STCWays < 1 || c.STCWays > cache.MaxWays {
		return fmt.Errorf("sim: STCWays %d outside 1..%d", c.STCWays, cache.MaxWays)
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if c.TelemetryEvery < 0 {
		return fmt.Errorf("sim: negative telemetry epoch %d", c.TelemetryEvery)
	}
	if c.TelemetryCapacity < 0 {
		return fmt.Errorf("sim: negative telemetry capacity %d", c.TelemetryCapacity)
	}
	if c.Shards < 0 {
		return fmt.Errorf("sim: negative shard count %d", c.Shards)
	}
	if c.SampleFraction < 0 || c.SampleFraction != c.SampleFraction {
		return fmt.Errorf("sim: sample fraction %v must be non-negative (0 disables sampling, >= 1 runs full fidelity)", c.SampleFraction)
	}
	if c.SampleWindow < 0 {
		return fmt.Errorf("sim: negative sample window %d", c.SampleWindow)
	}
	if c.SamplingOn() {
		if c.Clusters > 1 {
			return fmt.Errorf("sim: interval sampling (fraction %v) cannot run on a clustered machine (%d clusters): the clustered runner has no fast-forward mode — drop Clusters or SampleFraction", c.SampleFraction, c.Clusters)
		}
		if c.TelemetryEvery > 0 {
			return fmt.Errorf("sim: interval sampling (fraction %v) cannot run with telemetry (epoch %d): epochs inside fast-forward spans would sample half-advanced state — drop TelemetryEvery or SampleFraction", c.SampleFraction, c.TelemetryEvery)
		}
	}
	if c.Clusters > 1 {
		n := c.Clusters
		if c.Cores%n != 0 || c.Channels%n != 0 {
			return fmt.Errorf("sim: %d clusters must divide cores (%d) and channels (%d) evenly",
				n, c.Cores, c.Channels)
		}
		if c.M1Capacity%int64(n) != 0 || c.L3Capacity%int64(n) != 0 {
			return fmt.Errorf("sim: %d clusters must divide M1 (%d B) and L3 (%d B) evenly",
				n, c.M1Capacity, c.L3Capacity)
		}
		if c.STCEntries%n != 0 || c.Regions%n != 0 {
			return fmt.Errorf("sim: %d clusters must divide STC entries (%d) and regions (%d) evenly",
				n, c.STCEntries, c.Regions)
		}
		if c.Regions/n <= c.Cores/n {
			return fmt.Errorf("sim: %d regions per cluster cannot host %d cores' private regions plus shared ones",
				c.Regions/n, c.Cores/n)
		}
	}
	return nil
}

// clusterSlice derives cluster k's share of a clustered configuration: a
// single-machine config with 1/Clusters of every partitioned resource and
// a cluster-salted seed, validated by the caller's Validate on the parent.
func (c Config) clusterSlice(k int) Config {
	n := c.Clusters
	sub := c
	sub.Clusters = 1
	sub.Shards = 0
	sub.Cores = c.Cores / n
	sub.Channels = c.Channels / n
	sub.M1Capacity = c.M1Capacity / int64(n)
	sub.L3Capacity = c.L3Capacity / int64(n)
	sub.STCEntries = c.STCEntries / n
	sub.Regions = c.Regions / n
	// Distinct allocator/generator salt per cluster, derived so the whole
	// fleet stays a pure function of the parent seed.
	sub.Seed = c.Seed ^ (uint64(k+1) * 0x9E3779B97F4A7C15)
	return sub
}
