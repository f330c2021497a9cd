package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"profess/internal/workload"
)

// scale16TestConfig is the Scale16 system shrunk to test size.
func scale16TestConfig(t *testing.T, instructions int64) (Config, []ProgramSpec) {
	t.Helper()
	cfg := Scale16Config(PaperScale)
	cfg.Instructions = instructions
	specs, err := SpecsForPrograms(workload.Fleet16(), cfg.Scale)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, specs
}

// runShards runs the fleet at the given worker count and returns the
// Result, its canonical JSON, and the telemetry JSONL (empty when
// telemetry is off).
func runShards(t *testing.T, cfg Config, specs []ProgramSpec, shards int) (*Result, []byte, []byte) {
	t.Helper()
	c := cfg
	c.Shards = shards
	res, err := Run(c, specs, SchemeProFess)
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	js, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var tele bytes.Buffer
	if res.Telemetry != nil {
		if err := res.Telemetry.WriteJSONL(&tele); err != nil {
			t.Fatal(err)
		}
	}
	return res, js, tele.Bytes()
}

// TestShardCountSweepByteIdentical is the acceptance contract of the shard
// knob: a fixed-seed Scale16 run produces byte-identical Result JSON and
// byte-identical telemetry for -shards 1, 2, 4 and 8. Run under -race in
// CI (make shard-smoke), it also proves the worker fan-out is data-race
// free.
func TestShardCountSweepByteIdentical(t *testing.T) {
	cfg, specs := scale16TestConfig(t, 30_000)
	cfg.TelemetryEvery = 25_000
	res1, wantJS, wantTele := runShards(t, cfg, specs, 1)
	if len(wantTele) == 0 {
		t.Fatal("telemetry enabled but no epochs exported")
	}
	if len(res1.PerCore) != 16 {
		t.Fatalf("got %d per-core results, want 16", len(res1.PerCore))
	}
	for _, shards := range []int{2, 4, 8} {
		_, js, tele := runShards(t, cfg, specs, shards)
		if !bytes.Equal(js, wantJS) {
			t.Errorf("shards=%d: Result JSON diverged from shards=1\n got: %s\nwant: %s", shards, js, wantJS)
		}
		if !bytes.Equal(tele, wantTele) {
			t.Errorf("shards=%d: telemetry diverged from shards=1", shards)
		}
	}
}

// TestClusteredResultShape pins the clustered-only surfaces: per-cluster
// completion cycles land in ClusterDone, every cluster contributes its
// programs in spec order, and the merged telemetry carries the per-cluster
// prefixes.
func TestClusteredResultShape(t *testing.T) {
	cfg, specs := scale16TestConfig(t, 20_000)
	cfg.TelemetryEvery = 20_000
	res, _, _ := runShards(t, cfg, specs, 4)
	if len(res.ClusterDone) != cfg.Clusters {
		t.Fatalf("ClusterDone has %d entries, want %d", len(res.ClusterDone), cfg.Clusters)
	}
	for k, c := range res.ClusterDone {
		if c <= 0 {
			t.Errorf("cluster %d never completed (ClusterDone=%d)", k, c)
		}
		if c > res.Cycles {
			t.Errorf("cluster %d completed at %d, after the merged run end %d", k, c, res.Cycles)
		}
	}
	for i, cr := range res.PerCore {
		if cr.Program != specs[i].Name {
			t.Errorf("PerCore[%d] is %s, want %s (cluster-order merge must preserve spec order)", i, cr.Program, specs[i].Name)
		}
		if cr.Instructions == 0 {
			t.Errorf("PerCore[%d] (%s) retired no instructions", i, cr.Program)
		}
	}
	names := strings.Join(res.Telemetry.Names(), ",")
	for _, want := range []string{"c0.p0.mcf.ipc", "c7.chan0.m2_demand"} {
		if !strings.Contains(names, want) {
			t.Errorf("merged telemetry lacks %q (have %s)", want, names)
		}
	}
}

// TestClusteredHonoursContext: cancellation aborts a clustered run from
// whatever epoch it is in.
func TestClusteredHonoursContext(t *testing.T) {
	cfg, specs := scale16TestConfig(t, 5_000_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, cfg, specs, SchemeProFess); err == nil {
		t.Fatal("cancelled clustered run returned no error")
	}
}

// TestClusteredMaxCycles: a cluster that cannot finish freezes at
// MaxCycles and flags the merged result, while the validation layer
// rejects non-divisible topologies outright.
func TestClusteredMaxCycles(t *testing.T) {
	cfg, specs := scale16TestConfig(t, 5_000_000)
	cfg.MaxCycles = 40_000
	res, err := Run(cfg, specs, SchemeProFess)
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Error("5M-instruction fleet finished within 40K cycles?")
	}
	if res.Cycles > cfg.MaxCycles+clusterStopQuantum {
		t.Errorf("frozen run reports %d cycles, beyond MaxCycles %d + one stop quantum", res.Cycles, cfg.MaxCycles)
	}

	bad := Scale16Config(PaperScale)
	bad.Cores = 15 // not divisible by 8 clusters
	if err := bad.Validate(); err == nil {
		t.Error("15 cores across 8 clusters validated")
	}
	bad = Scale16Config(PaperScale)
	bad.Shards = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative shard count validated")
	}
	if _, err := Run(Scale16Config(PaperScale), specs[:3], SchemeProFess); err == nil {
		t.Error("3 programs across 8 clusters ran")
	}
}

// TestClusterSliceDerivation pins the resource split: every partitioned
// capacity divides evenly and seeds differ per cluster.
func TestClusterSliceDerivation(t *testing.T) {
	cfg := Scale16Config(1)
	seeds := map[uint64]bool{}
	for k := 0; k < cfg.Clusters; k++ {
		sub := cfg.clusterSlice(k)
		if sub.Clusters != 1 || sub.Shards != 0 {
			t.Fatalf("cluster %d slice is itself clustered: %+v", k, sub)
		}
		if sub.Cores*cfg.Clusters != cfg.Cores || sub.Channels*cfg.Clusters != cfg.Channels {
			t.Fatalf("cluster %d core/channel split uneven", k)
		}
		if sub.M1Capacity*int64(cfg.Clusters) != cfg.M1Capacity || sub.L3Capacity*int64(cfg.Clusters) != cfg.L3Capacity {
			t.Fatalf("cluster %d capacity split uneven", k)
		}
		if err := sub.Validate(); err != nil {
			t.Fatalf("cluster %d slice invalid: %v", k, err)
		}
		if seeds[sub.Seed] {
			t.Fatalf("cluster %d reuses another cluster's seed", k)
		}
		seeds[sub.Seed] = true
	}
}

// TestClusterIndependence pins the property the clustered runner rests on:
// a cluster inside a fleet runs exactly as the same cluster run on its own.
// Every cluster's completion cycle equals its standalone run's Cycles, and
// on fleets cut short by MaxCycles every cluster that timed out matches its
// standalone run program for program.
func TestClusterIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg, specs := scale16TestConfig(t, 60_000)
	per := len(specs) / cfg.Clusters
	standalone := func(c Config, k int) *Result {
		t.Helper()
		res, err := Run(c.clusterSlice(k), specs[k*per:(k+1)*per], SchemeProFess)
		if err != nil {
			t.Fatalf("cluster %d standalone: %v", k, err)
		}
		return res
	}
	fleet, err := Run(cfg, specs, SchemeProFess)
	if err != nil {
		t.Fatal(err)
	}
	for k, done := range fleet.ClusterDone {
		if want := standalone(cfg, k).Cycles; done != want {
			t.Errorf("cluster %d completed at %d in the fleet, %d on its own", k, done, want)
		}
	}
	for _, maxCycles := range []int64{131_071, 237_568, 950_272, 1_368_063} {
		c := cfg
		c.MaxCycles = maxCycles
		fleet, err := Run(c, specs, SchemeProFess)
		if err != nil {
			t.Fatal(err)
		}
		timedOut := 0
		for k, done := range fleet.ClusterDone {
			if done != 0 {
				continue
			}
			timedOut++
			got, _ := json.Marshal(fleet.PerCore[k*per : (k+1)*per])
			want, _ := json.Marshal(standalone(c, k).PerCore)
			if !bytes.Equal(got, want) {
				t.Errorf("MaxCycles %d: timed-out cluster %d diverged from its standalone run\n got: %s\nwant: %s",
					maxCycles, k, got, want)
			}
		}
		if timedOut == 0 {
			t.Errorf("MaxCycles %d timed out no cluster", maxCycles)
		}
	}
}
