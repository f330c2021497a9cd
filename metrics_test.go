package profess

import (
	"math"
	"testing"
)

func TestSlowdown(t *testing.T) {
	if got := Slowdown(2, 1); got != 2 {
		t.Errorf("Slowdown = %v", got)
	}
	if got := Slowdown(1, 0); got != 0 {
		t.Errorf("degenerate Slowdown = %v, want 0", got)
	}
}

func TestWeightedSpeedup(t *testing.T) {
	// Four unslowed programs: WS = 4 (the quad-core ideal).
	if got := WeightedSpeedup([]float64{1, 1, 1, 1}); got != 4 {
		t.Errorf("WS = %v, want 4", got)
	}
	if got := WeightedSpeedup([]float64{2, 4}); got != 0.75 {
		t.Errorf("WS = %v, want 0.75", got)
	}
	if got := WeightedSpeedup([]float64{0, 2}); got != 0.5 {
		t.Errorf("WS with degenerate slowdown = %v, want 0.5", got)
	}
}

func TestUnfairness(t *testing.T) {
	if got := Unfairness([]float64{1.5, 3.7, 2.2}); got != 3.7 {
		t.Errorf("Unfairness = %v, want the max slowdown", got)
	}
	if got := Unfairness(nil); got != 0 {
		t.Errorf("empty Unfairness = %v", got)
	}
}

func TestWorkBeforeWearOut(t *testing.T) {
	cases := []struct {
		name          string
		lifetime, ipc float64
		want          float64
	}{
		{"plain", 1000, 0.5, 500},
		{"zero lifetime", 0, 1, 0},
		{"zero ipc", 1000, 0, 0},
		{"negative ipc", 1000, -1, 0},
		{"negative lifetime", -5, 1, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := WorkBeforeWearOut(c.lifetime, c.ipc); got != c.want {
				t.Errorf("WorkBeforeWearOut(%v, %v) = %v, want %v", c.lifetime, c.ipc, got, c.want)
			}
		})
	}
}

func TestRatio(t *testing.T) {
	if Ratio(3, 2) != 1.5 || Ratio(1, 0) != 0 {
		t.Error("Ratio wrong")
	}
}

// TestRunWorkloadAloneIPCIsStandAloneRun checks that eq. 1's baseline is
// the program's own fault-free stand-alone run in the workload's system,
// keyed like any other run: configurations that differ in a field such
// as Seed get their own baselines, and a fault plan is stripped.
func TestRunWorkloadAloneIPCIsStandAloneRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	plan, err := ParseFaultPlan("rate=1e-3,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 7} {
		cfg := MultiCoreConfig(PaperScale)
		cfg.Instructions = 100_000
		cfg.Seed = seed
		cfg.Faults = plan
		wr, err := RunWorkload("w09", SchemePoM, cfg)
		if err != nil {
			t.Fatal(err)
		}
		clean := cfg
		clean.Faults = FaultPlan{}
		for i, c := range wr.Result.PerCore {
			res, err := RunProgram(c.Program, SchemePoM, clean)
			if err != nil {
				t.Fatal(err)
			}
			if want := res.PerCore[0].FirstIPC; wr.AloneIPC[i] != want {
				t.Errorf("seed %d, %s: AloneIPC %v, stand-alone run's FirstIPC %v", seed, c.Program, wr.AloneIPC[i], want)
			}
		}
	}
}

func TestRunWorkloadMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := MultiCoreConfig(PaperScale)
	cfg.Instructions = 120_000
	wr, err := RunWorkload("w02", SchemeProFess, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(wr.Slowdowns) != 4 || len(wr.AloneIPC) != 4 {
		t.Fatalf("metrics shape: %+v", wr)
	}
	for i, s := range wr.Slowdowns {
		if s < 0.8 {
			t.Errorf("slowdown[%d] = %v implausibly below 1", i, s)
		}
		if s > 100 {
			t.Errorf("slowdown[%d] = %v implausibly high", i, s)
		}
	}
	if math.Abs(wr.WeightedSpeedup-WeightedSpeedup(wr.Slowdowns)) > 1e-12 {
		t.Error("WS inconsistent")
	}
	if math.Abs(wr.MaxSlowdown-Unfairness(wr.Slowdowns)) > 1e-12 {
		t.Error("unfairness inconsistent")
	}
	if wr.MaxSlowdown < 1 {
		t.Errorf("max slowdown %v under contention should exceed 1", wr.MaxSlowdown)
	}
}

func TestPublicCatalogues(t *testing.T) {
	if len(Programs()) != 10 {
		t.Errorf("programs = %d", len(Programs()))
	}
	if len(Workloads()) != 19 {
		t.Errorf("workloads = %d", len(Workloads()))
	}
	if len(Schemes()) != 7 {
		t.Errorf("schemes = %d", len(Schemes()))
	}
}

func TestRunProgramUnknown(t *testing.T) {
	cfg := SingleCoreConfig(PaperScale)
	if _, err := RunProgram("nosuch", SchemePoM, cfg); err == nil {
		t.Error("unknown program should fail")
	}
	if _, err := RunMix("w99", SchemePoM, MultiCoreConfig(PaperScale)); err == nil {
		t.Error("unknown workload should fail")
	}
}
