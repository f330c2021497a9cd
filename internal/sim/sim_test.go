package sim

import (
	"strings"
	"testing"
)

func TestConfigValidation(t *testing.T) {
	good := MultiCoreConfig(PaperScale)
	if err := good.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	for _, c := range []struct {
		name   string
		mutate func(*Config)
		want   string // a fragment the error must contain
	}{
		{"zero cores", func(c *Config) { c.Cores = 0 }, "core"},
		{"zero channels", func(c *Config) { c.Channels = 0 }, "channel"},
		{"zero instructions", func(c *Config) { c.Instructions = 0 }, "instruction"},
		{"regions <= cores", func(c *Config) { c.Regions = 4 }, "regions"},
		{"zero L3 ways", func(c *Config) { c.L3Ways = 0 }, "L3Ways"},
		{"17 L3 ways", func(c *Config) { c.L3Ways = 17 }, "L3Ways"},
		{"65 L3 ways", func(c *Config) { c.L3Ways = 65 }, "L3Ways"},
		{"zero STC ways", func(c *Config) { c.STCWays = 0 }, "STCWays"},
		{"17 STC ways", func(c *Config) { c.STCWays = 17 }, "STCWays"},
	} {
		bad := good
		c.mutate(&bad)
		if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want an error naming %q", c.name, err, c.want)
		}
	}
	// The recency word's bound is inclusive at both ends.
	for _, ways := range []int{1, 16} {
		ok := good
		ok.L3Ways, ok.STCWays = ways, ways
		if err := ok.Validate(); err != nil {
			t.Errorf("%d-way L3 and STC: %v", ways, err)
		}
	}
}

func TestConfigScaling(t *testing.T) {
	full := MultiCoreConfig(1)
	scaled := MultiCoreConfig(PaperScale)
	if full.M1Capacity != 256<<20 {
		t.Errorf("full M1 = %d", full.M1Capacity)
	}
	if scaled.M1Capacity != 8<<20 {
		t.Errorf("scaled M1 = %d", scaled.M1Capacity)
	}
	if full.STCEntries != 8192 || scaled.STCEntries != 256 {
		t.Errorf("STC entries = %d / %d", full.STCEntries, scaled.STCEntries)
	}
	// The STC:groups coverage ratio is scale-invariant: 8K entries for
	// 128K groups = 6.25% at both scales.
	fullCov := float64(full.STCEntries) / float64(full.M1Capacity/2048)
	scaledCov := float64(scaled.STCEntries) / float64(scaled.M1Capacity/2048)
	if fullCov != scaledCov {
		t.Errorf("coverage changed with scale: %v vs %v", fullCov, scaledCov)
	}

	single := SingleCoreConfig(PaperScale)
	if single.Cores != 1 || single.Channels != 1 {
		t.Error("single-core shape wrong")
	}
	if single.M1Capacity != 2<<20 {
		t.Errorf("single-core M1 = %d", single.M1Capacity)
	}
}

func TestWithM1Ratio(t *testing.T) {
	cfg := MultiCoreConfig(PaperScale) // M1 8 MB, M2 64 MB
	quarter := cfg.WithM1Ratio(4)
	if quarter.M2Slots != 4 {
		t.Errorf("slots = %d", quarter.M2Slots)
	}
	if quarter.M1Capacity != 16<<20 {
		t.Errorf("1:4 M1 = %d, want 16 MB (M2 fixed at 64 MB)", quarter.M1Capacity)
	}
	sixteenth := cfg.WithM1Ratio(16)
	if sixteenth.M1Capacity != 4<<20 {
		t.Errorf("1:16 M1 = %d, want 4 MB", sixteenth.M1Capacity)
	}
	if cfg.WithM1Ratio(0).M1Capacity != cfg.M1Capacity {
		t.Error("ratio 0 should be a no-op")
	}
}

func TestSchemeFactory(t *testing.T) {
	for _, s := range AllSchemes() {
		p, err := NewPolicy(s, 4, PaperScale)
		if err != nil {
			t.Errorf("%s: %v", s, err)
			continue
		}
		if p.Name() == "" {
			t.Errorf("%s: empty name", s)
		}
	}
	if _, err := NewPolicy("bogus", 4, PaperScale); err == nil {
		t.Error("unknown scheme should fail")
	}
}

func TestSpecsForWorkload(t *testing.T) {
	specs, err := SpecsForWorkload(mustWorkload(t, "w16"), PaperScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 4 {
		t.Fatalf("specs = %d", len(specs))
	}
	// w16 repeats libquantum: the two instances must differ in seed.
	if specs[0].Name != "libquantum" || specs[1].Name != "libquantum" {
		t.Fatal("w16 should start with two libquantum instances")
	}
	if specs[0].Params.Seed == specs[1].Params.Seed {
		t.Error("repeated program instances must have distinct seeds")
	}
	if _, err := SpecForProgram("nosuch", PaperScale); err == nil {
		t.Error("unknown program should fail")
	}
}

func TestRunDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := tinyConfig(1)
	cfg.Instructions = 150_000
	spec, err := SpecForProgram("soplex", PaperScale)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		res, err := Run(cfg, []ProgramSpec{spec}, SchemeProFess)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles {
		t.Errorf("cycles differ: %d vs %d", a.Cycles, b.Cycles)
	}
	if a.Counts.Swaps != b.Counts.Swaps {
		t.Errorf("swaps differ: %d vs %d", a.Counts.Swaps, b.Counts.Swaps)
	}
	if a.PerCore[0].Instructions != b.PerCore[0].Instructions {
		t.Error("instruction counts differ")
	}
}

func TestRunRejectsBadShapes(t *testing.T) {
	cfg := tinyConfig(1)
	spec, _ := SpecForProgram("lbm", PaperScale)
	// Two programs on a single-core system.
	if _, err := Run(cfg, []ProgramSpec{spec, spec}, SchemePoM); err == nil {
		t.Error("more programs than cores should fail")
	}
	if _, err := Run(cfg, nil, SchemePoM); err == nil {
		t.Error("no programs should fail")
	}
}

func TestStaticPolicyServesMostFromM2(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := tinyConfig(1)
	cfg.Instructions = 150_000
	spec, _ := SpecForProgram("milc", PaperScale)
	res, err := Run(cfg, []ProgramSpec{spec}, SchemeStatic)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Swaps != 0 {
		t.Errorf("static policy swapped %d times", res.Counts.Swaps)
	}
	// milc's footprint dwarfs M1: without migration only ~1/9 of blocks
	// (the slot-0 residents) are served from M1.
	if f := res.PerCore[0].M1Fraction; f > 0.3 {
		t.Errorf("M1 fraction %v too high for static management", f)
	}
}

func TestMigrationRaisesM1Fraction(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := tinyConfig(1)
	cfg.Instructions = 150_000
	spec, _ := SpecForProgram("lbm", PaperScale)
	static, err := Run(cfg, []ProgramSpec{spec}, SchemeStatic)
	if err != nil {
		t.Fatal(err)
	}
	mdm, err := Run(cfg, []ProgramSpec{spec}, SchemeMDM)
	if err != nil {
		t.Fatal(err)
	}
	if mdm.PerCore[0].M1Fraction <= static.PerCore[0].M1Fraction {
		t.Errorf("MDM M1 fraction %v should exceed static %v",
			mdm.PerCore[0].M1Fraction, static.PerCore[0].M1Fraction)
	}
	if mdm.Counts.Swaps == 0 {
		t.Error("MDM should have migrated something")
	}
	if mdm.SwapFraction <= 0 {
		t.Error("swap fraction should be positive")
	}
}

func TestSTTrafficModelled(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := tinyConfig(1)
	cfg.Instructions = 100_000
	spec, _ := SpecForProgram("milc", PaperScale)
	res, err := Run(cfg, []ProgramSpec{spec}, SchemePoM)
	if err != nil {
		t.Fatal(err)
	}
	if res.STReads == 0 {
		t.Error("STC misses should have generated ST reads")
	}
	if res.STCHitRate <= 0 || res.STCHitRate >= 1 {
		t.Errorf("implausible STC hit rate %v", res.STCHitRate)
	}
	// Disabling the model removes the traffic.
	cfg.ModelSTTraffic = false
	res2, err := Run(cfg, []ProgramSpec{spec}, SchemePoM)
	if err != nil {
		t.Fatal(err)
	}
	if res2.STReads != 0 || res2.STWrites != 0 {
		t.Error("ST traffic should be disabled")
	}
}

func TestTimedOutFlag(t *testing.T) {
	cfg := tinyConfig(1)
	cfg.Instructions = 1 << 40 // cannot finish
	cfg.MaxCycles = 100_000
	spec, _ := SpecForProgram("lbm", PaperScale)
	res, err := Run(cfg, []ProgramSpec{spec}, SchemeStatic)
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Error("expected TimedOut")
	}
	if res.Cycles < 100_000 {
		t.Errorf("cycles = %d", res.Cycles)
	}
}

func TestMultiProgramAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := tinyConfig(4)
	cfg.Instructions = 100_000
	specs, err := SpecsForWorkload(mustWorkload(t, "w02"), PaperScale)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, specs, SchemeProFess)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerCore) != 4 {
		t.Fatalf("per-core results = %d", len(res.PerCore))
	}
	for i, c := range res.PerCore {
		if c.Program != specs[i].Name {
			t.Errorf("core %d program %s, want %s", i, c.Program, specs[i].Name)
		}
		if c.Instructions < cfg.Instructions {
			t.Errorf("%s retired %d instructions, want >= %d", c.Program, c.Instructions, cfg.Instructions)
		}
		if c.IPC <= 0 || c.IPC > 4 {
			t.Errorf("%s IPC %v implausible", c.Program, c.IPC)
		}
		if c.Served == 0 {
			t.Errorf("%s served no memory requests", c.Program)
		}
	}
	if res.EnergyEff <= 0 || res.Watts <= 0 {
		t.Error("energy figures missing")
	}
	if ipcs := res.IPCs(); len(ipcs) != 4 {
		t.Error("IPCs helper wrong")
	}
}
