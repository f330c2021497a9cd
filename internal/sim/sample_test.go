package sim

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"profess/internal/fault"
	"profess/internal/hybrid"
	"profess/internal/trace"
)

// sampleCfg returns a multi-core test config running on the sampled tier.
// The window is explicit and short: these runs are a few hundred kilocycles,
// far below what the standard-scale DefaultSampleWindow assumes, and the
// tests want many windows, not long ones.
func sampleCfg(fraction float64) Config {
	cfg := MultiCoreConfig(PaperScale)
	cfg.Instructions = 300_000
	cfg.MaxCycles = 2_000_000_000
	cfg.SampleFraction = fraction
	cfg.SampleWindow = 30_000
	return cfg
}

// meanAbsIPCError compares per-program IPC between a sampled and a full
// run of the same cell.
func meanAbsIPCError(sampled, full *Result) float64 {
	var sum float64
	for i := range full.PerCore {
		f := full.PerCore[i].IPC
		sum += math.Abs(sampled.PerCore[i].IPC-f) / f
	}
	return sum / float64(len(full.PerCore))
}

// TestSampledSmoke runs a Table 10 mix on the sampled tier and checks the
// run completes, reports its sampling parameters, and lands near the
// full-fidelity IPC.
func TestSampledSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	specs, err := SpecsForWorkload(mustWorkload(t, "w09"), PaperScale)
	if err != nil {
		t.Fatal(err)
	}
	fullCfg := sampleCfg(0)
	t0 := time.Now()
	full, err := Run(fullCfg, specs, SchemeProFess)
	if err != nil {
		t.Fatal(err)
	}
	tFull := time.Since(t0)

	cfg := sampleCfg(0.1)
	t0 = time.Now()
	res, err := Run(cfg, specs, SchemeProFess)
	if err != nil {
		t.Fatal(err)
	}
	tSampled := time.Since(t0)

	if res.TimedOut {
		t.Fatalf("sampled run timed out at %d cycles", res.Cycles)
	}
	if res.Sampling.Fraction != 0.1 || res.Sampling.Window != cfg.EffectiveSampleWindow() {
		t.Errorf("Sampling = %+v, want fraction 0.1 window %d", res.Sampling, cfg.EffectiveSampleWindow())
	}
	if res.Sampling.Windows < 2 {
		t.Errorf("only %d detailed windows measured", res.Sampling.Windows)
	}
	for i, c := range res.PerCore {
		if c.IPCCI95 < 0 {
			t.Errorf("core %d: negative CI %f", i, c.IPCCI95)
		}
		t.Logf("%-10s sampled ipc=%.4f ±%.4f  full ipc=%.4f  err=%+.2f%%",
			c.Program, c.IPC, c.IPCCI95, full.PerCore[i].IPC,
			100*(c.IPC-full.PerCore[i].IPC)/full.PerCore[i].IPC)
	}
	for i, c := range full.PerCore {
		if c.IPCCI95 != 0 {
			t.Errorf("full run core %d: IPCCI95 = %f, want 0", i, c.IPCCI95)
		}
	}
	err2 := meanAbsIPCError(res, full)
	t.Logf("mean abs IPC error %.2f%%; wall %v sampled vs %v full (%.1fx)",
		100*err2, tSampled, tFull, float64(tFull)/float64(tSampled))
	if err2 > 0.15 {
		t.Errorf("mean abs IPC error %.1f%% too large for fraction 0.1", 100*err2)
	}
}

// TestSampledFractionOneIsFullRun pins the exactness contract: fraction 1
// (and anything >= 1) is not an approximation of the full run, it IS the
// full run — byte-identical Result JSON across schemes, seeds and fault
// plans. Run under -race in CI (make sample-smoke).
func TestSampledFractionOneIsFullRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	base := SingleCoreConfig(PaperScale)
	base.Instructions = 60_000
	seeded := base
	seeded.Seed = 42
	faulty := base
	faulty.Faults = fault.Plan{
		Seed:           7,
		NVMReadRate:    1e-3,
		NVMWriteRate:   1e-3,
		StallRate:      1e-4,
		QACCorruptRate: 1e-3,
		SFCorruptRate:  1e-2,
	}
	cells := []struct {
		name   string
		cfg    Config
		scheme Scheme
	}{
		{"profess", base, SchemeProFess},
		{"mdm", base, SchemeMDM},
		{"pom", base, SchemePoM},
		{"seed42", seeded, SchemeProFess},
		{"faults", faulty, SchemeProFess},
	}
	spec, err := SpecForProgram("lbm", PaperScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range cells {
		full, err := Run(cell.cfg, []ProgramSpec{spec}, cell.scheme)
		if err != nil {
			t.Fatalf("%s: full: %v", cell.name, err)
		}
		wantJS, _ := renderRun(t, full)
		for _, fr := range []float64{1, 1.5} {
			cfg := cell.cfg
			cfg.SampleFraction = fr
			cfg.SampleWindow = 10_000 // must be ignored when sampling is off
			res, err := Run(cfg, []ProgramSpec{spec}, cell.scheme)
			if err != nil {
				t.Fatalf("%s: fraction %g: %v", cell.name, fr, err)
			}
			gotJS, _ := renderRun(t, res)
			if !bytes.Equal(gotJS, wantJS) {
				t.Errorf("%s: fraction %g diverged from full run\n got: %s\nwant: %s",
					cell.name, fr, gotJS, wantJS)
			}
		}
	}
}

// TestSampledDeterministic: a sampled run is a pure function of
// (cfg, specs, scheme) — repeat runs, fresh or through a shared arena,
// produce byte-identical Result JSON.
func TestSampledDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	specs, err := SpecsForPrograms([]string{"mcf", "soplex"}, PaperScale)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sampleCfg(0.2)
	cfg.Instructions = 150_000
	first, err := Run(cfg, specs, SchemeProFess)
	if err != nil {
		t.Fatal(err)
	}
	wantJS, _ := renderRun(t, first)

	again, err := Run(cfg, specs, SchemeProFess)
	if err != nil {
		t.Fatal(err)
	}
	gotJS, _ := renderRun(t, again)
	if !bytes.Equal(gotJS, wantJS) {
		t.Errorf("repeat sampled run diverged\n got: %s\nwant: %s", gotJS, wantJS)
	}

	arena := &SystemArena{}
	// Dirty the arena with a full run of a different shape first, so the
	// sampled run exercises the in-place reset path.
	warm := cfg
	warm.SampleFraction = 0
	warm.Instructions = 60_000
	if _, err := arena.RunContext(context.Background(), warm, specs, SchemeMDM); err != nil {
		t.Fatal(err)
	}
	pooled, err := arena.RunContext(context.Background(), cfg, specs, SchemeProFess)
	if err != nil {
		t.Fatal(err)
	}
	gotJS, _ = renderRun(t, pooled)
	if arena.Reuses == 0 {
		t.Fatal("arena never reused the machine")
	}
	if !bytes.Equal(gotJS, wantJS) {
		t.Errorf("arena sampled run diverged from fresh\n got: %s\nwant: %s", gotJS, wantJS)
	}
}

// TestSampledErrorShrinksWithFraction is the fidelity-dial property: on a
// fixed seed, raising the detailed fraction must not make the IPC estimate
// worse (within a small tolerance for sampling noise), and at fraction 1
// the error is exactly zero.
func TestSampledErrorShrinksWithFraction(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	specs, err := SpecsForPrograms([]string{"mcf", "lbm"}, PaperScale)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sampleCfg(0)
	cfg.Instructions = 200_000
	full, err := Run(cfg, specs, SchemeProFess)
	if err != nil {
		t.Fatal(err)
	}
	fractions := []float64{0.05, 0.2, 0.5, 1}
	errs := make([]float64, len(fractions))
	for i, fr := range fractions {
		c := cfg
		c.SampleFraction = fr
		res, err := Run(c, specs, SchemeProFess)
		if err != nil {
			t.Fatalf("fraction %g: %v", fr, err)
		}
		errs[i] = meanAbsIPCError(res, full)
		t.Logf("fraction %.2f: mean abs IPC error %.3f%%", fr, 100*errs[i])
	}
	if errs[len(errs)-1] != 0 {
		t.Errorf("fraction 1 must be exact, got error %g", errs[len(errs)-1])
	}
	const slack = 0.02 // two points of sampling noise never count as regression
	for i := 1; i < len(errs); i++ {
		if errs[i] > errs[i-1]+slack {
			t.Errorf("error grew with fraction: %.3f at %g -> %.3f at %g",
				errs[i-1], fractions[i-1], errs[i], fractions[i])
		}
	}
}

// TestSampledQACFaultsMatchFullRun checks that fast-forward draws the ST
// fill's QAC-corruption fault as the event path does: under a QAC fault
// plan the sampled run's injected corruptions per ST read must be within
// 10% of the full run's. With the draw on the event path alone, a sampled
// run injected about half as many (1.09 against 2.04 per ST read).
func TestSampledQACFaultsMatchFullRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	specs, err := SpecsForWorkload(mustWorkload(t, "w09"), PaperScale)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.ParsePlan("qac=1,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	cfg := MultiCoreConfig(PaperScale)
	cfg.Instructions = 600_000
	cfg.Faults = plan
	perRead := func(fraction float64) float64 {
		c := cfg
		c.SampleFraction = fraction
		res, err := Run(c, specs, SchemeProFess)
		if err != nil {
			t.Fatal(err)
		}
		if res.STReads == 0 {
			t.Fatalf("fraction %g: no ST reads", fraction)
		}
		return float64(res.Resilience.InjectedQACCorruptions) / float64(res.STReads)
	}
	full, sampled := perRead(0), perRead(0.05)
	t.Logf("injected QAC corruptions per ST read: full %.3f, sampled %.3f", full, sampled)
	if math.Abs(sampled-full) > 0.1*full {
		t.Errorf("sampled run injects %.3f QAC corruptions per ST read, full run %.3f: want within 10%%", sampled, full)
	}
}

// TestSamplingValidation pins the rejection of unsupported combinations.
func TestSamplingValidation(t *testing.T) {
	bad := func(mutate func(*Config)) error {
		cfg := MultiCoreConfig(PaperScale)
		cfg.Instructions = 10_000
		mutate(&cfg)
		return cfg.Validate()
	}
	if err := bad(func(c *Config) { c.SampleFraction = -0.1 }); err == nil {
		t.Error("negative fraction should fail validation")
	}
	if err := bad(func(c *Config) { c.SampleFraction = math.NaN() }); err == nil {
		t.Error("NaN fraction should fail validation")
	}
	if err := bad(func(c *Config) { c.SampleFraction = 0.1; c.SampleWindow = -1 }); err == nil {
		t.Error("negative window should fail validation")
	}
	if err := bad(func(c *Config) { c.SampleFraction = 0.1; c.Clusters = 2 }); err == nil {
		t.Error("sampling + clustered shards should fail validation")
	}
	if err := bad(func(c *Config) { c.SampleFraction = 0.1; c.TelemetryEvery = 1000 }); err == nil {
		t.Error("sampling + telemetry epochs should fail validation")
	}
	// Fraction >= 1 is full fidelity, not an error, and composes with
	// everything a full run composes with.
	if err := bad(func(c *Config) { c.SampleFraction = 1; c.Clusters = 2; c.Shards = 2 }); err != nil {
		t.Errorf("fraction 1 with clusters should validate: %v", err)
	}

	// Trace replay cannot fast-forward: rejected at system build.
	spec, err := SpecForProgram("lbm", PaperScale)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trace.NewGenerator(spec.Params)
	if err != nil {
		t.Fatal(err)
	}
	spec.Source = gen
	cfg := SingleCoreConfig(PaperScale)
	cfg.Instructions = 10_000
	cfg.SampleFraction = 0.1
	if _, err := Run(cfg, []ProgramSpec{spec}, SchemeProFess); err == nil {
		t.Error("sampling + trace Source should fail")
	}
}

// panicOnAccess is a policy that panics on its n-th OnAccess, standing in
// for any fault in the controller's half of a fast-forward span.
type panicOnAccess struct {
	hybrid.Policy
	n int
}

func (p *panicOnAccess) OnAccess(info hybrid.AccessInfo, ctl hybrid.PolicyContext) {
	if p.n--; p.n == 0 {
		panic("injected policy fault")
	}
	p.Policy.OnAccess(info, ctl)
}

// settleGoroutines fails unless the goroutine count falls back to base
// within a few seconds: a goroutine that has handed over its last result
// may still be returning, but none may outlive the run for good.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before: one outlived it", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// assertArenaReuse runs cfg through the arena's cached machine and
// requires the Result JSON of a fresh run.
func assertArenaReuse(t *testing.T, arena *SystemArena, cfg Config, specs []ProgramSpec, want []byte) {
	t.Helper()
	reuses := arena.Reuses
	res, err := arena.RunContext(context.Background(), cfg, specs, SchemeProFess)
	if err != nil {
		t.Fatal(err)
	}
	if arena.Reuses != reuses+1 {
		t.Fatal("the arena built a new machine instead of reusing the failed one")
	}
	if got, _ := renderRun(t, res); !bytes.Equal(got, want) {
		t.Errorf("run on the reused machine diverged from a fresh run\n got: %s\nwant: %s", got, want)
	}
}

// TestSampledBackendPanic: the controller's half of a fast-forward span
// runs on the pipeline's back-end goroutine, so a panic there (here the
// policy's 5000th OnAccess, which falls in a span) must not die on that
// goroutine. RunContext re-raises it on the calling goroutine with the
// back-end's frames in the value, no goroutine outlives the run, and the
// machine stays fit for reuse: the arena's next run on it matches a fresh
// run byte for byte. make sample-smoke runs it under -race.
func TestSampledBackendPanic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	specs, err := SpecsForWorkload(mustWorkload(t, "w09"), PaperScale)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sampleCfg(0.05)
	fresh, err := Run(cfg, specs, SchemeProFess)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := renderRun(t, fresh)

	arena := &SystemArena{}
	if _, err := arena.RunContext(context.Background(), cfg, specs, SchemeProFess); err != nil {
		t.Fatal(err)
	}
	sys := arena.machines[0].sys
	inner, err := NewPolicy(SchemeProFess, len(specs), cfg.Scale)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.reset(cfg, specs, &panicOnAccess{Policy: inner, n: 5000}); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	recovered := func() (v any) {
		defer func() { v = recover() }()
		_, _ = sys.RunContext(context.Background())
		return nil
	}()
	if recovered == nil {
		t.Fatal("RunContext returned; want the policy's panic")
	}
	msg := fmt.Sprint(recovered)
	for _, want := range []string{
		"injected policy fault",
		"sim.(*panicOnAccess).OnAccess",
		"hybrid.(*Controller).FunctionalAccess",
		"sim.(*ffPipe).serve",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("panic value lacks %q:\n%s", want, msg)
		}
	}
	settleGoroutines(t, base)
	assertArenaReuse(t, arena, cfg, specs, want)
}

// TestFastForwardNeedsQuiescedMachine: a fast-forward span hands the
// controller to the pipeline's back-end goroutine, which is safe only on
// a drained machine. A span that starts with one access still in flight
// (its ST fill queued on a channel) must fail with an error naming the
// span's first cycle, and leave no goroutine behind. make sample-smoke
// runs it under -race.
func TestFastForwardNeedsQuiescedMachine(t *testing.T) {
	specs, err := SpecsForWorkload(mustWorkload(t, "w09"), PaperScale)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sampleCfg(0.05)
	policy, err := NewPolicy(SchemeProFess, len(specs), cfg.Scale)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(cfg, specs, policy)
	if err != nil {
		t.Fatal(err)
	}
	remaining := sys.startCores(nil)
	paces := make([]float64, len(specs))
	for i := range paces {
		paces[i] = 1
	}
	base := runtime.NumGoroutine()
	sys.Ctl.Submit(0, 0, false, nil, 0)
	if sys.Ctl.Quiesced() {
		t.Fatal("controller quiesced with an access submitted and no event run")
	}
	_, _, err = sys.fastForward(context.Background(), 1234, 6234, paces, remaining)
	if err == nil || !strings.Contains(err.Error(), "cycle 1234") {
		t.Fatalf("fastForward with an access in flight: err = %v, want an error naming cycle 1234", err)
	}
	if n := sys.Cores[0].Instructions(); n != 0 {
		t.Errorf("core 0 ran %d instructions in the refused span", n)
	}
	settleGoroutines(t, base)
}
