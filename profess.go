// Package profess is a full reimplementation of ProFess — the
// probabilistic hybrid main-memory management framework for high
// performance and fairness of Knyaginin, Papaefstathiou and Stenström
// (HPCA 2018) — together with the complete simulation substrate its
// evaluation requires: a flat migrating DRAM+NVM memory model with
// PoM-style swap groups, an MLP-aware core model, synthetic SPEC CPU2006
// workload generators, the competing migration algorithms of the
// literature (PoM, CAMEO, SILC-FM, MemPod), and the experiment harnesses
// that regenerate every table and figure of the paper's evaluation.
//
// # Quick start
//
//	cfg := profess.SingleCoreConfig(profess.PaperScale)
//	cfg.Instructions = 2_000_000
//	res, err := profess.RunProgram("lbm", profess.SchemeProFess, cfg)
//	if err != nil { ... }
//	fmt.Printf("IPC %.3f, served from M1 %.1f%%\n",
//		res.PerCore[0].IPC, 100*res.PerCore[0].M1Fraction)
//
// # Layering
//
//   - internal/core — the paper's contribution (RSM, MDM, ProFess).
//   - internal/hybrid — the flat migrating organization (swap groups, ST,
//     STC, regions, OS allocation).
//   - internal/mem, internal/cpu, internal/cache, internal/trace — the
//     simulated machine.
//   - internal/migrate — the baseline algorithms of Table 2.
//   - this package — the public API: configurations, runs, figures of
//     merit, and per-figure experiment drivers (see experiments.go).
package profess

import (
	"context"

	"profess/internal/fault"
	"profess/internal/hybrid"
	"profess/internal/sim"
	"profess/internal/stats"
	"profess/internal/telemetry"
	"profess/internal/workload"
)

// Re-exported configuration and result types. The aliases are deliberate:
// the simulator's types are the public contract, and the internal layout
// keeps their implementations private.
type (
	// Config describes one simulated system (Table 8).
	Config = sim.Config
	// Result is the outcome of one simulation.
	Result = sim.Result
	// CoreResult is the per-program slice of a Result.
	CoreResult = sim.CoreResult
	// Scheme names a migration policy.
	Scheme = sim.Scheme
	// ProgramSpec names one program instance (generator parameters).
	ProgramSpec = sim.ProgramSpec
	// Workload is one Table 10 four-program mix.
	Workload = workload.Workload
	// Program is one Table 9 program profile.
	Program = workload.Program
	// FaultPlan configures deterministic fault injection (per-class rates
	// plus a schedule seed); the zero value injects nothing and keeps the
	// simulation bit-identical to a fault-free build.
	FaultPlan = fault.Plan
	// Resilience tallies injected faults and the simulator's graceful
	// degradation (Result.Resilience).
	Resilience = stats.Resilience
	// TelemetrySampler is the per-epoch sampler behind Result.Telemetry
	// (enabled via Config.TelemetryEvery); exports JSONL and CSV.
	TelemetrySampler = telemetry.Sampler
	// TelemetryManifest describes one telemetry run (config, seed, build)
	// alongside its exported epochs.
	TelemetryManifest = telemetry.Manifest
	// TelemetryRecord is one sampled epoch of a TelemetrySampler.
	TelemetryRecord = telemetry.Record
)

// NewTelemetryManifest returns a Manifest prefilled with build metadata
// (Go version, git describe).
func NewTelemetryManifest() TelemetryManifest { return telemetry.NewManifest() }

// ParseFaultPlan parses the -faults flag syntax
// ("key=value,...": seed, nvmread, nvmwrite, stall, stallcycles, qac, sf,
// or the one-knob shorthand "rate=<p>").
func ParseFaultPlan(s string) (FaultPlan, error) { return fault.ParsePlan(s) }

// The available migration schemes.
const (
	SchemeStatic  = sim.SchemeStatic
	SchemePoM     = sim.SchemePoM
	SchemeCAMEO   = sim.SchemeCAMEO
	SchemeSILCFM  = sim.SchemeSILCFM
	SchemeMemPod  = sim.SchemeMemPod
	SchemeMDM     = sim.SchemeMDM
	SchemeProFess = sim.SchemeProFess
)

// PaperScale is this reproduction's default capacity scale: 1/32 of the
// paper's Table 8 system, preserving every ratio that drives the results.
const PaperScale = sim.PaperScale

// SingleCoreConfig returns the single-core evaluation system of §4.1.
func SingleCoreConfig(scale float64) Config { return sim.SingleCoreConfig(scale) }

// MultiCoreConfig returns the quad-core evaluation system of Table 8.
func MultiCoreConfig(scale float64) Config { return sim.MultiCoreConfig(scale) }

// Scale16Config returns the sixteen-program, eight-channel "datacenter
// node" scaling configuration: eight independent clusters, each run on its
// own timing wheel. Set Config.Shards to choose how many worker goroutines
// run them — a pure speed knob with byte-identical results.
func Scale16Config(scale float64) Config { return sim.Scale16Config(scale) }

// Fleet16Specs builds the sixteen-program mix that rides Scale16Config:
// eight footprint-balanced pairs, one per cluster, covering every Table 9
// program.
func Fleet16Specs(scale float64) ([]ProgramSpec, error) {
	return sim.SpecsForPrograms(workload.Fleet16(), scale)
}

// Schemes lists every available scheme in presentation order.
func Schemes() []Scheme { return sim.AllSchemes() }

// Programs returns the Table 9 program catalogue.
func Programs() []Program { return workload.Programs() }

// Workloads returns the Table 10 multiprogrammed mixes.
func Workloads() []Workload { return workload.Workloads() }

// runSimUncached executes one simulation, unconditionally. runSim /
// runSimCtx (the cache-aware funnel in runcache.go) wrap it; every
// scheme-based entry point below goes through that funnel, so identical
// runs within one process are memoised. See SetRunCaching to opt out.
// A driver that calls it directly bypasses the funnel, so while a sweep
// plan is being built it returns ErrNotPlannable instead of simulating.
// The context's deadline/cancellation is polled inside the event loop,
// so an in-flight simulation aborts within one watchdog epoch.
// Simulations execute through a reusable simulation-state arena (see
// arena.go).
func runSimUncached(ctx context.Context, cfg Config, specs []ProgramSpec, scheme Scheme) (*Result, error) {
	if planning() {
		return nil, ErrNotPlannable
	}
	theRunCache.sims.Add(1)
	return runArena(ctx, cfg, specs, scheme)
}

// RunProgram runs one named Table 9 program under the given scheme.
func RunProgram(name string, scheme Scheme, cfg Config) (*Result, error) {
	return RunProgramContext(context.Background(), name, scheme, cfg)
}

// RunProgramContext is RunProgram honouring the context: cancellation
// interrupts the simulation mid-flight, not just before it starts.
func RunProgramContext(ctx context.Context, name string, scheme Scheme, cfg Config) (*Result, error) {
	spec, err := sim.SpecForProgram(name, cfg.Scale)
	if err != nil {
		return nil, err
	}
	return runSimCtx(ctx, cfg, []ProgramSpec{spec}, scheme)
}

// RunMix runs a Table 10 workload (by name) under the given scheme,
// without slowdown baselines; see RunWorkload for the full fairness
// metrics.
func RunMix(name string, scheme Scheme, cfg Config) (*Result, error) {
	return RunMixContext(context.Background(), name, scheme, cfg)
}

// RunMixContext is RunMix honouring the context.
func RunMixContext(ctx context.Context, name string, scheme Scheme, cfg Config) (*Result, error) {
	specs, err := workloadSpecs(name, cfg)
	if err != nil {
		return nil, err
	}
	return runSimCtx(ctx, cfg, specs, scheme)
}

// RunSpecs runs explicit program specs under the given scheme — the
// entry point for custom workloads and custom generator parameters.
func RunSpecs(specs []ProgramSpec, scheme Scheme, cfg Config) (*Result, error) {
	return RunSpecsContext(context.Background(), specs, scheme, cfg)
}

// RunSpecsContext is RunSpecs honouring the context.
func RunSpecsContext(ctx context.Context, specs []ProgramSpec, scheme Scheme, cfg Config) (*Result, error) {
	return runSimCtx(ctx, cfg, specs, scheme)
}

// Migration-policy extension surface: user code can implement Policy (most
// easily by embedding BasePolicy) and drive the same simulated machine as
// the built-in schemes. See examples/custom-policy.
type (
	// Policy is a pluggable migration algorithm.
	Policy = hybrid.Policy
	// AccessInfo is what a policy observes on every demand access.
	AccessInfo = hybrid.AccessInfo
	// PolicyContext is the controller surface a policy acts through.
	PolicyContext = hybrid.PolicyContext
	// BasePolicy provides no-op defaults for optional Policy hooks.
	BasePolicy = hybrid.BasePolicy
)

// RunWithPolicy runs explicit program specs under a custom migration
// policy. Custom policies are not hashable, so these runs bypass the run
// cache and cannot be enumerated by the sweep planner.
func RunWithPolicy(specs []ProgramSpec, policy Policy, cfg Config) (*Result, error) {
	if planning() {
		return nil, ErrNotPlannable
	}
	sys, err := sim.NewSystem(cfg, specs, policy)
	if err != nil {
		return nil, err
	}
	return sys.Run()
}

// SpecFor builds the ProgramSpec for a named Table 9 program at the
// configuration's scale.
func SpecFor(name string, cfg Config) (ProgramSpec, error) {
	return sim.SpecForProgram(name, cfg.Scale)
}
