package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"profess"
	"profess/internal/fault"
	"profess/internal/hybrid"
	"profess/internal/sim"
	"profess/internal/stats"
	"profess/internal/telemetry"
)

// runW09 runs a short w09 ProFess cell on a machine built by NewSystem,
// optionally through both boundary wrappers, and returns the Result JSON
// plus the telemetry series (when enabled).
func runW09(t *testing.T, cfg profess.Config, wrapped bool) (string, []telemetry.Record, boundary, boundary) {
	t.Helper()
	specs, err := workloadSpecs("w09", cfg.Scale)
	if err != nil {
		t.Fatal(err)
	}
	var srcs []*countingSource
	if wrapped {
		if specs, srcs, err = wrapSources(specs); err != nil {
			t.Fatal(err)
		}
	}
	var policy profess.Policy
	if policy, err = sim.NewPolicy(profess.SchemeProFess, len(specs), cfg.Scale); err != nil {
		t.Fatal(err)
	}
	var cp *countingPolicy
	if wrapped {
		cp = &countingPolicy{p: policy}
		policy = cp
	}
	sys, err := sim.NewSystem(cfg, specs, policy)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var recs []telemetry.Record
	if res.Telemetry != nil {
		recs = res.Telemetry.Records()
	}
	var src, pol boundary
	for _, s := range srcs {
		src.add(s.b)
	}
	if cp != nil {
		pol = cp.b
	}
	return string(b), recs, src, pol
}

// TestWrappersAreResultNeutral pins the traced run's contract: a cell run
// through the Source and Policy wrappers reproduces the bare run byte for
// byte, including with fault injection (SetFaultInjector and
// ResilienceStats forwarding) and telemetry (RegisterTelemetry
// forwarding) on.
func TestWrappersAreResultNeutral(t *testing.T) {
	faults, err := profess.ParseFaultPlan("rate=1e-3,sf=0.2,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		faults profess.FaultPlan
		every  int64
	}{
		{"plain", profess.FaultPlan{}, 0},
		{"faults", faults, 0},
		{"telemetry", profess.FaultPlan{}, 50_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := profess.MultiCoreConfig(profess.PaperScale)
			cfg.Instructions = 100_000
			cfg.Faults = tc.faults
			cfg.TelemetryEvery = tc.every
			bare, bareTel, _, _ := runW09(t, cfg, false)
			wrapped, wrappedTel, src, pol := runW09(t, cfg, true)
			if bare != wrapped {
				t.Fatalf("wrapped result differs:\nbare    %s\nwrapped %s", bare, wrapped)
			}
			bt, _ := json.Marshal(bareTel)
			wt, _ := json.Marshal(wrappedTel)
			if !bytes.Equal(bt, wt) {
				t.Fatalf("wrapped telemetry differs (%d vs %d epochs)", len(bareTel), len(wrappedTel))
			}
			if tc.every > 0 && len(bareTel) == 0 {
				t.Fatal("telemetry run recorded no epochs")
			}
			if src.calls == 0 || pol.calls == 0 {
				t.Fatalf("wrappers counted %d refs and %d policy calls", src.calls, pol.calls)
			}
			if src.timed == 0 || src.timed*timeEvery > src.calls || pol.timed*timeEvery > pol.calls {
				t.Fatalf("timed %d of %d refs and %d of %d policy calls, want 1 in %d",
					src.timed, src.calls, pol.timed, pol.calls, timeEvery)
			}
		})
	}
}

// TestArenaFunnelMatchesWrappedRun pins the traced pass against the
// untraced one: the arena-backed public funnel and a wrapped fresh
// machine produce the same Result.
func TestArenaFunnelMatchesWrappedRun(t *testing.T) {
	cfg := profess.MultiCoreConfig(profess.PaperScale)
	cfg.Instructions = 100_000
	specs, err := workloadSpecs("w09", cfg.Scale)
	if err != nil {
		t.Fatal(err)
	}
	profess.SetRunCaching(false)
	defer profess.SetRunCaching(true)
	res, err := profess.RunSpecs(specs, profess.SchemeProFess, cfg)
	if err != nil {
		t.Fatal(err)
	}
	funnel, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, _, _, _ := runW09(t, cfg, true)
	if string(funnel) != wrapped {
		t.Fatalf("funnel and wrapped runs differ:\nfunnel  %s\nwrapped %s", funnel, wrapped)
	}
}

// bareHooks is a policy with none of the optional interfaces.
type bareHooks struct{ hybrid.NoMigration }

// fullHooks records which optional interface calls reached it.
type fullHooks struct {
	hybrid.NoMigration
	injected, registered bool
}

func (f *fullHooks) ResilienceStats() stats.Resilience    { return stats.Resilience{Retries: 7} }
func (f *fullHooks) SetFaultInjector(*fault.Injector)     { f.injected = true }
func (f *fullHooks) RegisterTelemetry(*telemetry.Sampler) { f.registered = true }

func TestPolicyWrapperForwardsOptionalInterfaces(t *testing.T) {
	full := &fullHooks{}
	w := &countingPolicy{p: full}
	w.SetFaultInjector(nil)
	w.RegisterTelemetry(nil)
	if got := w.ResilienceStats().Retries; got != 7 || !full.injected || !full.registered {
		t.Fatalf("forwarding: retries %d, injected %v, registered %v", got, full.injected, full.registered)
	}
	bare := &countingPolicy{p: bareHooks{}}
	bare.SetFaultInjector(nil)
	bare.RegisterTelemetry(nil)
	if got := bare.ResilienceStats(); got != (stats.Resilience{}) {
		t.Fatalf("bare policy reports %+v, want zero", got)
	}
	if bare.Name() != "static" || bare.WriteWeight() != 1 {
		t.Fatalf("name %q weight %d not forwarded", bare.Name(), bare.WriteWeight())
	}
}

func TestBoundaryNsPerCall(t *testing.T) {
	b := boundary{calls: 640, timed: 10, timedNS: 500}
	if got := b.nsPerCall(20); got != 30 {
		t.Fatalf("nsPerCall = %v, want 30", got)
	}
	if got := b.nsPerCall(80); got != 0 {
		t.Fatalf("nsPerCall below the timing cost = %v, want 0", got)
	}
	if got := (boundary{}).nsPerCall(20); got != 0 {
		t.Fatalf("nsPerCall with no timed calls = %v, want 0", got)
	}
	if c := timingCost(); c <= 0 || c > 10_000 {
		t.Fatalf("timing cost %v ns is implausible", c)
	}
}
