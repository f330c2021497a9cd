package analytic

import (
	"math"
	"math/rand"
	"testing"

	"profess/internal/sim"
	"profess/internal/trace"
)

// randSpec draws one random-but-plausible program parameterisation. The
// ranges bracket the Table 9 catalogue generously so the properties are
// probed well outside the calibration set.
func randSpec(r *rand.Rand, name string) sim.ProgramSpec {
	patterns := []trace.Pattern{trace.Stream, trace.PointerChase, trace.Mixed, trace.StridedRandom}
	p := trace.Params{
		Name:          name,
		Footprint:     int64(1+r.Intn(64)) << 20, // 1..64 MB
		Pattern:       patterns[r.Intn(len(patterns))],
		WriteFrac:     0.5 * r.Float64(),
		GapMean:       int32(5 + r.Intn(200)),
		Streams:       1 + r.Intn(16),
		HotFrac:       0.01 + 0.2*r.Float64(),
		HotProb:       r.Float64(),
		DepFrac:       0.9 * r.Float64(),
		LinesPerTouch: 1 + r.Intn(8),
		RecentProb:    0.6 * r.Float64(),
		RecentWindow:  32,
		Seed:          r.Uint64(),
	}
	if r.Intn(2) == 0 {
		p.PhaseRefs = int64(100_000 + r.Intn(500_000))
	}
	return sim.ProgramSpec{Name: name, Params: p}
}

func testConfig() sim.Config {
	cfg := sim.SingleCoreConfig(1.0 / 32)
	cfg.Instructions = 2_000_000
	return cfg
}

func schemes() []sim.Scheme { return sim.AllSchemes() }

// TestEstimateInvariants quick-checks the structural guarantees of the
// estimator over random workloads and every scheme: IPC is positive and
// finite, slowdown ≥ 1, fractions live in [0, 1], and the traffic mix
// sums to one whenever the cell generates traffic.
func TestEstimateInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	m := Default()
	cfg := testConfig()
	for trial := 0; trial < 60; trial++ {
		specs := []sim.ProgramSpec{randSpec(r, "a")}
		if trial%3 == 0 { // every third trial runs a four-program mix
			specs = append(specs, randSpec(r, "b"), randSpec(r, "c"), randSpec(r, "d"))
		}
		for _, s := range schemes() {
			est, err := m.Estimate(cfg, specs, s)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, s, err)
			}
			if len(est.Programs) != len(specs) {
				t.Fatalf("trial %d %s: %d programs, want %d", trial, s, len(est.Programs), len(specs))
			}
			for _, pe := range est.Programs {
				if !(pe.IPC > 0) || math.IsInf(pe.IPC, 0) || math.IsNaN(pe.IPC) {
					t.Errorf("trial %d %s %s: IPC = %v", trial, s, pe.Name, pe.IPC)
				}
				if pe.Slowdown < 1 {
					t.Errorf("trial %d %s %s: slowdown %v < 1", trial, s, pe.Name, pe.Slowdown)
				}
				for what, v := range map[string]float64{
					"M1Fraction": pe.M1Fraction, "L3HitRate": pe.L3HitRate, "RowHitRate": pe.RowHitRate,
				} {
					if v < 0 || v > 1 || math.IsNaN(v) {
						t.Errorf("trial %d %s %s: %s = %v outside [0,1]", trial, s, pe.Name, what, v)
					}
				}
				if pe.AvgMemLat < 0 || math.IsNaN(pe.AvgMemLat) || math.IsInf(pe.AvgMemLat, 0) {
					t.Errorf("trial %d %s %s: AvgMemLat = %v", trial, s, pe.Name, pe.AvgMemLat)
				}
			}
			if sum := est.Traffic.Sum(); sum != 0 && math.Abs(sum-1) > 1e-9 {
				t.Errorf("trial %d %s: traffic fractions sum to %v, want 1 (or 0)", trial, s, sum)
			}
			if est.SwapFraction < 0 || math.IsNaN(est.SwapFraction) {
				t.Errorf("trial %d %s: SwapFraction = %v", trial, s, est.SwapFraction)
			}
			if est.NVM.LifetimeSeconds < 0 || est.NVM.LifetimeIdealSeconds < est.NVM.LifetimeSeconds-1e-9 {
				t.Errorf("trial %d %s: lifetime %v exceeds ideal %v", trial, s,
					est.NVM.LifetimeSeconds, est.NVM.LifetimeIdealSeconds)
			}
			if le := est.NVM.LevelingEfficiency; le < 0 || le > 1+1e-9 {
				t.Errorf("trial %d %s: leveling efficiency %v outside [0,1]", trial, s, le)
			}
		}
	}
}

// TestIPCMonotoneInM2Latency checks that making M2 slower never makes
// any scheme's predicted IPC better, both through the additive
// M2ExtraLatency knob and through the configuration's write-recovery
// factor (which also lengthens swaps).
func TestIPCMonotoneInM2Latency(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	cfg := testConfig()
	for trial := 0; trial < 40; trial++ {
		specs := []sim.ProgramSpec{randSpec(r, "a")}
		for _, s := range schemes() {
			prev := math.Inf(1)
			for _, extra := range []float64{0, 100, 400, 1600, 6400} {
				m := Default()
				m.M2ExtraLatency = extra
				est, err := m.Estimate(cfg, specs, s)
				if err != nil {
					t.Fatal(err)
				}
				ipc := est.Programs[0].IPC
				if ipc > prev*(1+1e-9) {
					t.Errorf("trial %d %s: IPC rose %.6f -> %.6f when M2ExtraLatency reached %v",
						trial, s, prev, ipc, extra)
				}
				prev = ipc
			}
			prev = math.Inf(1)
			for _, twr := range []float64{1, 2, 4, 8} {
				c := cfg
				c.M2TWRFactor = twr
				est, err := Default().Estimate(c, specs, s)
				if err != nil {
					t.Fatal(err)
				}
				ipc := est.Programs[0].IPC
				if ipc > prev*(1+1e-9) {
					t.Errorf("trial %d %s: IPC rose %.6f -> %.6f when M2TWRFactor reached %v",
						trial, s, prev, ipc, twr)
				}
				prev = ipc
			}
		}
	}
}

// TestLifetimeMonotoneInWriteIntensity checks that a more write-intensive
// workload never gets more *work* out of the device before wear-out, all
// else equal. The invariant is deliberately work-normalised (lifetime ×
// predicted IPC — instructions executed before the hottest line dies)
// rather than wall-clock: a higher write fraction also throttles
// throughput through write recovery, so wall-clock lifetime can
// legitimately rise while the device still retires fewer instructions.
func TestLifetimeMonotoneInWriteIntensity(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	m := Default()
	cfg := testConfig()
	for trial := 0; trial < 40; trial++ {
		base := randSpec(r, "a")
		for _, s := range schemes() {
			prevLife := math.Inf(1)
			prevIdeal := math.Inf(1)
			for _, wf := range []float64{0.05, 0.15, 0.30, 0.45} {
				spec := base
				spec.Params.WriteFrac = wf
				est, err := m.Estimate(cfg, []sim.ProgramSpec{spec}, s)
				if err != nil {
					t.Fatal(err)
				}
				ipc := est.Programs[0].IPC
				if l := est.NVM.LifetimeSeconds * ipc; l > 0 && l > prevLife*(1+1e-9) {
					t.Errorf("trial %d %s: work-normalised lifetime rose %.4g -> %.4g at WriteFrac %v",
						trial, s, prevLife, l, wf)
				} else if l > 0 {
					prevLife = l
				}
				if l := est.NVM.LifetimeIdealSeconds * ipc; l > 0 && l > prevIdeal*(1+1e-9) {
					t.Errorf("trial %d %s: work-normalised ideal lifetime rose %.4g -> %.4g at WriteFrac %v",
						trial, s, prevIdeal, l, wf)
				} else if l > 0 {
					prevIdeal = l
				}
			}
		}
	}
}

// TestEstimateErrors pins the contract on inputs the model refuses.
func TestEstimateErrors(t *testing.T) {
	m := Default()
	cfg := testConfig()
	r := rand.New(rand.NewSource(4))
	good := randSpec(r, "ok")

	if _, err := m.Estimate(cfg, nil, sim.SchemeProFess); err == nil {
		t.Error("empty specs: want error")
	}
	if _, err := m.Estimate(cfg, []sim.ProgramSpec{good}, sim.Scheme("nope")); err == nil {
		t.Error("unknown scheme: want error")
	}
	bad := good
	bad.Params.Footprint = 0
	if _, err := m.Estimate(cfg, []sim.ProgramSpec{bad}, sim.SchemeProFess); err == nil {
		t.Error("zero footprint: want error")
	}
}

// TestEstimateDegenerateCell pins the screen's key discrimination: a
// footprint resident in M1 is served almost entirely by M1 under every
// migrating scheme, and the migrating schemes' predictions collapse
// together.
func TestEstimateDegenerateCell(t *testing.T) {
	m := Default()
	cfg := testConfig()
	spec := sim.ProgramSpec{Name: "tiny", Params: trace.Params{
		Name: "tiny", Footprint: 1 << 20, Pattern: trace.Stream,
		WriteFrac: 0.25, GapMean: 25, Streams: 1, LinesPerTouch: 1,
	}}
	// 1 MB footprint < 2 MB M1 at PaperScale: residency is 1.
	var ipcs []float64
	for _, s := range []sim.Scheme{sim.SchemeCAMEO, sim.SchemeMDM, sim.SchemeProFess} {
		est, err := m.Estimate(cfg, []sim.ProgramSpec{spec}, s)
		if err != nil {
			t.Fatal(err)
		}
		if f := est.Programs[0].M1Fraction; f < 0.75 {
			t.Errorf("%s: M1 fraction %v for an M1-resident footprint", s, f)
		}
		ipcs = append(ipcs, est.Programs[0].IPC)
	}
	for i := 1; i < len(ipcs); i++ {
		if d := math.Abs(ipcs[i]-ipcs[0]) / ipcs[0]; d > 0.25 {
			t.Errorf("migrating schemes diverge %.0f%% on a resident footprint", 100*d)
		}
	}
}

// TestIPCOf covers the estimate accessor.
func TestIPCOf(t *testing.T) {
	e := Estimate{Programs: []ProgramEstimate{{Name: "x", IPC: 1.5}}}
	if v, ok := e.IPCOf("x"); !ok || v != 1.5 {
		t.Errorf("IPCOf(x) = %v, %v", v, ok)
	}
	if _, ok := e.IPCOf("y"); ok {
		t.Error("IPCOf(y) = ok, want miss")
	}
}

// TestTrafficMixWriteFrac checks the mix respects the workload's write
// fraction: with WriteFrac w, writes are w of each partition's traffic.
func TestTrafficMixWriteFrac(t *testing.T) {
	m := Default()
	cfg := testConfig()
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		spec := randSpec(r, "a")
		w := spec.Params.WriteFrac
		est, err := m.Estimate(cfg, []sim.ProgramSpec{spec}, sim.SchemeProFess)
		if err != nil {
			t.Fatal(err)
		}
		tm := est.Traffic
		if tot := tm.M1Writes + tm.M2Writes; math.Abs(tot-w) > 1e-9 {
			t.Errorf("trial %d: write share %v, want WriteFrac %v", trial, tot, w)
		}
	}
}
