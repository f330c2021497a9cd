package profess

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"profess/internal/stats"
)

// sampleEnvelope is the committed contract of the sampled-simulation tier
// (interval sampling with functional fast-forward): per-workload bounds on
// how far a sampled run's per-program IPC may drift from the full-fidelity
// run's, matrix-wide summary bounds, and a wall-clock speedup floor.
// Regenerate with
//
//	go test -run TestSampleEnvelope -update .
//
// after a deliberate change to the sampling machinery, and review the diff
// — a loosening envelope means the sampled tier is drifting away from the
// ground truth it exists to approximate.
//
// The matrix deliberately includes the hardest Table 10 mixes (the
// swap-heavy w03/w06/w13/w14, whose window IPC is violently bimodal)
// alongside well-behaved ones, so the summary bounds are not flattered by
// easy workloads; -exp sample sweeps all nineteen.
type sampleEnvelope struct {
	// Fraction and Window pin the operating point the envelope was
	// measured at (Window 0 = DefaultSampleWindow).
	Fraction float64 `json:"fraction"`
	Window   int64   `json:"window"`
	// Instructions pins the run length (0 = the standard-scale default;
	// sampling error is noise-dominated far below it).
	Instructions int64    `json:"instructions"`
	Workloads    []string `json:"workloads"`
	// MeanAbsIPCErrorLimit / MaxAbsIPCErrorLimit bound the summary stats
	// over every (workload, program) point.
	MeanAbsIPCErrorLimit float64 `json:"mean_abs_ipc_error_limit"`
	MaxAbsIPCErrorLimit  float64 `json:"max_abs_ipc_error_limit"`
	// SpeedupFloor is the whole-matrix wall-clock ratio the sampled tier
	// must at least deliver. It is set well under the measured speedup —
	// wall time on shared CI is noisy — but still high enough to catch
	// the fast-forward path regressing toward the cycle model's cost.
	SpeedupFloor float64              `json:"speedup_floor"`
	Cells        []sampleEnvelopeCell `json:"cells"`
}

type sampleEnvelopeCell struct {
	Workload string `json:"workload"`
	// MeanAbsIPCErrorLimit / MaxAbsIPCErrorLimit bound the cell's mean
	// and worst per-program |sampled-full|/full.
	MeanAbsIPCErrorLimit float64 `json:"mean_abs_ipc_error_limit"`
	MaxAbsIPCErrorLimit  float64 `json:"max_abs_ipc_error_limit"`
}

const sampleEnvelopePath = "testdata/sample_envelope.json"

// TestSampleEnvelope runs the envelope's workload matrix both ways — full
// fidelity and sampled at the committed operating point — and enforces the
// committed accuracy envelope cell by cell, plus the speedup floor.
// Shares xval_test.go's -update flag.
func TestSampleEnvelope(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	env := sampleEnvelope{
		Fraction:  0.05,
		Window:    0,
		Workloads: []string{"w01", "w03", "w06", "w08", "w13", "w14", "w16", "w19"},
	}
	if !*updateEnvelope {
		raw, err := os.ReadFile(sampleEnvelopePath)
		if err != nil {
			t.Fatalf("read envelope (run with -update to create): %v", err)
		}
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("parse envelope: %v", err)
		}
	}

	rep, err := RunSampleValidation(env.Fraction, env.Window, []Scheme{SchemeProFess},
		ExpOptions{Instructions: env.Instructions, Workloads: env.Workloads})
	if err != nil {
		t.Fatal(err)
	}

	if *updateEnvelope {
		env.MeanAbsIPCErrorLimit = round4(rep.MeanAbsIPCError*1.25 + 0.02)
		env.MaxAbsIPCErrorLimit = round4(rep.MaxAbsIPCError*1.25 + 0.05)
		env.SpeedupFloor = round4(rep.Speedup / 1.5)
		env.Cells = env.Cells[:0]
		for _, row := range rep.Rows {
			env.Cells = append(env.Cells, sampleEnvelopeCell{
				Workload:             row.Workload,
				MeanAbsIPCErrorLimit: round4(row.MeanAbsIPCError*1.3 + 0.03),
				MaxAbsIPCErrorLimit:  round4(row.MaxAbsIPCError*1.3 + 0.05),
			})
		}
		raw, err := json.MarshalIndent(env, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(sampleEnvelopePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(sampleEnvelopePath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: mean |e|=%.2f%% max |e|=%.2f%% speedup %.2fx",
			sampleEnvelopePath, 100*rep.MeanAbsIPCError, 100*rep.MaxAbsIPCError, rep.Speedup)
		return
	}

	limits := make(map[string]sampleEnvelopeCell, len(env.Cells))
	for _, c := range env.Cells {
		limits[c.Workload] = c
	}
	for _, row := range rep.Rows {
		lim, ok := limits[row.Workload]
		if !ok {
			t.Errorf("%s: no committed envelope cell (regenerate with -update)", row.Workload)
			continue
		}
		if row.MeanAbsIPCError > lim.MeanAbsIPCErrorLimit {
			t.Errorf("%s: mean |IPC error| %.2f%% exceeds committed %.2f%%",
				row.Workload, 100*row.MeanAbsIPCError, 100*lim.MeanAbsIPCErrorLimit)
		}
		if row.MaxAbsIPCError > lim.MaxAbsIPCErrorLimit {
			t.Errorf("%s: max |IPC error| %.2f%% exceeds committed %.2f%%",
				row.Workload, 100*row.MaxAbsIPCError, 100*lim.MaxAbsIPCErrorLimit)
		}
	}
	if len(rep.Rows) != len(env.Cells) {
		t.Errorf("matrix has %d cells, envelope commits %d (regenerate with -update)", len(rep.Rows), len(env.Cells))
	}
	if rep.MeanAbsIPCError > env.MeanAbsIPCErrorLimit {
		t.Errorf("mean |IPC error| %.2f%% exceeds committed %.2f%%",
			100*rep.MeanAbsIPCError, 100*env.MeanAbsIPCErrorLimit)
	}
	if rep.MaxAbsIPCError > env.MaxAbsIPCErrorLimit {
		t.Errorf("max |IPC error| %.2f%% exceeds committed %.2f%%",
			100*rep.MaxAbsIPCError, 100*env.MaxAbsIPCErrorLimit)
	}
	if rep.Speedup < env.SpeedupFloor {
		t.Errorf("speedup %.2fx below committed floor %.2fx (full %.1fs, sampled %.1fs)",
			rep.Speedup, env.SpeedupFloor, rep.FullSec, rep.SampledSec)
	}
	t.Logf("mean |e|=%.2f%% max |e|=%.2f%% speedup %.2fx",
		100*rep.MeanAbsIPCError, 100*rep.MaxAbsIPCError, rep.Speedup)
}

// TestSampleValReportRendering exercises the table and scatter CSV on a
// tiny matrix so the -exp sample driver's outputs stay well-formed.
func TestSampleValReportRendering(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rep, err := RunSampleValidation(0.2, 30_000, []Scheme{SchemeProFess},
		ExpOptions{Instructions: 300_000, Workloads: []string{"w09", "w19"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rep.Rows))
	}
	s := rep.String()
	for _, want := range []string{"w09", "w19", "speedup", "IPC error"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
	csv := rep.CSV()
	if !strings.Contains(csv, "mean_abs_ipc_error") {
		t.Errorf("CSV() missing headers:\n%s", csv)
	}
	if lines := strings.Count(csv, "\n"); lines != 3 {
		t.Errorf("CSV() has %d lines, want 3 (header + 2 rows)", lines)
	}
}

// TestSampledTierReversesFig5 pins a documented deviation of the sampled
// tier (EXPERIMENTS.md, "When not to trust -sample"): its IPC bias differs
// by scheme, so it turns Fig. 5 around. Over ExpOptions' nine Fig. 5
// programs at 1.5M instructions, the archive's budget, MDM's IPC gmean
// normalised to PoM reads 1.171 at full fidelity (professbench_all.txt)
// and 0.950 with SampleFraction 0.05. That reversal is why no figure
// sweep runs on the sampled tier. The second assertion fails once the
// fix for the scheme bias lands (ROADMAP item 1); the test then becomes
// that item's audit, asserting that both tiers put MDM above PoM.
func TestSampledTierReversesFig5(t *testing.T) {
	if testing.Short() {
		t.Skip("36 single-program runs at 1.5M instructions")
	}
	opts := ExpOptions{Instructions: 1_500_000}
	gmean := func(fraction float64) float64 {
		cfg := opts.singleConfig()
		cfg.SampleFraction = fraction
		var ratios []float64
		for _, prog := range opts.programs() {
			ipc := map[Scheme]float64{}
			for _, s := range []Scheme{SchemePoM, SchemeMDM} {
				res, err := RunProgram(prog, s, cfg)
				if err != nil {
					t.Fatalf("%s/%s at fraction %g: %v", prog, s, fraction, err)
				}
				ipc[s] = res.PerCore[0].IPC
			}
			ratios = append(ratios, Ratio(ipc[SchemeMDM], ipc[SchemePoM]))
		}
		return stats.GeoMean(ratios)
	}
	full, sampled := gmean(0), gmean(0.05)
	t.Logf("Fig. 5 MDM/PoM IPC gmean: full fidelity %.3f, sampled at 0.05 %.3f", full, sampled)
	if !(full > 1) {
		t.Errorf("full-fidelity MDM/PoM IPC gmean = %.3f; Fig. 5 puts MDM above PoM", full)
	}
	if !(sampled < 1) {
		t.Errorf("sampled MDM/PoM IPC gmean = %.3f, no longer below 1: the sampled tier's scheme bias has moved; turn this test into the audit of its fix", sampled)
	}
}
