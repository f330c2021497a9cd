package sim

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"profess/internal/fault"
)

// -update rewrites the committed goldens under testdata/golden from the
// current build:
//
//	go test ./internal/sim -run 'TestGoldenTelemetry|TestGoldenScale16|TestSampledGolden' -update
//
// Inspect the diff before committing — a golden change means the
// simulation's observable behaviour changed.
var update = flag.Bool("update", false, "rewrite the testdata/golden files")

// goldenConfig is the fixed scenario behind the golden traces: a
// fixed-seed two-program mix (mcf's irregular pointer chasing competing
// with lbm's streaming) on the quad-core system, small enough to run in
// about a second but long enough to cross several MDM phases.
func goldenConfig(t *testing.T) (Config, []ProgramSpec) {
	t.Helper()
	cfg := MultiCoreConfig(PaperScale)
	cfg.Instructions = 120_000
	cfg.TelemetryEvery = 25_000
	specs := make([]ProgramSpec, 0, 2)
	for _, name := range []string{"mcf", "lbm"} {
		s, err := SpecForProgram(name, cfg.Scale)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	return cfg, specs
}

// goldenRun executes the scenario under one scheme and returns the
// exported per-epoch JSONL.
func goldenRun(t *testing.T, scheme Scheme) []byte {
	t.Helper()
	cfg, specs := goldenConfig(t)
	res, err := Run(cfg, specs, scheme)
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry == nil {
		t.Fatal("telemetry enabled but Result.Telemetry is nil")
	}
	if res.Telemetry.Len() == 0 {
		t.Fatal("telemetry recorded no epochs")
	}
	var buf bytes.Buffer
	if err := res.Telemetry.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenTelemetry regression-tests the whole simulated machine: the
// per-epoch telemetry of a fixed-seed run under pom and mdm must match the
// committed traces byte for byte. Any drift in event ordering, RNG
// consumption, policy arithmetic, or export formatting shows up here as a
// readable JSONL diff rather than a silent behaviour change.
func TestGoldenTelemetry(t *testing.T) {
	for _, scheme := range []Scheme{SchemePoM, SchemeMDM} {
		t.Run(string(scheme), func(t *testing.T) {
			got := goldenRun(t, scheme)

			// Determinism first: a second in-process run must reproduce the
			// export byte for byte, otherwise the golden comparison would
			// chase ghosts.
			again := goldenRun(t, scheme)
			if !bytes.Equal(got, again) {
				t.Fatal("two in-process runs produced different telemetry exports")
			}

			matchGolden(t, filepath.Join("testdata", "golden", string(scheme)+".jsonl"), got)
		})
	}
}

// matchGolden compares an export with its committed golden file, or
// rewrites the file under -update.
func matchGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s diverged from the golden\n got %d bytes, want %d bytes\nfirst differing line: %s\nrerun with -update and inspect the diff if the change is intended",
			path, len(got), len(want), firstDiffLine(got, want))
	}
}

// firstDiffLine locates the first line where two JSONL exports diverge.
func firstDiffLine(got, want []byte) string {
	g := bytes.Split(got, []byte("\n"))
	w := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return string(g[i])
		}
	}
	if len(g) > len(w) {
		return "(extra trailing lines in got)"
	}
	return "(extra trailing lines in want)"
}

// TestGoldenScale16 regression-tests the clustered runner end to end on
// the 16-program fleet at 60k instructions: under every scheme, ProFess
// under a fault plan, and ProFess with telemetry at two workers. Each
// scenario's Result JSON, and the merged telemetry of the telemetry one,
// must match testdata/golden/scale16/<name>.json(l) byte for byte. Update
// with -update like TestGoldenTelemetry.
func TestGoldenScale16(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg, specs := scale16TestConfig(t, 60_000)
	type goldenCase struct {
		name   string
		scheme Scheme
		cfg    Config
	}
	var cases []goldenCase
	for _, scheme := range AllSchemes() {
		cases = append(cases, goldenCase{string(scheme), scheme, cfg})
	}
	faulty := cfg
	plan, err := fault.ParsePlan("rate=1e-3,sf=0.2,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	faulty.Faults = plan
	tele := cfg
	tele.TelemetryEvery = 25_000
	tele.Shards = 2
	cases = append(cases, goldenCase{"profess-faults", SchemeProFess, faulty}, goldenCase{"profess-telemetry", SchemeProFess, tele})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.cfg, specs, tc.scheme)
			if err != nil {
				t.Fatal(err)
			}
			js, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			files := map[string][]byte{tc.name + ".json": append(js, '\n')}
			if res.Telemetry != nil {
				var buf bytes.Buffer
				if err := res.Telemetry.WriteJSONL(&buf); err != nil {
					t.Fatal(err)
				}
				files[tc.name+".jsonl"] = buf.Bytes()
			}
			for file, got := range files {
				matchGolden(t, filepath.Join("testdata", "golden", "scale16", file), got)
			}
		})
	}
}

// TestSampledGolden regression-tests the sampled tier end to end: w09 and
// w13 under every scheme, each with and without the fault plan
// rate=1e-3,sf=0.2,seed=3, at fraction 0.05 with 30k-cycle windows
// (sampleCfg). Each run's Result JSON must match
// testdata/golden/sampled/<mix>-<scheme>[-faults].json byte for byte, so
// any change to fast-forward (its access order, its functional charges,
// its pacing) shows here. Update with -update like TestGoldenTelemetry.
func TestSampledGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	plan, err := fault.ParsePlan("rate=1e-3,sf=0.2,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	for _, mix := range []string{"w09", "w13"} {
		specs, err := SpecsForWorkload(mustWorkload(t, mix), PaperScale)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range AllSchemes() {
			for _, faulty := range []bool{false, true} {
				name := mix + "-" + string(scheme)
				cfg := sampleCfg(0.05)
				if faulty {
					name += "-faults"
					cfg.Faults = plan
				}
				t.Run(name, func(t *testing.T) {
					res, err := Run(cfg, specs, scheme)
					if err != nil {
						t.Fatal(err)
					}
					js, err := json.MarshalIndent(res, "", "  ")
					if err != nil {
						t.Fatal(err)
					}
					matchGolden(t, filepath.Join("testdata", "golden", "sampled", name+".json"), append(js, '\n'))
				})
			}
		}
	}
}
