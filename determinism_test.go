package profess

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"profess/internal/sim"
	"profess/internal/workload"
)

// TestDeterministicReplay is the timing-wheel refactor's safety net: the
// same fixed-seed mcf+lbm mix, run twice from scratch with telemetry on,
// must produce deeply-equal Results and byte-identical JSONL exports. Any
// engine change that reorders same-cycle events — a broken seq tiebreak, a
// migration that overtakes a direct insert — shows up here as a diff.
// Telemetry-enabled runs bypass the run cache, and caching is disabled
// outright for belt and braces, so both runs truly simulate.
func TestDeterministicReplay(t *testing.T) {
	SetRunCaching(false)
	defer SetRunCaching(true)

	run := func() (*Result, []byte) {
		cfg := MultiCoreConfig(PaperScale)
		cfg.Instructions = 120_000
		cfg.TelemetryEvery = 25_000
		var specs []ProgramSpec
		for _, name := range []string{"mcf", "lbm"} {
			s, err := SpecFor(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			specs = append(specs, s)
		}
		res, err := RunSpecs(specs, SchemeProFess, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.Telemetry.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes()
	}

	r1, j1 := run()
	r2, j2 := run()
	if r1 == r2 {
		t.Fatal("runs shared a Result pointer; the comparison would be vacuous")
	}

	// The sampler is stateful (ring indices, prev-counter snapshots) and
	// compared through its JSONL export instead.
	r1.Telemetry, r2.Telemetry = nil, nil
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("Results differ between identical runs:\n run1: %+v\n run2: %+v", r1, r2)
	}
	if !bytes.Equal(j1, j2) {
		t.Error("telemetry JSONL differs between identical runs")
	}
	if len(j1) == 0 {
		t.Error("telemetry export is empty")
	}
}

// TestEntryPointsRerunByteIdentical reruns the public entry points for
// every scheme on w09 with the run cache off, so each call simulates:
// RunWithPolicy twice, each time with a fresh policy from sim.NewPolicy
// on a freshly built machine, and RunMix twice, on the arena's reused
// machines. All four Result JSONs must be byte-identical, which pins
// rerun determinism, fresh against reused machines, and the custom-policy
// surface against the scheme surface.
func TestEntryPointsRerunByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	SetRunCaching(false)
	defer SetRunCaching(true)
	cfg := MultiCoreConfig(PaperScale)
	cfg.Instructions = 300_000
	w, err := workload.WorkloadByName("w09")
	if err != nil {
		t.Fatal(err)
	}
	specs, err := sim.SpecsForWorkload(w, cfg.Scale)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Schemes() {
		var first []byte
		check := func(entry string, run int, res *Result, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %s run %d: %v", s, entry, run, err)
			}
			js, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = js
			} else if !bytes.Equal(js, first) {
				t.Errorf("%s: %s run %d differs from RunWithPolicy run 1:\n%s\n%s", s, entry, run, js, first)
			}
		}
		for run := 1; run <= 2; run++ {
			pol, err := sim.NewPolicy(s, len(specs), cfg.Scale)
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunWithPolicy(specs, pol, cfg)
			check("RunWithPolicy", run, res, err)
		}
		for run := 1; run <= 2; run++ {
			res, err := RunMix("w09", s, cfg)
			check("RunMix", run, res, err)
		}
	}
}
