package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"profess"
	"profess/internal/mem"
)

// refsDir holds the committed references, relative to the repository root
// the benchmark runs from.
const refsDir = "perfbench/refs"

// programRef is the checked summary of one program's simulated outcome.
type programRef struct {
	Program      string
	Instructions int64
	IPC          float64
	Served       int64
	Swaps        int64
	M1Fraction   float64
	ReadLatP50   float64
	ReadLatP95   float64
	ReadLatP99   float64
}

// runRef is the checked summary of one simulation: cycles, every
// program's outcome and the memory system's event counts.
type runRef struct {
	Cycles   int64
	Programs []programRef
	Counts   mem.EventCounts
}

func summarize(res *profess.Result) runRef {
	r := runRef{Cycles: res.Cycles, Counts: res.Counts}
	for _, c := range res.PerCore {
		r.Programs = append(r.Programs, programRef{
			Program:      c.Program,
			Instructions: c.Instructions,
			IPC:          c.IPC,
			Served:       c.Served,
			Swaps:        c.Swaps,
			M1Fraction:   c.M1Fraction,
			ReadLatP50:   c.ReadLatP50,
			ReadLatP95:   c.ReadLatP95,
			ReadLatP99:   c.ReadLatP99,
		})
	}
	return r
}

// refFile is one workload's committed references. Keys are built from
// workload, experiment and scheme names (refKey), never from run-cache
// keys, which hash the Config's Go syntax and change whenever a field is
// added.
type refFile struct {
	Workload string `json:"workload"`
	// Runs maps refKey to a full simulation summary (cell, fleet16).
	Runs map[string]runRef `json:"runs,omitempty"`
	// Reports maps an experiment name to its rendered report (sweep).
	Reports map[string]string `json:"reports,omitempty"`
	// IPCs maps refKey to the full-fidelity per-program IPCs a sampled
	// run is scored against (sampled).
	IPCs map[string][]float64 `json:"ipcs,omitempty"`
	// MaxIPCError maps a mix to the largest per-program |IPC error| a
	// sampled run may show, copied from testdata/sample_envelope.json when
	// the references were recorded (sampled).
	MaxIPCError map[string]float64 `json:"max_ipc_error,omitempty"`
}

// refKey names one reference: the input variant the seed selected, the
// mix and the scheme.
func refKey(variant int, mix string, scheme profess.Scheme) string {
	return fmt.Sprintf("v%d/%s/%s", variant, mix, scheme)
}

func refPath(workload string) string { return filepath.Join(refsDir, workload+".json") }

func loadRefs(workload string) (*refFile, error) {
	data, err := os.ReadFile(refPath(workload))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("no references for %s: record them with --update", workload)
	}
	if err != nil {
		return nil, err
	}
	var r refFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", refPath(workload), err)
	}
	return &r, nil
}

func saveRefs(r *refFile) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(refsDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(refPath(r.Workload), append(data, '\n'), 0o644)
}

// sameRun reports whether a result matches its reference exactly.
func sameRun(ref runRef, res *profess.Result) bool {
	a, errA := json.Marshal(ref)
	b, errB := json.Marshal(summarize(res))
	return errA == nil && errB == nil && string(a) == string(b)
}

// sampleEnvelope is the subset of testdata/sample_envelope.json the
// sampled references copy.
type sampleEnvelope struct {
	MaxAbsIPCErrorLimit float64 `json:"max_abs_ipc_error_limit"`
	Cells               []struct {
		Workload            string  `json:"workload"`
		MaxAbsIPCErrorLimit float64 `json:"max_abs_ipc_error_limit"`
	} `json:"cells"`
}

// envelopeMax returns the envelope's per-workload maximum |IPC error| for
// each mix, falling back to the matrix-wide maximum for a mix the
// envelope does not cover.
func envelopeMax(mixes []string) (map[string]float64, error) {
	data, err := os.ReadFile(filepath.Join("testdata", "sample_envelope.json"))
	if err != nil {
		return nil, err
	}
	var env sampleEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, m := range mixes {
		out[m] = env.MaxAbsIPCErrorLimit
		for _, c := range env.Cells {
			if c.Workload == m {
				out[m] = c.MaxAbsIPCErrorLimit
			}
		}
	}
	return out, nil
}
