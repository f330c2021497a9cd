// Command professtrace works with captured reference traces: it records a
// synthetic program's stream to a compact binary file, inspects a capture,
// or replays one through the full simulator — the pipeline that lets an
// externally produced trace (in the same format) drive this simulator.
//
// Usage:
//
//	professtrace -record mcf -n 200000 -out mcf.pftr
//	professtrace -stats mcf.pftr
//	professtrace -replay mcf.pftr -scheme mdm -instr 1000000
//	professtrace -replay mcf.pftr -scheme mdm -telemetry mcf.jsonl -epoch 25000
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"profess"
	"profess/internal/sim"
	"profess/internal/trace"
)

func main() {
	var (
		record = flag.String("record", "", "Table 9 program to capture")
		n      = flag.Int64("n", 200_000, "references to capture")
		out    = flag.String("out", "", "output file for -record")
		stats  = flag.String("stats", "", "trace file to inspect")
		replay = flag.String("replay", "", "trace file to simulate")
		scheme = flag.String("scheme", "mdm", "migration scheme for -replay")
		instr  = flag.Int64("instr", 1_000_000, "instruction budget for -replay")
		scale  = flag.Float64("scale", profess.PaperScale, "capacity scale")
		tele   = flag.String("telemetry", "", "for -replay: export per-epoch telemetry to this file (.csv for CSV, JSONL otherwise; a .manifest.json rides along)")
		epoch  = flag.Int64("epoch", 10_000, "telemetry epoch length in CPU cycles (with -telemetry)")
	)
	flag.Parse()

	switch {
	case *record != "":
		if *out == "" {
			fatal(fmt.Errorf("-record requires -out"))
		}
		doRecord(*record, *n, *out, *scale)
	case *stats != "":
		doStats(*stats)
	case *replay != "":
		doReplay(*replay, *scheme, *instr, *scale, *tele, *epoch)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func doRecord(program string, n int64, out string, scale float64) {
	spec, err := sim.SpecForProgram(program, scale)
	if err != nil {
		fatal(err)
	}
	gen, err := trace.NewGenerator(spec.Params)
	if err != nil {
		fatal(err)
	}
	f, err := os.Create(out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := trace.WriteTrace(f, gen, n); err != nil {
		fatal(err)
	}
	fmt.Printf("captured %d references of %s (footprint %d KB) to %s\n",
		n, program, spec.Params.Footprint>>10, out)
}

func doStats(path string) {
	rp := load(path)
	p := rp.Params()
	var writes, deps, gapSum int64
	blocks := map[int64]int64{}
	maxReuse := int64(0)
	for i := 0; i < rp.Len(); i++ {
		r := rp.Next()
		if r.Write {
			writes++
		}
		if r.Dep {
			deps++
		}
		gapSum += int64(r.Gap)
		b := r.VAddr / 2048
		blocks[b]++
		if blocks[b] > maxReuse {
			maxReuse = blocks[b]
		}
	}
	total := int64(rp.Len())
	fmt.Printf("trace %s: %d refs\n", path, total)
	fmt.Printf("  program     %s\n", p.Name)
	fmt.Printf("  footprint   %d KB\n", p.Footprint>>10)
	fmt.Printf("  writes      %.1f%%\n", pct(writes, total))
	fmt.Printf("  dependent   %.1f%%\n", pct(deps, total))
	fmt.Printf("  mean gap    %.1f instructions\n", float64(gapSum)/float64(total))
	fmt.Printf("  2-KB blocks touched  %d (max refs to one block: %d)\n", len(blocks), maxReuse)
}

func doReplay(path, scheme string, instr int64, scale float64, tele string, epoch int64) {
	rp := load(path)
	cfg := profess.SingleCoreConfig(scale)
	cfg.Instructions = instr
	if tele != "" {
		cfg.TelemetryEvery = epoch
	}
	spec := profess.ProgramSpec{Name: rp.Params().Name, Params: rp.Params(), Source: rp}
	res, err := profess.RunSpecs([]profess.ProgramSpec{spec}, profess.Scheme(scheme), cfg)
	if err != nil {
		fatal(err)
	}
	exportTelemetry(tele, path, scheme, res, cfg)
	c := res.PerCore[0]
	fmt.Printf("replayed %s under %s: IPC %.3f, M1-served %.1f%%, STC hit %.1f%%, swaps %d\n",
		path, scheme, c.IPC, 100*c.M1Fraction, 100*c.STCHitRate, c.Swaps)
}

// exportTelemetry writes the replay's epochs (CSV when the extension says
// so, JSONL otherwise) plus a manifest recording the replayed capture.
func exportTelemetry(out, tracePath, scheme string, res *profess.Result, cfg profess.Config) {
	if out == "" || res.Telemetry == nil {
		return
	}
	f, err := os.Create(out)
	if err != nil {
		fatal(err)
	}
	if filepath.Ext(out) == ".csv" {
		err = res.Telemetry.WriteCSV(f)
	} else {
		err = res.Telemetry.WriteJSONL(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatal(err)
	}
	m := profess.NewTelemetryManifest()
	m.Scheme = scheme
	m.Seed = cfg.Seed
	m.Scale = cfg.Scale
	m.Instructions = cfg.Instructions
	m.EpochCycles = cfg.TelemetryEvery
	for _, c := range res.PerCore {
		m.Programs = append(m.Programs, c.Program)
	}
	m.Extra = map[string]string{"trace": tracePath}
	mpath := strings.TrimSuffix(out, filepath.Ext(out)) + ".manifest.json"
	mf, err := os.Create(mpath)
	if err != nil {
		fatal(err)
	}
	err = m.WriteJSON(mf)
	if cerr := mf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "telemetry: %d epochs to %s (manifest %s)\n", res.Telemetry.Len(), out, mpath)
}

func load(path string) *trace.Replayer {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	rp, err := trace.ReadTrace(f)
	if err != nil {
		fatal(err)
	}
	return rp
}

func pct(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "professtrace:", err)
	os.Exit(1)
}
