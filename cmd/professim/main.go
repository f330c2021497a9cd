// Command professim runs one simulation — a single Table 9 program or a
// Table 10 workload — under a chosen migration scheme and prints the
// figures of merit.
//
// Usage:
//
//	professim -program lbm -scheme mdm
//	professim -workload w09 -scheme profess -instr 2000000
//	professim -workload w09 -schemes pom,mdm,profess
//	professim -workload w09 -scheme profess -faults rate=1e-4,seed=7
//	professim -program mcf -scheme profess -telemetry mcf.jsonl -epoch 25000
//	professim -preset scale16 -shards 8 -instr 1000000
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"profess"
	"profess/internal/stats"
)

// runCtx carries the signal-drain context to every simulation: the first
// SIGINT/SIGTERM stops in-flight runs within one watchdog epoch, a
// second one kills the process.
var runCtx = context.Background()

func main() {
	var stopSignals context.CancelFunc
	runCtx, stopSignals = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	var (
		program  = flag.String("program", "", "single Table 9 program to run (e.g. lbm)")
		mix      = flag.String("workload", "", "Table 10 workload to run (e.g. w09)")
		scheme   = flag.String("scheme", "profess", "migration scheme")
		schemes  = flag.String("schemes", "", "comma-separated schemes to compare (overrides -scheme)")
		instr    = flag.Int64("instr", 2_000_000, "instructions per program run")
		scale    = flag.Float64("scale", profess.PaperScale, "capacity scale relative to Table 8")
		ratio    = flag.Int("ratio", 0, "override M1:M2 ratio (e.g. 4 for 1:4)")
		twr      = flag.Float64("twr", 1, "M2 write-recovery latency factor")
		baseline = flag.Bool("baselines", true, "for workloads: run stand-alone baselines and report slowdowns")
		preset   = flag.String("preset", "", "run a named preset fleet instead of -program/-workload (scale16: sixteen programs on eight clusters)")
		shards   = flag.Int("shards", 0, "worker goroutines that run the clusters of clustered presets (0 or 1 = one; pure speed knob, results are byte-identical at any value)")
		threads  = flag.Int("threads", 1, "for -program: run it multi-threaded (§3.1.1)")
		faults   = flag.String("faults", "", "fault-injection plan: key=value,... (seed, nvmread, nvmwrite, stall, stallcycles, qac, sf) or the shorthand rate=<p>")
		telePath = flag.String("telemetry", "", "export per-epoch telemetry to this file (.csv for CSV, JSONL otherwise; a .manifest.json rides along)")
		epoch    = flag.Int64("epoch", 10_000, "telemetry epoch length in CPU cycles (with -telemetry)")
		jsonOut  = flag.Bool("json", false, "emit JSON instead of tables")
		list     = flag.Bool("list", false, "list programs, workloads and schemes, then exit")
		nocache  = flag.Bool("nocache", false, "disable the run cache entirely (identical runs re-simulate; no disk tier)")
		cachedir = flag.String("cachedir", profess.DefaultRunCacheDir(), "persistent run-cache directory ('' or 'off' disables the disk tier)")
		sample   = flag.Float64("sample", 0, "run on the interval-sampling tier with this detailed fraction in (0,1); IPC becomes an estimate reported with a 95% confidence interval. 0 = full fidelity, >= 1 = full fidelity via the sampling path")
		samplewn = flag.Int64("samplewindow", 0, "detailed-window length in cycles for -sample (0 = the config default)")
	)
	flag.Usage = groupedUsage
	flag.Parse()

	if *nocache {
		profess.SetRunCaching(false)
	} else if *cachedir != "" && *cachedir != "off" {
		if err := profess.SetRunCacheDir(*cachedir); err != nil {
			// The in-process tier still works; warn and continue.
			fmt.Fprintf(os.Stderr, "professim: disk cache disabled: %v\n", err)
		}
	}

	if *list {
		printCatalog()
		return
	}
	if *preset == "" && (*program == "") == (*mix == "") {
		fmt.Fprintln(os.Stderr, "professim: exactly one of -program, -workload or -preset is required (see -list)")
		os.Exit(2)
	}
	if *preset != "" && (*program != "" || *mix != "") {
		fmt.Fprintln(os.Stderr, "professim: -preset excludes -program and -workload")
		os.Exit(2)
	}

	var schemeList []profess.Scheme
	if *schemes != "" {
		for _, s := range strings.Split(*schemes, ",") {
			schemeList = append(schemeList, profess.Scheme(strings.TrimSpace(s)))
		}
	} else {
		schemeList = []profess.Scheme{profess.Scheme(*scheme)}
	}

	plan, err := profess.ParseFaultPlan(*faults)
	if err != nil {
		fatal(err)
	}

	if *preset != "" {
		if *preset != "scale16" {
			fatal(fmt.Errorf("unknown preset %q (available: scale16)", *preset))
		}
		cfg := profess.Scale16Config(*scale)
		cfg.Instructions = *instr
		cfg.Shards = *shards
		cfg.M2TWRFactor = *twr
		cfg.Faults = plan
		// Sampling on a clustered preset is rejected by Config.Validate
		// with an actionable message; set it anyway and let the run say so.
		cfg.SampleFraction = *sample
		cfg.SampleWindow = *samplewn
		if *telePath != "" {
			cfg.TelemetryEvery = *epoch
		}
		runScale16Preset(schemeList, cfg, *jsonOut, *telePath)
		return
	}

	var cfg profess.Config
	if *program != "" && *threads <= 1 {
		cfg = profess.SingleCoreConfig(*scale)
	} else {
		// Workloads, and multi-threaded single programs, need the
		// quad-core system.
		cfg = profess.MultiCoreConfig(*scale)
	}
	cfg.Instructions = *instr
	cfg.M2TWRFactor = *twr
	cfg.Shards = *shards
	if *ratio > 0 {
		cfg = cfg.WithM1Ratio(*ratio)
	}
	cfg.Faults = plan
	cfg.SampleFraction = *sample
	cfg.SampleWindow = *samplewn
	if *telePath != "" {
		cfg.TelemetryEvery = *epoch
	}

	if *program != "" {
		runSingle(*program, schemeList, cfg, *threads, *jsonOut, *telePath)
		return
	}
	runWorkload(*mix, schemeList, cfg, *baseline, *telePath)
}

// telemetryPath derives the per-scheme export file: with several schemes
// the scheme name is inserted before the extension so each run keeps its
// own trace.
func telemetryPath(path string, scheme profess.Scheme, multi bool) string {
	if !multi {
		return path
	}
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + string(scheme) + ext
}

// exportTelemetry writes the run's epochs (CSV when the extension says so,
// JSONL otherwise) plus the run manifest alongside.
func exportTelemetry(path string, scheme profess.Scheme, res *profess.Result, cfg profess.Config) {
	if path == "" || res.Telemetry == nil {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if filepath.Ext(path) == ".csv" {
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
	m.Scheme = string(scheme)
	m.Seed = cfg.Seed
	m.Scale = cfg.Scale
	m.Instructions = cfg.Instructions
	m.EpochCycles = cfg.TelemetryEvery
	for _, c := range res.PerCore {
		m.Programs = append(m.Programs, c.Program)
	}
	if cfg.Faults.Enabled() {
		m.Faults = cfg.Faults.String()
	}
	mpath := strings.TrimSuffix(path, filepath.Ext(path)) + ".manifest.json"
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
	fmt.Fprintf(os.Stderr, "telemetry: %d epochs to %s (manifest %s)\n", res.Telemetry.Len(), path, mpath)
}

func runSingle(program string, schemes []profess.Scheme, cfg profess.Config, threads int, jsonOut bool, telePath string) {
	spec, err := profess.SpecFor(program, cfg)
	if err != nil {
		fatal(err)
	}
	spec.Threads = threads
	t := stats.NewTable("scheme", "IPC", "M1 frac", "STC hit", "read lat", "p99 lat", "swaps", "energy eff")
	results := make(map[profess.Scheme]*profess.Result)
	for _, s := range schemes {
		res, err := profess.RunSpecsContext(runCtx, []profess.ProgramSpec{spec}, s, cfg)
		if err != nil {
			fatal(err)
		}
		exportTelemetry(telemetryPath(telePath, s, len(schemes) > 1), s, res, cfg)
		if jsonOut {
			out, err := profess.ResultJSON(res)
			if err != nil {
				fatal(err)
			}
			fmt.Println(out)
			continue
		}
		c := res.PerCore[0]
		t.AddRowf(string(s), c.IPC, c.M1Fraction, c.STCHitRate, c.AvgReadLat, c.ReadLatP99, c.Swaps, res.EnergyEff)
		results[s] = res
	}
	if !jsonOut {
		fmt.Printf("program %s (%d instructions, %d thread(s), scale %.4f)\n\n%s",
			program, cfg.Instructions, threads, cfg.Scale, t.String())
		for _, s := range schemes {
			if res := results[s]; res != nil {
				printSampleInfo(string(s), res)
				printNVMWear(string(s), res)
				printResilience(string(s), res)
			}
		}
	}
}

// runScale16Preset runs the sixteen-program Fleet16 on the clustered
// Scale16 system under each scheme. Shards only changes wall-clock time;
// the printed figures are byte-identical at every worker count.
func runScale16Preset(schemes []profess.Scheme, cfg profess.Config, jsonOut bool, telePath string) {
	specs, err := profess.Fleet16Specs(cfg.Scale)
	if err != nil {
		fatal(err)
	}
	if !jsonOut {
		fmt.Printf("preset scale16 (%d programs, %d clusters, %d shard worker(s), %d instructions per program, scale %.4f)\n\n",
			len(specs), cfg.Clusters, max(cfg.Shards, 1), cfg.Instructions, cfg.Scale)
	}
	for _, s := range schemes {
		res, err := profess.RunSpecsContext(runCtx, specs, s, cfg)
		if err != nil {
			fatal(err)
		}
		exportTelemetry(telemetryPath(telePath, s, len(schemes) > 1), s, res, cfg)
		if jsonOut {
			out, err := profess.ResultJSON(res)
			if err != nil {
				fatal(err)
			}
			fmt.Println(out)
			continue
		}
		t := stats.NewTable("program", "IPC", "M1 frac", "STC hit", "swaps")
		for _, c := range res.PerCore {
			t.AddRowf(c.Program, c.IPC, c.M1Fraction, c.STCHitRate, c.Swaps)
		}
		fmt.Printf("scheme %s: cycles=%d swapFrac=%.4f stcHit=%.3f energyEff=%.3g\n%s\n",
			s, res.Cycles, res.SwapFraction, res.STCHitRate, res.EnergyEff, t.String())
		if len(res.ClusterDone) > 0 {
			fmt.Printf("cluster completion cycles: %v\n", res.ClusterDone)
		}
		printNVMWear(string(s), res)
		printResilience(string(s), res)
	}
}

func runWorkload(name string, schemes []profess.Scheme, cfg profess.Config, baselines bool, telePath string) {
	cache := profess.NewBaselineCache()
	fmt.Printf("workload %s (%d instructions per program, scale %.4f)\n\n", name, cfg.Instructions, cfg.Scale)
	for _, s := range schemes {
		if !baselines {
			res, err := profess.RunMixContext(runCtx, name, s, cfg)
			if err != nil {
				fatal(err)
			}
			exportTelemetry(telemetryPath(telePath, s, len(schemes) > 1), s, res, cfg)
			t := stats.NewTable("program", "IPC", "M1 frac", "repeats")
			for _, c := range res.PerCore {
				t.AddRowf(c.Program, c.IPC, c.M1Fraction, c.Repeats)
			}
			fmt.Printf("scheme %s: swapFrac=%.4f stcHit=%.3f energyEff=%.3g\n%s\n",
				s, res.SwapFraction, res.STCHitRate, res.EnergyEff, t.String())
			printSampleInfo(string(s), res)
			printNVMWear(string(s), res)
			printResilience(string(s), res)
			continue
		}
		wr, err := profess.RunWorkloadContext(runCtx, name, s, cfg, cache)
		if err != nil {
			fatal(err)
		}
		exportTelemetry(telemetryPath(telePath, s, len(schemes) > 1), s, wr.Result, cfg)
		t := stats.NewTable("program", "IPC", "IPC alone", "slowdown", "M1 frac")
		for i, c := range wr.Result.PerCore {
			t.AddRowf(c.Program, c.FirstIPC, wr.AloneIPC[i], wr.Slowdowns[i], c.M1Fraction)
		}
		fmt.Printf("scheme %s: weighted speedup=%.3f  max slowdown=%.3f  swap frac=%.4f  energy eff=%.3g\n%s\n",
			s, wr.WeightedSpeedup, wr.MaxSlowdown, wr.Result.SwapFraction, wr.Result.EnergyEff, t.String())
		printSampleInfo(string(s), wr.Result)
		printNVMWear(string(s), wr.Result)
		printResilience(string(s), wr.Result)
	}
}

// printSampleInfo reports the sampling parameters and the per-program IPC
// confidence intervals when the run executed on the interval-sampling
// tier. Full-fidelity runs print nothing.
func printSampleInfo(scheme string, res *profess.Result) {
	sp := res.Sampling
	if sp.Windows == 0 {
		return
	}
	fmt.Printf("sampling %s: fraction=%.3g window=%d cycles, %d detailed windows; IPC ±95%%:",
		scheme, sp.Fraction, sp.Window, sp.Windows)
	for _, c := range res.PerCore {
		fmt.Printf(" %s=%.4f±%.4f", c.Program, c.IPC, c.IPCCI95)
	}
	fmt.Println()
}

// printNVMWear reports M2 write wear and the projected device lifetime
// when the run wrote to M2 at all.
func printNVMWear(scheme string, res *profess.Result) {
	w := res.NVM
	if w.WriteBursts == 0 {
		return
	}
	fmt.Printf("nvm wear %s: writes=%d rows=%d/%d hottest=%d leveling=%.3f lifetime=%.3gs (ideal %.3gs)\n",
		scheme, w.WriteBursts, w.WrittenRows, w.Rows, w.MaxRowWrites,
		w.LevelingEfficiency, w.LifetimeSeconds, w.LifetimeIdealSeconds)
}

// printResilience reports fault-injection activity when there was any.
func printResilience(scheme string, res *profess.Result) {
	r := res.Resilience
	if !r.Any() {
		return
	}
	fmt.Printf("resilience %s: nvm faults=%d (retries=%d drops=%d)  stalls=%d (%d cycles)  corrupt QAC=%d/%d  bad SF=%d/%d  degraded entries=%d cycles=%d fallback decisions=%d\n",
		scheme,
		r.InjectedNVMReadFaults+r.InjectedNVMWriteFaults, r.Retries, r.Drops,
		r.InjectedStalls, r.InjectedStallCycles,
		r.CorruptQACUpdates, r.InjectedQACCorruptions,
		r.ImplausibleSFs, r.InjectedSFCorruptions,
		r.DegradedEntries, r.DegradedCycles, r.DegradedDecisions)
}

func printCatalog() {
	fmt.Println("programs (Table 9):")
	for _, p := range profess.Programs() {
		fmt.Printf("  %-12s MPKI=%-3.0f footprint=%3.0fMB pattern=%s\n",
			p.Name, p.PaperMPKI, p.PaperFootprintMB, p.Pattern)
	}
	fmt.Println("workloads (Table 10):")
	for _, w := range profess.Workloads() {
		fmt.Printf("  %s: %s\n", w.Name, strings.Join(w.Programs[:], " - "))
	}
	fmt.Println("schemes:")
	for _, s := range profess.Schemes() {
		fmt.Printf("  %s\n", s)
	}
}

// groupedUsage replaces flag.PrintDefaults with labelled sections — the
// flag set spans run selection, fidelity, fault injection, caching and
// execution concerns, and an alphabetical wall hides which knobs change
// results and which are free. Ungrouped future flags fall through to a
// trailing section.
func groupedUsage() {
	out := flag.CommandLine.Output()
	fmt.Fprintf(out, "Usage: professim (-program <p> | -workload <w> | -preset <name>) [options]\n")
	groups := []struct {
		title string
		names []string
	}{
		{"Run selection", []string{"program", "workload", "preset", "list"}},
		{"Schemes", []string{"scheme", "schemes", "baselines"}},
		{"System & scale", []string{"instr", "scale", "ratio", "twr", "threads"}},
		{"Fidelity dial (trade exactness for speed; results change)", []string{"sample", "samplewindow"}},
		{"Fault injection & telemetry", []string{"faults", "telemetry", "epoch"}},
		{"Execution (pure speed knob; results are byte-identical)", []string{"shards"}},
		{"Caching", []string{"cachedir", "nocache"}},
		{"Output", []string{"json"}},
	}
	seen := map[string]bool{}
	for _, g := range groups {
		fmt.Fprintf(out, "\n%s:\n", g.title)
		for _, n := range g.names {
			if f := flag.Lookup(n); f != nil {
				seen[n] = true
				printFlag(out, f)
			}
		}
	}
	first := true
	flag.VisitAll(func(f *flag.Flag) {
		if seen[f.Name] {
			return
		}
		if first {
			fmt.Fprintf(out, "\nOther:\n")
			first = false
		}
		printFlag(out, f)
	})
}

func printFlag(out io.Writer, f *flag.Flag) {
	typ, usage := flag.UnquoteUsage(f)
	if typ != "" {
		fmt.Fprintf(out, "  -%s %s\n", f.Name, typ)
	} else {
		fmt.Fprintf(out, "  -%s\n", f.Name)
	}
	fmt.Fprintf(out, "        %s", usage)
	if f.DefValue != "" && f.DefValue != "false" && f.DefValue != "0" {
		fmt.Fprintf(out, " (default %v)", f.DefValue)
	}
	fmt.Fprintln(out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "professim:", err)
	os.Exit(1)
}
