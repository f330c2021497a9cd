// Command professbench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index). Each experiment is
// addressable by id; "all" runs the full set.
//
// By default the requested experiments are swept in three phases: a plan
// phase dry-runs the drivers to enumerate every simulation cell they will
// need, the deduplicated union executes longest-expected-job-first on one
// worker pool, and the drivers then re-run to render their figures purely
// from the completed cell table (the warm run cache). Completed cells
// also persist to an on-disk cache (-cachedir), so a warm re-run of the
// whole sweep performs zero simulations. -nocache restores the phase-free
// behaviour for honest end-to-end timing.
//
// Usage:
//
//	professbench -exp fig5
//	professbench -exp all -instr 2000000
//	professbench -exp fig13,fig14,fig15 -workloads w09,w12,w19
//	professbench -exp all -cachedir off -nocache   # timing-honest cold run
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // -debug: profiling endpoints on the debug server
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"profess"
)

// experiment binds an id to its driver. An experiment that prints
// another's report (fig6 prints fig5's run) names it in sameAs, so "all"
// runs and prints each driver once.
type experiment struct {
	id     string
	about  string
	sameAs string
	run    func(opts profess.ExpOptions) (fmt.Stringer, error)
}

// experiments binds the id table.
func experiments() []experiment {
	singleBoth := func(opts profess.ExpOptions) (fmt.Stringer, error) {
		return profess.RunSinglePrograms([]profess.Scheme{profess.SchemePoM, profess.SchemeMDM}, opts)
	}
	multiAll := func(opts profess.ExpOptions) (fmt.Stringer, error) {
		return profess.RunMultiProgram([]profess.Scheme{profess.SchemePoM, profess.SchemeMDM, profess.SchemeProFess}, opts)
	}
	return []experiment{
		{"fig2", "slowdowns under PoM for w09, w16, w19", "", func(opts profess.ExpOptions) (fmt.Stringer, error) {
			if len(opts.Workloads) == 0 {
				opts.Workloads = []string{"w09", "w16", "w19"}
			}
			rep, err := profess.RunMultiProgram([]profess.Scheme{profess.SchemePoM}, opts)
			if err != nil {
				return nil, err
			}
			return stringer(rep.SlowdownDetailString(opts.Workloads)), nil
		}},
		{"table4", "RSM sampling accuracy (bwaves, milc, omnetpp)", "", func(opts profess.ExpOptions) (fmt.Stringer, error) {
			return profess.RunSamplingAccuracy(opts)
		}},
		{"fig5", "single-program MDM vs PoM IPC (also fig6/fig7 data)", "", singleBoth},
		{"fig6", "single-program M1-served fraction (same run as fig5)", "fig5", singleBoth},
		{"fig7", "single-program STC hit rates (same run as fig5)", "fig5", singleBoth},
		{"fig8", "MDM sensitivity to STC size (also fig9 data)", "", func(opts profess.ExpOptions) (fmt.Stringer, error) {
			return profess.RunSTCSensitivity(opts)
		}},
		{"fig9", "STC hit rates vs STC size (same run as fig8)", "fig8", func(opts profess.ExpOptions) (fmt.Stringer, error) {
			return profess.RunSTCSensitivity(opts)
		}},
		{"sens-twr", "MDM vs PoM under t_WR_M2 x0.5 / x1 / x2", "", func(opts profess.ExpOptions) (fmt.Stringer, error) {
			return profess.RunTWRSensitivity(opts)
		}},
		{"sens-ratio", "MDM vs PoM at M1:M2 = 1:4 / 1:8 / 1:16", "", func(opts profess.ExpOptions) (fmt.Stringer, error) {
			return profess.RunRatioSensitivity(opts)
		}},
		{"fig10", "multi-program MDM & ProFess vs PoM (figs 10-15 data)", "", multiAll},
		{"fig11", "see fig10", "fig10", multiAll},
		{"fig12", "see fig10", "fig10", multiAll},
		{"fig13", "see fig10", "fig10", multiAll},
		{"fig14", "see fig10", "fig10", multiAll},
		{"fig15", "see fig10", "fig10", multiAll},
		{"fig16", "per-program slowdowns for w09, w16, w19 under all schemes", "", func(opts profess.ExpOptions) (fmt.Stringer, error) {
			if len(opts.Workloads) == 0 {
				opts.Workloads = []string{"w09", "w16", "w19"}
			}
			rep, err := profess.RunMultiProgram([]profess.Scheme{profess.SchemePoM, profess.SchemeMDM, profess.SchemeProFess}, opts)
			if err != nil {
				return nil, err
			}
			return stringer(rep.SlowdownDetailString(opts.Workloads)), nil
		}},
		{"mempod", "MemPod AMMAT vs PoM (§2.5 observation)", "", func(opts profess.ExpOptions) (fmt.Stringer, error) {
			if len(opts.Workloads) == 0 {
				opts.Workloads = []string{"w02", "w09", "w12", "w19"}
			}
			return profess.RunMemPodComparison(opts)
		}},
		{"algos", "all Table 2 algorithms compared on selected workloads", "", func(opts profess.ExpOptions) (fmt.Stringer, error) {
			if len(opts.Workloads) == 0 {
				opts.Workloads = []string{"w09", "w12", "w19"}
			}
			return profess.RunMultiProgram(
				[]profess.Scheme{profess.SchemePoM, profess.SchemeCAMEO, profess.SchemeSILCFM,
					profess.SchemeMemPod, profess.SchemeMDM, profess.SchemeProFess}, opts)
		}},
		{"faults", "robustness: slowdown/energy vs injected fault rate (PoM, MDM, ProFess)", "", func(opts profess.ExpOptions) (fmt.Stringer, error) {
			if len(opts.Workloads) == 0 {
				opts.Workloads = []string{"w09", "w12", "w19"}
			}
			return profess.RunFaultSweep(nil, nil, opts)
		}},
		{"xval", "analytic fast tier vs cycle model: IPC/M1/lifetime cross-validation", "", func(opts profess.ExpOptions) (fmt.Stringer, error) {
			return profess.RunCrossValidation(profess.Schemes(), opts)
		}},
		// scale16 times real runs (and re-verifies worker-count determinism), so
		// it bypasses the cache and reports itself unplannable.
		{"scale16", "worker-count scaling curve of the clustered runner on the 16-program fleet (timing-honest; 1, 2, 4 and 8 workers, up to GOMAXPROCS)", "", func(opts profess.ExpOptions) (fmt.Stringer, error) {
			return profess.RunScale16(profess.SchemeProFess, opts)
		}},
		// sample times real runs too (full vs sampled, both uncached).
		{"sample", "sampled tier vs full fidelity: per-workload IPC error and speedup (timing-honest; fraction 0.05)", "", func(opts profess.ExpOptions) (fmt.Stringer, error) {
			return profess.RunSampleValidation(0.05, 0, []profess.Scheme{profess.SchemeProFess}, opts)
		}},
	}
}

type stringer string

func (s stringer) String() string { return string(s) }

// Progress counters for the -debug expvar endpoint (/debug/vars).
var (
	expvarCurrent   = expvar.NewString("professbench.current_experiment")
	expvarCompleted = expvar.NewInt("professbench.experiments_completed")
)

// benchLine is one go-bench-format measurement for -benchout: wall time
// plus the run-cache counter deltas and heap-allocation deltas attributed
// to that phase or experiment, in the line format of `go test -bench`.
type benchLine struct {
	name      string
	wall      time.Duration
	delta     profess.RunCacheCounters
	allocs    uint64
	heapBytes uint64
}

func (l benchLine) String() string {
	return fmt.Sprintf("BenchmarkExp/%s 1 %d ns/op %d sims %d mem-hits %d disk-hits %d allocs %d heap-bytes",
		l.name, l.wall.Nanoseconds(), l.delta.Sims, l.delta.MemHits, l.delta.DiskHits, l.allocs, l.heapBytes)
}

// memSnapshot reads the process's cumulative allocation counters; deltas
// between two snapshots attribute heap churn (object count and bytes) to
// a phase. `make arena-smoke` divides by the phase's simulation count to
// gate allocs/cell, the arena-reuse regression check.
func memSnapshot() (mallocs, heapBytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id(s), comma separated, or 'all' (see -list)")
		instr    = flag.Int64("instr", 2_000_000, "instructions per program run")
		scale    = flag.Float64("scale", profess.PaperScale, "capacity scale relative to Table 8")
		wls      = flag.String("workloads", "", "restrict workloads (comma separated)")
		progs    = flag.String("programs", "", "restrict programs (comma separated)")
		par      = flag.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		csv      = flag.Bool("csv", false, "emit CSV instead of tables where supported")
		debug    = flag.String("debug", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060) while experiments run")
		list     = flag.Bool("list", false, "list experiments and exit")
		nocache  = flag.Bool("nocache", false, "disable the run cache entirely: no plan/execute phases, every cell simulates from scratch as its experiment renders, and no disk tier")
		cachedir = flag.String("cachedir", profess.DefaultRunCacheDir(), "persistent run-cache directory ('' or 'off' disables the disk tier)")
		benchout = flag.String("benchout", "", "write go-bench-format wall-time and cache-counter lines to this file")
		resume   = flag.Bool("resume", true, "skip the cells whose results the cache directory already holds; -resume=false runs every cell again (loading the stored ones) and starts the sweep's journal afresh")
	)
	flag.Usage = groupedUsage
	flag.Parse()

	// First SIGINT/SIGTERM drains gracefully: in-flight cells stop within
	// one watchdog epoch, the plan lock is released, and every finished
	// cell is already in the disk cache for a re-run to resume. A second
	// signal kills the process the usual way.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	if *nocache {
		profess.SetRunCaching(false)
	} else if *cachedir != "" && *cachedir != "off" {
		if err := profess.SetRunCacheDir(*cachedir); err != nil {
			// Memory tier still works; warn and continue.
			fmt.Fprintf(os.Stderr, "professbench: disk cache disabled: %v\n", err)
		}
	}

	if *debug != "" {
		go func() {
			// DefaultServeMux carries both /debug/pprof/* (imported above)
			// and /debug/vars (expvar); a long "all" run can then be
			// profiled and watched live.
			if err := http.ListenAndServe(*debug, nil); err != nil {
				fmt.Fprintf(os.Stderr, "professbench: debug server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "professbench: debug server on http://%s/debug/pprof/ and /debug/vars\n", *debug)
	}

	exps := experiments()
	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, e := range exps {
			fmt.Printf("  %-10s %s\n", e.id, e.about)
		}
		if *exp == "" {
			os.Exit(2)
		}
		return
	}

	opts := profess.ExpOptions{
		Scale:        *scale,
		Instructions: *instr,
		Parallelism:  *par,
		Context:      ctx,
	}
	if *wls != "" {
		opts.Workloads = strings.Split(*wls, ",")
	}
	if *progs != "" {
		opts.Programs = strings.Split(*progs, ",")
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(id)] = true
	}
	runAll := want["all"]

	// Select the experiments to run. "all" skips the ones that print
	// another's report (fig6/7, fig9, fig11..15), so each driver runs and
	// prints once; an explicit list prints exactly what it names.
	var selected []experiment
	for _, e := range exps {
		if (runAll && e.sameAs == "") || want[e.id] {
			selected = append(selected, e)
		}
	}

	var lines []benchLine
	total := time.Now()

	// Phase 1+2: plan the sweep and execute the deduplicated cell union.
	// Stdout stays untouched here — reports must be byte-identical with
	// and without planning — so progress goes to stderr.
	var planned []profess.PlannedExperiment
	if profess.RunCaching() {
		for _, e := range selected {
			run := e.run
			planned = append(planned, profess.PlannedExperiment{
				Name: e.id,
				Run: func() error {
					_, err := run(opts)
					return err
				},
			})
		}
	}
	if len(planned) > 0 {
		start := time.Now()
		before := profess.RunCacheDetail()
		mallocs0, heap0 := memSnapshot()
		plan, err := profess.PlanSweep(planned)
		if err != nil {
			fmt.Fprintf(os.Stderr, "professbench: planning: %v\n", err)
			os.Exit(1)
		}
		dedup := 1.0
		if len(plan.Cells) > 0 {
			dedup = float64(plan.Requested) / float64(len(plan.Cells))
		}
		fmt.Fprintf(os.Stderr, "professbench: plan: %d distinct cells (%d requested, dedup %.2fx) across %d experiments\n",
			len(plan.Cells), plan.Requested, dedup, len(planned))
		if len(plan.Unplannable) > 0 {
			fmt.Fprintf(os.Stderr, "professbench: plan: unplannable (simulate at render): %s\n", strings.Join(plan.Unplannable, ", "))
		}
		expvarCurrent.Set("execute")
		rep, err := plan.ExecuteOpts(ctx, profess.ExecOptions{Parallelism: *par, Fresh: !*resume})
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "professbench: interrupted; %d/%d cells done and stored — re-run to resume\n",
				rep.Done+rep.Resumed, rep.Cells)
			os.Exit(130)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "professbench: execute: %v\n", err)
			os.Exit(1)
		}
		d := profess.RunCacheDetail().Sub(before)
		fmt.Fprintf(os.Stderr, "professbench: execute: %d simulated, %d from disk, %d already in memory (%.1fs)\n",
			d.Sims, d.DiskHits, d.MemHits, time.Since(start).Seconds())
		if rep.Resumed > 0 || rep.Retries > 0 {
			fmt.Fprintf(os.Stderr, "professbench: execute: %d resumed from the disk cache, %d retries\n",
				rep.Resumed, rep.Retries)
		}
		mallocs1, heap1 := memSnapshot()
		lines = append(lines, benchLine{"plan+execute", time.Since(start), d, mallocs1 - mallocs0, heap1 - heap0})
	}

	// Phase 3: render. With a completed plan every cell is a cache hit;
	// without one this is where the simulations happen.
	for _, e := range selected {
		fmt.Printf("==== %s: %s ====\n", e.id, e.about)
		expvarCurrent.Set(e.id)
		start := time.Now()
		before := profess.RunCacheDetail()
		mallocs0, heap0 := memSnapshot()
		rep, err := e.run(opts)
		if err != nil {
			if ctx.Err() != nil {
				fmt.Fprintf(os.Stderr, "professbench: %s: interrupted\n", e.id)
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "professbench: %s: %v\n", e.id, err)
			os.Exit(1)
		}
		mallocs1, heap1 := memSnapshot()
		lines = append(lines, benchLine{e.id, time.Since(start), profess.RunCacheDetail().Sub(before), mallocs1 - mallocs0, heap1 - heap0})
		expvarCompleted.Add(1)
		if *csv {
			if c, ok := rep.(profess.CSVer); ok {
				fmt.Println(c.CSV())
				continue
			}
		}
		fmt.Println(rep.String())
	}

	if *benchout != "" {
		if err := writeBenchout(*benchout, lines, time.Since(total)); err != nil {
			fmt.Fprintf(os.Stderr, "professbench: benchout: %v\n", err)
			os.Exit(1)
		}
	}
}

// groupedUsage replaces flag.PrintDefaults with labelled sections: the
// flag set spans selection, scale, execution, caching and output, and an
// alphabetical wall hides which knobs change results and which are free.
// Flags not named in a group (future additions) fall through to a
// trailing section rather than disappearing.
func groupedUsage() {
	out := flag.CommandLine.Output()
	fmt.Fprintf(out, "Usage: professbench -exp <ids> [options]\n")
	groups := []struct {
		title string
		names []string
	}{
		{"Experiment selection", []string{"exp", "list", "workloads", "programs"}},
		{"Simulation scale", []string{"instr", "scale"}},
		{"Execution (pure speed knobs; results are byte-identical)", []string{"parallel"}},
		{"Caching & durability", []string{"cachedir", "nocache", "resume"}},
		{"Output & diagnostics", []string{"csv", "benchout", "debug"}},
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

// writeBenchout emits the per-experiment wall times, cache-counter and
// allocation deltas in go-bench format, closed by a total line carrying
// the sweep's overall hit rate and GOMAXPROCS. `make sweep-smoke` and
// `make arena-smoke` read it.
func writeBenchout(path string, lines []benchLine, wall time.Duration) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(f, "goos: %s\ngoarch: %s\n", runtime.GOOS, runtime.GOARCH)
	var sum profess.RunCacheCounters
	var allocs, heapBytes uint64
	for _, l := range lines {
		sum.Sims += l.delta.Sims
		sum.MemHits += l.delta.MemHits
		sum.DiskHits += l.delta.DiskHits
		allocs += l.allocs
		heapBytes += l.heapBytes
		fmt.Fprintln(f, l)
	}
	totalLine := benchLine{"total", wall, sum, allocs, heapBytes}
	fmt.Fprintf(f, "%s %.1f hit-rate-%% %d gomaxprocs\n", totalLine, 100*sum.HitRate(), runtime.GOMAXPROCS(0))
	return f.Close()
}
