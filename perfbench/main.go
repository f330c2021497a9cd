// Command perfbench is the repository's benchmark. It runs one named
// workload through the public profess and profess/internal APIs, checks
// every simulated result against the references committed under
// perfbench/refs, and prints its metrics, last of all as one JSON object
// on the final line of standard output.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload cell --seed 0 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced (spans, boundary counters, CPU profile) in one
// process and reports the per-layer metrics. --update records the
// workload's references for every input variant. NOTES.md explains the
// workloads and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"time"

	"profess"
)

// Outputs go under the checkout's build directory (ignored by git).
const buildDir = ".bench_build"

var tmpDir = filepath.Join(buildDir, "tmp")

// minReps is the fewest timed repetitions a run takes, whatever its
// budget: the median of three rides out one transiently slow repetition.
const minReps = 3

// A run repeats its set-up for setupBudget, and at least minSetups times,
// and reports the median: one set-up takes milliseconds, too short for a
// handful of trials to give a steady figure.
const (
	setupBudget = time.Second
	minSetups   = 5
)

// minNamedShare is the share of profile samples the traced run must
// attribute to a named layer or the runtime.
const minNamedShare = 0.95

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	update   bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "cell", "workload: cell, sweep, sampled or fleet16")
	flag.Int64Var(&o.seed, "seed", 0, "input seed; seed mod 2 selects the input variant (0 default, 1 held out)")
	flag.Float64Var(&o.seconds, "seconds", 15, "timed budget of one pass, in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs untraced then traced and reports the per-layer metrics")
	flag.BoolVar(&o.update, "update", false, "record the workload's references for every input variant")
	flag.Parse()
	o.trace = traceFlag == 1

	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		fatal(err)
	}
	ctx := context.Background()
	if o.update {
		if err := update(ctx, o.workload); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: recorded %s\n", refPath(o.workload))
		return
	}
	res, err := run(ctx, o)
	if err != nil {
		fatal(err)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("%-32s %14d of %d\n", "operations failed", res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// update records the references of every input variant of a workload.
func update(ctx context.Context, name string) error {
	rf := &refFile{Workload: name, Runs: map[string]runRef{}, Reports: map[string]string{}, IPCs: map[string][]float64{}}
	n := variants
	if name == "sweep" {
		n = 1 // the sweep drivers fix their own seeds
	}
	for v := 0; v < n; v++ {
		w, err := newWorkload(name, v, nil)
		if err != nil {
			return err
		}
		if name != "sweep" {
			profess.SetRunCaching(false)
		}
		if err := w.setUp(ctx, nil); err != nil {
			return err
		}
		if err := w.record(ctx, rf); err != nil {
			return err
		}
	}
	return saveRefs(rf)
}

// tally accumulates operations across repetitions.
type tally struct {
	attempted, failed int64
	problems          []string
}

func (t *tally) add(outs ...*outcome) {
	for _, o := range outs {
		t.attempted += o.ops
		t.failed += o.failed
		t.problems = append(t.problems, o.problems...)
	}
}

// passes runs the timed repetitions, exactly n when n > 0. Otherwise it
// runs at least minReps and then stops before a repetition of the median
// length so far would end past budget, so a run's length stays close to
// its budget however slow the host is. A non-nil probe is sampled after
// every repetition, and a non-nil afterFirst is called once the first
// repetition has ended.
//
// Every repetition must reproduce the simulated results want stands for,
// or the first repetition's when want is empty; passes returns that
// digest. It keeps the results of the latest repetition only, so the
// benchmark's own memory does not grow with the number of repetitions.
func passes(ctx context.Context, w workload, tr *tracer, probe *hostProbe, budget time.Duration, n int, want string, afterFirst func() error) ([]*outcome, string, error) {
	start := time.Now()
	var outs []*outcome
	for {
		if n > 0 && len(outs) >= n {
			break
		}
		if n == 0 && len(outs) >= minReps &&
			time.Since(start)+time.Duration(median(walls(outs))*float64(time.Second)) > budget {
			break
		}
		id := tr.begin("repetition")
		o, err := w.rep(ctx, tr)
		tr.end(id)
		if err != nil {
			return nil, "", err
		}
		if want == "" {
			want = o.digest
		} else if o.digest != want {
			o.fail("repetition %d: simulated results differ", len(outs))
		}
		o.digest = ""
		if len(outs) > 0 {
			outs[len(outs)-1].results = nil
		}
		outs = append(outs, o)
		if len(outs) == 1 && afterFirst != nil {
			if err := afterFirst(); err != nil {
				return nil, "", err
			}
		}
		if probe != nil {
			probe.sampleAfter(o.wall)
		}
	}
	return outs, want, nil
}

// hostSeconds is the median host time of the successful repetitions,
// which it returns too.
func hostSeconds(outs []*outcome) (float64, []*outcome) {
	var ok []*outcome
	for _, o := range outs {
		if o.failed == 0 && o.wall > 0 {
			ok = append(ok, o)
		}
	}
	return median(walls(ok)), ok
}

func cellsOf(outs []*outcome) int {
	n := 0
	for _, o := range outs {
		n += o.cells
	}
	return n
}

func walls(outs []*outcome) []float64 {
	var xs []float64
	for _, o := range outs {
		xs = append(xs, o.wall.Seconds())
	}
	return xs
}

func run(ctx context.Context, o options) (*result, error) {
	refs, err := loadRefs(o.workload)
	if err != nil {
		return nil, err
	}
	w, err := newWorkload(o.workload, variantOf(o.seed), refs)
	if err != nil {
		return nil, err
	}
	if o.workload != "sweep" {
		profess.SetRunCaching(false)
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	var probe *hostProbe
	if !o.trace {
		if probe, err = newHostProbe(); err != nil {
			return nil, err
		}
		defer probe.close()
		probe.sampleAfter(setupBudget)
	}

	var setups []float64
	for begin := time.Now(); len(setups) < minSetups || time.Since(begin) < setupBudget; {
		start := time.Now()
		if err := w.setUp(ctx, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	// peak_rss_mb is the high-water mark once set-up and one repetition
	// are done: what a user's process running the workload once needs.
	// Later repetitions in the same process raise it, on fleet16 by up to
	// 40%, depending on when the collector runs (NOTES.md).
	var rss float64
	readRSS := func() (err error) {
		rss, err = peakRSSMB()
		return err
	}
	afterFirst := readRSS
	// The warm-up repetition is checked like the rest but not timed.
	var warm []*outcome
	want := ""
	if w.warmUp() {
		o, err := w.rep(ctx, nil)
		if err != nil {
			return nil, err
		}
		warm = append(warm, o)
		want = o.digest
		if err := readRSS(); err != nil {
			return nil, err
		}
		afterFirst = nil
	}
	rt0 := readRuntime()
	outs, want, err := passes(ctx, w, nil, probe, budget, 0, want, afterFirst)
	if err != nil {
		return nil, err
	}
	// The untraced pass is the user's path, so the runtime layer is read
	// around it.
	rt1 := readRuntime()
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d set-ups (ms) quartiles %.3f %.3f %.3f, warm-up (s) %.3f, timed repetitions (s) %.3f\n",
		o.workload, len(setups), 1e3*quantile(setups, 0.25), 1e3*median(setups), 1e3*quantile(setups, 0.75),
		walls(warm), walls(outs))

	var t tally
	t.add(warm...)
	t.add(outs...)
	res := &result{Metrics: map[string]metric{}}
	if !o.trace {
		host, ok := hostSeconds(outs)
		slow := probe.slowdown()
		fmt.Fprintf(os.Stderr, "perfbench: %s: unscaled median repetition %.4f s of %d, median set-up %.4f ms; "+
			"probe median %.2f ms of %d, slowdown %.4f\n",
			o.workload, host, len(ok), 1e3*median(setups), 1e3*median(probe.samples), len(probe.samples), slow)
		var instr int64
		var cells int
		if len(ok) > 0 {
			instr, cells = ok[0].instr, ok[0].cells
		}
		// Host times are scaled to the nominal host; the probe's table
		// is resident throughout and is not the workload's memory.
		for name, v := range map[string]float64{
			"sim_mips":    float64(instr) * slow / host / 1e6,
			"cells_per_s": float64(cells) * slow / host,
			"setup_s":     median(setups) / slow,
			"peak_rss_mb": rss - probeBytes/(1<<20),
		} {
			res.Metrics[name] = metric{v, endToEnd[name]}
		}
	} else {
		traced, layers, err := tracedPass(ctx, o, w, tr, len(outs), want)
		if err != nil {
			return nil, err
		}
		t.add(traced...)
		layers["tracing.overhead_pct"] = 100 * (median(walls(traced))/median(walls(outs)) - 1)
		layers["runtime.gc_cpu_share"] = gcShare(rt0, rt1)
		layers["runtime.alloc_mb_per_cell"] = ratio(float64(rt1.allocBytes-rt0.allocBytes)/(1<<20), float64(cellsOf(outs)))
		for name, unit := range perLayer {
			res.Metrics[name] = metric{layers[name], unit}
		}
	}
	for n, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// Only possible when no repetition succeeded.
			res.Metrics[n] = metric{0, m.Unit}
		}
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Correct = t.failed == 0
	for _, p := range t.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	return res, nil
}

// endToEnd lists the end-to-end metrics with their units. Every workload
// reports all of them; BENCHMARK.json's end_to_end list matches it
// (TestMetricNamesMatch).
var endToEnd = map[string]string{
	"sim_mips":    "Minstr/s",
	"cells_per_s": "1/s",
	"setup_s":     "s",
	"peak_rss_mb": "MiB",
}

// perLayer lists every per-layer metric with its unit. A traced run
// reports all of them; one that does not apply to the workload reads 0.
// BENCHMARK.json's per_layer list matches it (TestMetricNamesMatch).
var perLayer = map[string]string{
	"sample.ff_ns_per_kinstr":   "ns/kinstr",
	"sim.reset_ns_per_kinstr":   "ns/kinstr",
	"sim.build_ms":              "ms",
	"trace.refs":                "count",
	"trace.ns_per_ref":          "ns",
	"core.policy_calls":         "count",
	"core.policy_ns_per_call":   "ns",
	"runtime.gc_cpu_share":      "ratio",
	"runtime.alloc_mb_per_cell": "MiB",
	"tracing.overhead_pct":      "%",
	"tracing.attributed_pct":    "%",

	"mem.row_hit_rate":         "ratio",
	"mem.swap_busy_share":      "ratio",
	"mem.read_lat_p99_cycles":  "cycles",
	"hybrid.demand_accesses":   "count",
	"hybrid.stc_hit_rate":      "ratio",
	"hybrid.st_bursts":         "count",
	"hybrid.swaps_per_kaccess": "1/kaccess",
	"hybrid.fault_retries":     "count",
	"hybrid.fault_drops":       "count",
	"cache.l3_hit_rate":        "ratio",
	"sample.windows":           "count",
	"sample.ci95_rel_pct":      "%",
	"sample.ipc_err_pct":       "%",

	"profess.plan_s":            "s",
	"profess.execute_s":         "s",
	"profess.render_s":          "s",
	"profess.dedup_x":           "ratio",
	"profess.cell_ms_p50":       "ms",
	"profess.cell_ms_p95":       "ms",
	"profess.worker_busy_share": "ratio",
	"profess.cells_failed":      "count",
	"profess.retries":           "count",
	"lease.gap_ms_p50":          "ms",
}

// profileLayers are the layers whose profile self time is reported as
// <layer>.self_ns_per_kinstr; "other" sums the remaining named modules
// (energy, fault, stats, telemetry, workload), which no workload spends
// much time in.
var profileLayers = []string{
	"event", "mem", "hybrid", "cache", "cpu", "trace", "xrand", "core", "migrate",
	"sim", "shard", "sample", "profess", "lease", "analytic", "runtime", "bench",
}

func init() {
	for _, l := range append(profileLayers, "other") {
		perLayer[l+".self_ns_per_kinstr"] = "ns/kinstr"
	}
}

// tracedPass repeats the workload n times with the boundary wrappers,
// spans and a CPU profile on, checks the results against the untraced
// ones, and derives the per-layer metrics.
func tracedPass(ctx context.Context, o options, w workload, tr *tracer, n int, want string) ([]*outcome, map[string]float64, error) {
	emptyNS := timingCost()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, nil, err
	}
	outs, _, err := passes(ctx, w, tr, nil, 0, n, want, nil)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, nil, err
	}

	stem := filepath.Join(buildDir, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	if err := os.WriteFile(stem+".pprof", prof.Bytes(), 0o644); err != nil {
		return nil, nil, err
	}
	if err := tr.write(stem + ".spans.jsonl"); err != nil {
		return nil, nil, err
	}
	p, err := decodeProfile(prof.Bytes())
	if err != nil {
		return nil, nil, err
	}
	a, err := p.attribute()
	if err != nil {
		return nil, nil, err
	}
	if share := a.namedShare(); share < minNamedShare {
		outs[len(outs)-1].fail("profile: only %.1f%% of samples map to a named layer (need %.0f%%)", 100*share, 100*minNamedShare)
	}

	var instr int64
	var src, pol boundary
	for _, x := range outs {
		instr += x.instr
		src.add(x.src)
		pol.add(x.pol)
	}
	perKinstr := func(ns int64) float64 { return ratio(float64(ns), float64(instr)/1000) }
	reps := float64(len(outs))
	m := map[string]float64{
		"sample.ff_ns_per_kinstr": perKinstr(a.inclNS["profess/internal/sim.(*System).fastForward"]),
		"sim.reset_ns_per_kinstr": perKinstr(a.inclNS["profess/internal/sim.(*System).reset"]),
		"sim.build_ms":            medianMS(tr.durations("sim.NewSystem")),
		"tracing.attributed_pct":  100 * a.namedShare(),
		"trace.refs":              float64(src.calls) / reps,
		"trace.ns_per_ref":        src.nsPerCall(emptyNS),
		"core.policy_calls":       float64(pol.calls) / reps,
		"core.policy_ns_per_call": pol.nsPerCall(emptyNS),
	}
	rest := a.totalNS - a.selfNS[""]
	for _, l := range profileLayers {
		m[l+".self_ns_per_kinstr"] = perKinstr(a.selfNS[l])
		rest -= a.selfNS[l]
	}
	m["other.self_ns_per_kinstr"] = perKinstr(rest)
	for k, v := range simCounters(outs[len(outs)-1]) {
		m[k] = v
	}
	if sw, ok := w.(*sweepWorkload); ok {
		for k, v := range sweepLayers(sw, outs, tr) {
			m[k] = v
		}
	}
	return outs, m, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func medianMS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / 1e6
	}
	return median(xs)
}

// simCounters derives the simulated per-layer counters of one
// repetition. They are deterministic, so one repetition stands for all.
func simCounters(o *outcome) map[string]float64 {
	var demand, rowHits, rowMisses, swaps, swapBusy, cycles, stBursts, retries, drops, windows int64
	var stcW, l3W, p99, ci, ipcErr float64
	var programs, sampledPrograms int
	for _, r := range o.results {
		d := r.Counts.DemandAccesses()
		demand += d
		rowHits += r.Counts.RowHits[0] + r.Counts.RowHits[1]
		rowMisses += r.Counts.RowMisses[0] + r.Counts.RowMisses[1]
		swaps += r.Counts.Swaps
		swapBusy += r.Counts.SwapBusy
		cycles += r.Cycles
		stBursts += r.STReads + r.STWrites
		retries += r.Resilience.Retries
		drops += r.Resilience.Drops
		windows += r.Sampling.Windows
		stcW += r.STCHitRate * float64(d)
		l3W += r.L3HitRate * float64(d)
		for _, c := range r.PerCore {
			p99 += c.ReadLatP99
			programs++
			if c.IPCCI95 > 0 && c.IPC > 0 {
				ci += c.IPCCI95 / c.IPC
				sampledPrograms++
			}
		}
	}
	for _, e := range o.ipcErr {
		ipcErr += e
	}
	return map[string]float64{
		"mem.row_hit_rate":         ratio(float64(rowHits), float64(rowHits+rowMisses)),
		"mem.swap_busy_share":      ratio(float64(swapBusy), float64(cycles)),
		"mem.read_lat_p99_cycles":  ratio(p99, float64(programs)),
		"hybrid.demand_accesses":   float64(demand),
		"hybrid.stc_hit_rate":      ratio(stcW, float64(demand)),
		"hybrid.st_bursts":         float64(stBursts),
		"hybrid.swaps_per_kaccess": 1000 * ratio(float64(swaps), float64(demand)),
		"hybrid.fault_retries":     float64(retries),
		"hybrid.fault_drops":       float64(drops),
		"cache.l3_hit_rate":        ratio(l3W, float64(demand)),
		"sample.windows":           float64(windows),
		"sample.ci95_rel_pct":      100 * ratio(ci, float64(sampledPrograms)),
		"sample.ipc_err_pct":       100 * ratio(ipcErr, float64(len(o.ipcErr))),
	}
}

// sweepLayers derives the planner, executor and lease metrics of the
// sweep's traced repetitions.
func sweepLayers(sw *sweepWorkload, outs []*outcome, tr *tracer) map[string]float64 {
	var exec, render, cellMS, gapMS []float64
	var busyMS, execMS float64
	var failed, retries int
	for _, o := range outs {
		exec = append(exec, o.execute.Seconds())
		render = append(render, o.render.Seconds())
		execMS += float64(o.execute) / 1e6
		if o.exec != nil {
			failed += o.exec.Failed
			retries += o.exec.Retries
		}
		for _, s := range o.cellSpans {
			d := float64(s.done-s.claimed) / 1e6
			cellMS = append(cellMS, d)
			busyMS += d
		}
		for _, g := range leaseGaps(o.cellSpans) {
			gapMS = append(gapMS, float64(g)/1e6)
		}
	}
	return map[string]float64{
		"profess.plan_s":      medianMS(tr.durations("profess.PlanSweep")) / 1e3,
		"profess.execute_s":   median(exec),
		"profess.render_s":    median(render),
		"profess.dedup_x":     ratio(float64(sw.plan.Requested), float64(len(sw.plan.Cells))),
		"profess.cell_ms_p50": quantile(cellMS, 0.50),
		"profess.cell_ms_p95": quantile(cellMS, 0.95),
		// One worker executes the sweep, so its busy share is the cell
		// spans' total over the execute phases'.
		"profess.worker_busy_share": ratio(busyMS, execMS),
		"profess.cells_failed":      float64(failed),
		"profess.retries":           float64(retries),
		"lease.gap_ms_p50":          quantile(gapMS, 0.50),
	}
}
