package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"profess"
	"profess/internal/lease"
	"profess/internal/sim"
)

// sweepInstr is the per-program budget of the sweep's cells (the
// Makefile's SWEEP_INSTR).
const sweepInstr = 200_000

// sweepExp is one plannable experiment of `professbench -exp all` and the
// report it renders.
type sweepExp struct {
	name string
	run  func(opts profess.ExpOptions) (fmt.Stringer, error)
}

type text string

func (t text) String() string { return string(t) }

// sweepExperiments lists every plannable experiment of `professbench -exp
// all`, once per driver run: fig6/fig7, fig9 and fig11-fig15 print from
// the fig5, fig8 and fig10 runs. Each closure calls the driver exactly as
// professbench does.
func sweepExperiments() []sweepExp {
	withWorkloads := func(opts profess.ExpOptions, wls ...string) profess.ExpOptions {
		if len(opts.Workloads) == 0 {
			opts.Workloads = wls
		}
		return opts
	}
	slowdowns := func(schemes ...profess.Scheme) func(profess.ExpOptions) (fmt.Stringer, error) {
		return func(opts profess.ExpOptions) (fmt.Stringer, error) {
			opts = withWorkloads(opts, "w09", "w16", "w19")
			rep, err := profess.RunMultiProgram(schemes, opts)
			if err != nil {
				return nil, err
			}
			return text(rep.SlowdownDetailString(opts.Workloads)), nil
		}
	}
	pom, mdm, pf := profess.SchemePoM, profess.SchemeMDM, profess.SchemeProFess
	return []sweepExp{
		{"fig2", slowdowns(pom)},
		{"fig5", func(opts profess.ExpOptions) (fmt.Stringer, error) {
			return profess.RunSinglePrograms([]profess.Scheme{pom, mdm}, opts)
		}},
		{"fig8", func(opts profess.ExpOptions) (fmt.Stringer, error) { return profess.RunSTCSensitivity(opts) }},
		{"sens-twr", func(opts profess.ExpOptions) (fmt.Stringer, error) { return profess.RunTWRSensitivity(opts) }},
		{"sens-ratio", func(opts profess.ExpOptions) (fmt.Stringer, error) { return profess.RunRatioSensitivity(opts) }},
		{"fig10", func(opts profess.ExpOptions) (fmt.Stringer, error) {
			return profess.RunMultiProgram([]profess.Scheme{pom, mdm, pf}, opts)
		}},
		{"fig16", slowdowns(pom, mdm, pf)},
		{"mempod", func(opts profess.ExpOptions) (fmt.Stringer, error) {
			return profess.RunMemPodComparison(withWorkloads(opts, "w02", "w09", "w12", "w19"))
		}},
		{"algos", func(opts profess.ExpOptions) (fmt.Stringer, error) {
			return profess.RunMultiProgram([]profess.Scheme{pom, profess.SchemeCAMEO, profess.SchemeSILCFM,
				profess.SchemeMemPod, mdm, pf}, withWorkloads(opts, "w09", "w12", "w19"))
		}},
		{"faults", func(opts profess.ExpOptions) (fmt.Stringer, error) {
			return profess.RunFaultSweep(nil, nil, withWorkloads(opts, "w09", "w12", "w19"))
		}},
		{"xval", func(opts profess.ExpOptions) (fmt.Stringer, error) {
			return profess.RunCrossValidation(profess.Schemes(), opts)
		}},
	}
}

// sweepWorkload is a cold planned sweep of every plannable experiment, as
// in a user's first professbench run: plan, execute on one worker with
// the disk tier, leases and journal on, then render every report. Each
// repetition starts from an empty memory cache and an empty disk-cache
// directory inside the checkout. The drivers fix their own seeds, so the
// seed does not change this workload.
type sweepWorkload struct {
	refs *refFile
	opts profess.ExpOptions
	exps []sweepExp
	plan *profess.SweepPlan
}

// warmUp is false: every repetition is cold by design (empty memory cache,
// empty cache directory, fresh worker arenas), a warm-up sweep measured no
// faster than the timed ones, and the time it would take buys a third
// timed repetition, whose median rides out a transient slowdown that the
// mean of two cannot.
func (w *sweepWorkload) warmUp() bool { return false }

func (w *sweepWorkload) setUp(ctx context.Context, tr *tracer) error {
	profess.SetRunCaching(true)
	w.opts = profess.ExpOptions{Instructions: sweepInstr, Parallelism: 1, Context: ctx}
	w.exps = sweepExperiments()
	planned := make([]profess.PlannedExperiment, len(w.exps))
	for i, e := range w.exps {
		run := e.run
		planned[i] = profess.PlannedExperiment{Name: e.name, Run: func() error {
			_, err := run(w.opts)
			return err
		}}
	}
	id := tr.begin("profess.PlanSweep")
	plan, err := profess.PlanSweep(planned)
	tr.end(id)
	if err != nil {
		return err
	}
	if len(plan.Cells) == 0 || len(plan.Unplannable) > 0 {
		return fmt.Errorf("sweep plan has %d cells, unplannable %v", len(plan.Cells), plan.Unplannable)
	}
	w.plan = plan
	c := plan.Cells[0]
	policy, err := sim.NewPolicy(c.Scheme, len(c.Specs), c.Cfg.Scale)
	if err != nil {
		return err
	}
	_, err = buildSystem(tr, c.Cfg, c.Specs, policy)
	return err
}

func (w *sweepWorkload) rep(ctx context.Context, tr *tracer) (*outcome, error) {
	dir, err := os.MkdirTemp(tmpDir, "sweep-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	profess.ResetRunCache()
	if err := profess.SetRunCacheDir(dir); err != nil {
		return nil, err
	}
	defer profess.SetRunCacheDir("")

	o := &outcome{cells: len(w.plan.Cells)}
	execID := tr.begin("profess.ExecuteOpts")
	start := time.Now()
	rep, err := w.plan.ExecuteOpts(ctx, profess.ExecOptions{Parallelism: 1, Fresh: true})
	o.execute = time.Since(start)
	tr.end(execID)
	o.exec = rep
	o.ops += int64(len(w.plan.Cells))
	switch {
	case rep == nil:
		o.failed += int64(len(w.plan.Cells))
		o.problems = append(o.problems, fmt.Sprintf("execute: %v", err))
	case err != nil || rep.Failed > 0:
		o.failed += int64(rep.Failed)
		o.problems = append(o.problems, fmt.Sprintf("execute: %d cells failed: %v", rep.Failed, err))
	}

	start = time.Now()
	reports := make([]string, len(w.exps))
	errs := make([]error, len(w.exps))
	for i, e := range w.exps {
		id := tr.begin("render " + e.name)
		r, err := e.run(w.opts)
		if err == nil {
			reports[i] = r.String()
		}
		errs[i] = err
		tr.end(id)
	}
	o.render = time.Since(start)
	o.wall = o.execute + o.render

	for i, e := range w.exps {
		o.ops++
		switch {
		case errs[i] != nil:
			o.fail("render %s: %v", e.name, errs[i])
		case w.refs == nil:
		case w.refs.Reports[e.name] != reports[i]:
			o.fail("render %s: report differs from the reference", e.name)
		}
	}
	o.digest = strings.Join(reports, "\x00")

	// Every cell's result is in the memory tier now; read them back (hits,
	// outside the timed region) for the instruction count and counters.
	for _, c := range w.plan.Cells {
		res, err := profess.RunSpecsContext(ctx, c.Specs, c.Scheme, c.Cfg)
		if err != nil {
			continue // the cell's failure is already counted
		}
		o.instr += programInstructions(res)
		o.results = append(o.results, res)
	}
	if tr != nil && rep != nil && rep.JournalPath != "" {
		spans, err := journalSpans(rep.JournalPath)
		if err != nil {
			return nil, err
		}
		o.cellSpans = spans
		for _, s := range spans {
			tr.add(execID, "cell "+s.key[:12], s.claimed, s.done)
		}
	}
	return o, nil
}

func (w *sweepWorkload) record(ctx context.Context, rf *refFile) error {
	o, err := w.rep(ctx, nil)
	if err != nil {
		return err
	}
	if o.failed > 0 {
		return fmt.Errorf("sweep failed: %s", strings.Join(o.problems, "; "))
	}
	for i, r := range strings.Split(o.digest, "\x00") {
		rf.Reports[w.exps[i].name] = r
	}
	return nil
}

// cellSpan is one sweep cell's claimed → done interval from the journal.
type cellSpan struct {
	key, owner    string
	claimed, done int64 // UnixNano
}

// journalSpans rebuilds per-cell spans from a sweep journal: each claimed
// record opens a span that the cell's next done or failed record closes.
func journalSpans(path string) ([]cellSpan, error) {
	recs, err := lease.ReadJournal(path)
	if err != nil {
		return nil, err
	}
	open := map[string]lease.Record{}
	var spans []cellSpan
	for _, r := range recs {
		switch r.Status {
		case lease.StatusClaimed:
			open[r.Key] = r
		case lease.StatusDone, lease.StatusFailed:
			if c, ok := open[r.Key]; ok {
				spans = append(spans, cellSpan{key: r.Key, owner: c.Owner, claimed: c.Nanos, done: r.Nanos})
				delete(open, r.Key)
			}
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].claimed < spans[j].claimed })
	return spans, nil
}

// leaseGaps returns, per worker, the time from each cell's done record to
// the same worker's next claimed record: lease release and acquisition
// and the claim's journal append. (The disk-cache store of a cell's
// result falls inside its own span.)
func leaseGaps(spans []cellSpan) []time.Duration {
	last := map[string]int64{}
	var gaps []time.Duration
	for _, s := range spans {
		if d, ok := last[s.owner]; ok && s.claimed >= d {
			gaps = append(gaps, time.Duration(s.claimed-d))
		}
		last[s.owner] = s.done
	}
	return gaps
}
