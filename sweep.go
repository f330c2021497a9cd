package profess

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"profess/internal/lease"
)

// The sweep planner sits above the experiment drivers. The paper's
// evaluation revisits the same simulation cells constantly — every
// stand-alone slowdown baseline, every shared PoM reference column — and
// while the run cache already dedupes those *as they arrive*, arrival
// order still decides the makespan: a straggler cell discovered late
// serialises the tail. Planning first enumerates every (Config, specs,
// Scheme) cell a set of experiments will need, dedupes the union, and
// executes it longest-expected-job-first on one global pool; the drivers
// then re-run for real and render their figures purely from the completed
// cell table (the warm run cache), simulating nothing.
//
// Enumeration is a dry run of the drivers themselves: while a plan is
// being built, the runSim funnel records each requested cell and returns
// a stub Result instead of simulating, so the exact production control
// flow — footprint filters, shared baselines — decides the cell set and
// the plan can never drift from the drivers.

// ErrNotPlannable marks an experiment that cannot be enumerated by a dry
// run because it simulates outside the run-cache funnel (custom policies,
// direct System use, the timing-honest drivers' uncached runs). PlanSweep
// skips such experiments; they simulate for real when rendered.
var ErrNotPlannable = errors.New("profess: experiment does not funnel through the run cache and cannot be planned")

// PlanCell is one deduplicated simulation a sweep will need.
type PlanCell struct {
	// Key is the cell's content hash — the run-cache key.
	Key    string
	Cfg    Config
	Specs  []ProgramSpec
	Scheme Scheme
	// Cost is the expected relative cost (instruction budget × thread
	// count); the executor schedules longest-expected-job-first so the
	// makespan is not dominated by a straggler discovered late.
	Cost int64
	// Experiments lists the plan requests that need this cell.
	Experiments []string
}

// SweepPlan is the deduplicated union of every cell the planned
// experiments will simulate, sorted longest-expected-job-first.
type SweepPlan struct {
	Cells []PlanCell
	// Requested counts distinct cell requests before cross-experiment
	// dedup (each experiment's cells summed); Requested/len(Cells) is the
	// sharing factor the planner exploits.
	Requested int
	// PerExperiment maps each planned experiment to its distinct cell
	// count.
	PerExperiment map[string]int
	// Unplannable lists experiments that returned ErrNotPlannable; they
	// simulate when rendered instead.
	Unplannable []string
}

// PlannedExperiment names one experiment and the driver invocation that
// enumerates its cells. Run is called once with recording active and its
// report discarded; it must invoke the same drivers, with the same
// options, as the later render.
type PlannedExperiment struct {
	Name string
	Run  func() error
}

// planCollector records the cells runSim is asked for during a dry run.
type planCollector struct {
	mu        sync.Mutex
	cur       string
	cells     map[string]*PlanCell
	seenByCur map[string]bool
	requested int
	perExp    map[string]int
}

// activePlan, when non-nil, switches the runSim funnel into recording
// mode. Only one plan builds at a time.
var activePlan atomic.Pointer[planCollector]

// planning reports whether a sweep plan is currently being built.
func planning() bool { return activePlan.Load() != nil }

// record notes one requested cell and returns the dry-run stub.
func (pc *planCollector) record(cfg Config, specs []ProgramSpec, scheme Scheme) *Result {
	if cacheable(cfg, specs) {
		key := runKey(cfg, specs, scheme)
		threads := int64(0)
		for _, s := range specs {
			t := int64(s.Threads)
			if t < 1 {
				t = 1
			}
			threads += t
		}
		pc.mu.Lock()
		c, ok := pc.cells[key]
		if !ok {
			c = &PlanCell{
				Key:    key,
				Cfg:    cfg,
				Specs:  append([]ProgramSpec(nil), specs...),
				Scheme: scheme,
				Cost:   cfg.Instructions * threads,
			}
			pc.cells[key] = c
		}
		if !pc.seenByCur[key] {
			pc.seenByCur[key] = true
			pc.requested++
			pc.perExp[pc.cur]++
			c.Experiments = append(c.Experiments, pc.cur)
		}
		pc.mu.Unlock()
	}
	return planStub(specs, scheme)
}

// planStub is the Result handed back during a dry run: enough non-zero
// structure (one CoreResult per program, unit metrics) that driver
// arithmetic — ratios, slowdowns, geomeans — proceeds without dividing by
// zero. The values are meaningless and every dry-run report is discarded.
func planStub(specs []ProgramSpec, scheme Scheme) *Result {
	res := &Result{
		Scheme:     string(scheme),
		Cycles:     1,
		EnergyEff:  1,
		Watts:      1,
		STCHitRate: 0.5,
		L3HitRate:  0.5,
	}
	for _, s := range specs {
		res.PerCore = append(res.PerCore, CoreResult{
			Program:        s.Name,
			Instructions:   1,
			IPC:            1,
			FirstIPC:       1,
			Served:         1,
			M1Fraction:     0.5,
			AvgReadLat:     1,
			ReadLatP50:     1,
			ReadLatP95:     1,
			ReadLatP99:     1,
			STCHitRate:     0.5,
			Repeats:        1,
			FirstRunCycles: 1,
		})
	}
	return res
}

// PlanSweep dry-runs the given experiments and returns the deduplicated
// union of simulation cells they will need. Requires run caching to be
// enabled (the render phase reads the executed cells back from the
// cache). Experiments whose drivers report ErrNotPlannable are listed in
// Unplannable and otherwise skipped.
func PlanSweep(exps []PlannedExperiment) (*SweepPlan, error) {
	if !RunCaching() {
		return nil, errors.New("profess: PlanSweep needs the run cache (SetRunCaching(true))")
	}
	pc := &planCollector{
		cells:  map[string]*PlanCell{},
		perExp: map[string]int{},
	}
	if !activePlan.CompareAndSwap(nil, pc) {
		return nil, errors.New("profess: a sweep plan is already being built")
	}
	defer activePlan.Store(nil)

	plan := &SweepPlan{PerExperiment: map[string]int{}}
	for _, e := range exps {
		pc.mu.Lock()
		pc.cur = e.Name
		pc.seenByCur = map[string]bool{}
		pc.mu.Unlock()
		if err := e.Run(); err != nil {
			if errors.Is(err, ErrNotPlannable) {
				plan.Unplannable = append(plan.Unplannable, e.Name)
				continue
			}
			return nil, fmt.Errorf("profess: planning %s: %w", e.Name, err)
		}
	}
	pc.mu.Lock()
	plan.Requested = pc.requested
	for name, n := range pc.perExp {
		plan.PerExperiment[name] = n
	}
	for _, c := range pc.cells {
		plan.Cells = append(plan.Cells, *c)
	}
	pc.mu.Unlock()
	// Longest expected job first; ties broken by key so the order (and
	// therefore the executor's schedule) is deterministic.
	sort.Slice(plan.Cells, func(i, j int) bool {
		if plan.Cells[i].Cost != plan.Cells[j].Cost {
			return plan.Cells[i].Cost > plan.Cells[j].Cost
		}
		return plan.Cells[i].Key < plan.Cells[j].Key
	})
	return plan, nil
}

// Hash identifies the plan by its cell set: the SHA-256 over the sorted
// cell keys (which already content-hash every input of every cell). Two
// processes planning the same experiments at the same code version get
// the same hash, which is what lets them share one journal.
func (p *SweepPlan) Hash() string {
	keys := make([]string, len(p.Cells))
	for i, c := range p.Cells {
		keys[i] = c.Key
	}
	sort.Strings(keys)
	h := sha256.New()
	fmt.Fprintf(h, "sweep-journal-v1\x00")
	for _, k := range keys {
		fmt.Fprintf(h, "%s\x00", k)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ExecOptions tunes SweepPlan.ExecuteOpts.
type ExecOptions struct {
	// Parallelism bounds concurrent cells (0 = GOMAXPROCS).
	Parallelism int
	// Fresh truncates the plan's journal instead of resuming from it, so
	// every cell runs again; cells whose results are in the disk cache
	// load from it rather than simulating.
	Fresh bool
}

// maxAttempts caps the attempts at one cell within one ExecuteOpts call,
// and retryBackoff is the delay before the second attempt, doubling per
// attempt up to 16x. Tests override both, as they do simCellHook.
var (
	maxAttempts  = 3
	retryBackoff = 100 * time.Millisecond
)

// ExecReport summarises one ExecuteOpts call.
type ExecReport struct {
	// Cells is the plan size.
	Cells int
	// Done counts cells this call completed (simulated or loaded).
	Done int
	// Resumed counts cells skipped because the journal already recorded
	// them done (with the result still present in the disk cache).
	Resumed int
	// Retries counts transient per-cell attempt retries.
	Retries int
	// Failed counts cells that exhausted their attempts.
	Failed int
	// JournalPath is the plan's journal file ("" when executing without
	// a persistent cache directory).
	JournalPath string
}

// ExecuteOpts simulates every planned cell on one worker pool,
// longest-expected-job-first, crash-safely when the persistent run cache
// is configured:
//
//   - Progress is journaled to an append-only JSONL file,
//     <cachedir>/sweeps/<planhash>.jsonl, and the call holds an exclusive
//     lock on it throughout (see lease.OpenJournal), so one call at a
//     time executes a plan: a second call on the same plan, in this
//     process or another, waits for the first to finish and then
//     resumes. The kernel drops the lock when its holder dies.
//   - A call resumes an interrupted sweep by replaying the journal and
//     skipping cells whose results are already durable; Fresh discards
//     the history.
//   - Transient cell failures retry with capped exponential backoff, up
//     to maxAttempts attempts per cell in each call.
//   - Cancellation is distinct from failure: when ctx is cancelled the
//     call stops starting cells, interrupts in-flight simulations within
//     one watchdog epoch, and returns ctx.Err() itself — not joined into
//     cell errors — leaving the journal in a state a later call (or
//     process) resumes from. A call still waiting for the lock returns
//     ctx.Err() having run nothing.
//
// Without a cache directory the same pool runs with no journal and
// nothing durable. Results land in the run cache (and its persistent
// tier when configured); cells already cached are near-free hits. Cell
// failures are joined, not fatal mid-sweep: every cell is attempted.
func (p *SweepPlan) ExecuteOpts(ctx context.Context, opts ExecOptions) (*ExecReport, error) {
	if !RunCaching() {
		return nil, errors.New("profess: ExecuteOpts needs the run cache (SetRunCaching(true))")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(p.Cells)
	rep := &ExecReport{Cells: n}
	index := make(map[string]int, n)
	for i, c := range p.Cells {
		index[c.Key] = i
	}
	done := make([]bool, n)

	var jnl *lease.Journal
	if dir := RunCacheDir(); dir != "" && n > 0 {
		sweepDir := filepath.Join(dir, "sweeps")
		if err := os.MkdirAll(sweepDir, 0o755); err != nil {
			return nil, fmt.Errorf("profess: sweep journal dir: %w", err)
		}
		jpath := filepath.Join(sweepDir, p.Hash()+".jsonl")
		var err error
		if jnl, err = lease.OpenJournal(ctx, jpath, opts.Fresh); err != nil {
			if ctx.Err() != nil {
				return rep, ctx.Err()
			}
			return nil, fmt.Errorf("profess: sweep journal: %w", err)
		}
		defer jnl.Close()
		rep.JournalPath = jpath

		// Resume: only done records whose results are still in the disk
		// cache are trusted; an entry may have been evicted or removed.
		recs, err := lease.ReadJournal(jpath)
		if err != nil {
			return nil, fmt.Errorf("profess: journal replay: %w", err)
		}
		for _, r := range recs {
			if i, ok := index[r.Key]; ok && r.Status == lease.StatusDone && !done[i] && theDiskCache.has(r.Key) {
				done[i] = true
				rep.Resumed++
			}
		}
	}

	journal := func(i int, status lease.Status, attempt int, err error) {
		if jnl == nil {
			return
		}
		rec := lease.Record{Key: p.Cells[i].Key, Status: status, Attempt: attempt}
		if err != nil {
			rec.Err = err.Error()
		}
		_ = jnl.Append(rec) // best-effort: a lost record costs duplicated work, not correctness
	}

	// runCell performs one attempt, with panic containment matching
	// par.For's. wctx is the worker's context, carrying its private
	// simulation-state arena (see withWorkerArena).
	runCell := func(wctx context.Context, i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("cell %d panicked: %v\n%s", i, r, debug.Stack())
			}
		}()
		c := &p.Cells[i]
		if _, err := runSimCtx(wctx, c.Cfg, c.Specs, c.Scheme); err != nil {
			return fmt.Errorf("cell %s/%s: %w", c.Scheme, c.Key[:12], err)
		}
		return nil
	}

	// attempt drives cell i through at most maxAttempts attempts and
	// returns the retries it took and the last error, ctx.Err() once
	// cancelled.
	attempt := func(wctx context.Context, i int) (retries int, err error) {
		for a := 0; a < maxAttempts; a++ {
			if a > 0 {
				retries++
				t := time.NewTimer(min(retryBackoff<<(a-1), retryBackoff<<4))
				select {
				case <-ctx.Done():
					t.Stop()
					return retries, ctx.Err()
				case <-t.C:
				}
			}
			journal(i, lease.StatusClaimed, a, nil)
			if err = runCell(wctx, i); err == nil {
				journal(i, lease.StatusDone, a, nil)
				return retries, nil
			}
			if ctx.Err() != nil {
				// The failure is (or is masked by) cancellation: no
				// terminal record, so resume re-runs the cell.
				return retries, ctx.Err()
			}
			journal(i, lease.StatusFailed, a, err)
		}
		return retries, err
	}

	var todo []int
	for i := range p.Cells {
		if !done[i] {
			todo = append(todo, i)
		}
	}
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex // guards rep, done and errs while workers run
		next atomic.Int64
		errs = make([]error, n)
	)
	for w := 0; w < min(workers, len(todo)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One simulation-state arena per worker goroutine: cells this
			// worker executes reuse one cached machine per structural
			// shape, with no cross-worker synchronisation.
			wctx := withWorkerArena(ctx)
			// The cancellation check precedes taking a cell, so a
			// cancelled worker never journals a claim it will not attempt.
			for ctx.Err() == nil {
				k := int(next.Add(1)) - 1
				if k >= len(todo) {
					return
				}
				i := todo[k]
				retries, err := attempt(wctx, i)
				mu.Lock()
				rep.Retries += retries
				switch {
				case err == nil:
					done[i] = true
					rep.Done++
				case ctx.Err() == nil:
					errs[i] = err
					rep.Failed++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	// Cancellation is reported alone: callers distinguish "the user
	// stopped the sweep" (resume later) from "cells failed".
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	return rep, errors.Join(errs...)
}
