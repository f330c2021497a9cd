package profess

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"profess/internal/analytic"
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
// flow — seed replicas, footprint filters, shared baselines — decides the
// cell set and the plan can never drift from the drivers.
//
// An optional pruning pass (SweepPlan.Prune) sits between planning and
// execution: cells whose scheme the analytic fast tier cannot distinguish
// from a representative anywhere in the plan are dropped, and the
// executor serves them by aliasing the representative's result.

// ErrNotPlannable marks an experiment that cannot be enumerated by a dry
// run because it simulates outside the run-cache funnel (custom policies,
// direct System use). PlanSweep skips such experiments; they simulate for
// real when rendered.
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
	// Pruned lists cells removed by Prune; ExecuteOpts serves each one by
	// aliasing its representative's result.
	Pruned []PrunedCell
	// Sampled lists cells rewritten to the interval-sampling tier by
	// Sample; ExecuteOpts serves each original full-fidelity key by
	// aliasing the sampled result.
	Sampled []SampledCell
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

// DefaultPruneMargin is the analytic indistinguishability margin for
// SweepPlan.Prune. Its value sits in the empirically measured gap between
// the scheme families the cycle model treats identically (analytic
// distance 0 under the tied default calibration, true IPC deltas ≤ ~6%)
// and the closest genuinely different pair (analytic distance ≥ ~29%
// somewhere in a standard plan, true deltas up to ~50%); see
// prune_test.go for the audit that keeps it honest.
const DefaultPruneMargin = 0.10

// PrunedCell records one cell Prune removed from the plan.
type PrunedCell struct {
	// Key is the pruned cell's run-cache key; RepKey the representative
	// cell whose result will stand in for it.
	Key    string
	RepKey string
	// Scheme and RepScheme name the merged pair.
	Scheme    Scheme
	RepScheme Scheme
	// Delta is the analytic distance between the pruned cell and its
	// representative: the max over the cell's programs of the relative
	// IPC difference and the absolute M1-served-fraction difference.
	Delta float64
	// Experiments lists the plan requests that needed this cell.
	Experiments []string
}

// cellEstimate is one cell's analytic screen used by Prune.
type cellEstimate struct {
	cell *PlanCell
	ipc  []float64
	m1   []float64
}

// dist is the analytic distance between two cells of one group (same
// config and specs, different scheme): the max over programs of relative
// IPC difference and absolute M1-fraction difference.
func (a *cellEstimate) dist(b *cellEstimate) float64 {
	var d float64
	for k := range a.ipc {
		hi := math.Max(a.ipc[k], b.ipc[k])
		if hi > 0 {
			if r := math.Abs(a.ipc[k]-b.ipc[k]) / hi; r > d {
				d = r
			}
		}
		if m := math.Abs(a.m1[k] - b.m1[k]); m > d {
			d = m
		}
	}
	return d
}

// Prune drops cells whose scheme the analytic fast tier
// (internal/analytic) cannot distinguish from a cheaper-to-share
// representative, so the executor simulates one cell per equivalence
// class and serves the others by aliasing the representative's result
// (see ExecuteOpts). A margin ≤ 0 means DefaultPruneMargin.
//
// The screen is deliberately conservative: two schemes merge only when
// their analytic predictions (per-program IPC and M1-served fraction)
// agree within the margin on EVERY planned cell where both appear — a
// plan-global criterion. Cell-local agreement proves nothing: the
// analytic tier's error (see testdata/xval_envelope.json) is far larger
// than real scheme gaps, so two genuinely different schemes routinely
// coincide on individual cells while diverging elsewhere in the plan.
// Only schemes whose predicted behaviour is identical everywhere — under
// the default calibration, the deliberately tied mdm/profess and
// cameo/silc-fm families — survive the global test.
//
// Fault-injecting cells are never pruned (the analytic tier does not
// model faults), and cells the estimator refuses stay unpruned. Call
// Prune after PlanSweep and before ExecuteOpts; the pruned plan hashes
// (and therefore journals) differently from the full plan, so resumed
// sweeps never mix the two cell sets.
func (p *SweepPlan) Prune(margin float64) []PrunedCell {
	if margin <= 0 {
		margin = DefaultPruneMargin
	}
	model := analytic.Default()

	// Screen every cell; group the screenable ones by their
	// scheme-independent key.
	groups := map[string][]*cellEstimate{}
	for i := range p.Cells {
		c := &p.Cells[i]
		if c.Cfg.Faults.Enabled() {
			continue
		}
		est, err := model.Estimate(c.Cfg, c.Specs, c.Scheme)
		if err != nil {
			continue
		}
		ce := &cellEstimate{cell: c}
		for _, pe := range est.Programs {
			ce.ipc = append(ce.ipc, pe.IPC)
			ce.m1 = append(ce.m1, pe.M1Fraction)
		}
		gk := runKey(c.Cfg, c.Specs, Scheme(""))
		groups[gk] = append(groups[gk], ce)
	}

	// Plan-global pair distances: the worst analytic disagreement between
	// two schemes across every group where both appear.
	pairKey := func(a, b Scheme) [2]Scheme {
		if b < a {
			a, b = b, a
		}
		return [2]Scheme{a, b}
	}
	pairDist := map[[2]Scheme]float64{}
	for _, g := range groups {
		for i := 0; i < len(g); i++ {
			for j := i + 1; j < len(g); j++ {
				k := pairKey(g[i].cell.Scheme, g[j].cell.Scheme)
				d := g[i].dist(g[j])
				if cur, ok := pairDist[k]; !ok || d > cur {
					pairDist[k] = d
				}
			}
		}
	}

	// Cluster schemes in presentation order: a scheme joins the first
	// representative it is plan-globally indistinguishable from, so the
	// chosen representatives are deterministic.
	present := map[Scheme]bool{}
	for _, g := range groups {
		for _, ce := range g {
			present[ce.cell.Scheme] = true
		}
	}
	var order []Scheme
	for _, s := range Schemes() {
		if present[s] {
			order = append(order, s)
			delete(present, s)
		}
	}
	var extra []Scheme
	for s := range present {
		extra = append(extra, s)
	}
	sort.Slice(extra, func(i, j int) bool { return extra[i] < extra[j] })
	order = append(order, extra...)

	repOf := map[Scheme]Scheme{}
	var reps []Scheme
	for _, s := range order {
		repOf[s] = s
		for _, r := range reps {
			if d, ok := pairDist[pairKey(r, s)]; ok && d <= margin {
				repOf[s] = r
				break
			}
		}
		if repOf[s] == s {
			reps = append(reps, s)
		}
	}

	// Drop every cell whose representative scheme has a cell in the same
	// group to stand in for it.
	var pruned []PrunedCell
	drop := map[string]bool{}
	for _, g := range groups {
		byScheme := map[Scheme]*cellEstimate{}
		for _, ce := range g {
			byScheme[ce.cell.Scheme] = ce
		}
		for _, ce := range g {
			r := repOf[ce.cell.Scheme]
			if r == ce.cell.Scheme {
				continue
			}
			re, ok := byScheme[r]
			if !ok {
				continue
			}
			pruned = append(pruned, PrunedCell{
				Key:         ce.cell.Key,
				RepKey:      re.cell.Key,
				Scheme:      ce.cell.Scheme,
				RepScheme:   r,
				Delta:       ce.dist(re),
				Experiments: ce.cell.Experiments,
			})
			drop[ce.cell.Key] = true
		}
	}
	if len(drop) > 0 {
		kept := p.Cells[:0]
		for _, c := range p.Cells {
			if !drop[c.Key] {
				kept = append(kept, c)
			}
		}
		p.Cells = kept
	}
	sort.Slice(pruned, func(i, j int) bool { return pruned[i].Key < pruned[j].Key })
	p.Pruned = append(p.Pruned, pruned...)
	return pruned
}

// SampledCell records one plan cell Sample rewrote to the sampled tier.
type SampledCell struct {
	// FullKey is the cell's original full-fidelity run-cache key — the key
	// the render phase will ask for. Key is the sampled cell's key, the
	// simulation that actually executes.
	FullKey string
	Key     string
	Scheme  Scheme
	// Experiments lists the plan requests that needed this cell.
	Experiments []string
}

// Sample rewrites every eligible plan cell to the interval-sampling tier:
// the cell simulates with the given detailed fraction (and window; 0 means
// DefaultSampleWindow), and the executor serves the original full-fidelity
// key by aliasing the sampled result (see ExecuteOpts) so the render phase
// — which re-invokes the drivers with their full-fidelity configs — reads
// the sampled figures transparently.
//
// This is the sweep's fidelity dial, and unlike Prune it is lossy by
// construction: a sampled Result estimates IPC and the latency statistics
// (with per-program confidence intervals; accuracy envelope in
// testdata/sample_envelope.json), so the aliases live only in this
// process's cache tier and are never persisted — a later full-fidelity
// sweep of the same cells simulates them honestly. Cells that cannot
// sample (clustered machines; see Config.Validate) keep full fidelity and
// are simply not rewritten. Call Sample after Prune: pruned-cell
// representative keys are re-pointed at the sampled cells, while the
// pruned keys themselves stay full-fidelity keys for the render phase.
// The rewritten plan hashes (and therefore journals) differently from the
// full-fidelity plan, so resumed sweeps never mix the two tiers.
func (p *SweepPlan) Sample(fraction float64, window int64) []SampledCell {
	if !(fraction > 0 && fraction < 1) {
		return nil
	}
	var sampled []SampledCell
	rewritten := map[string]string{}
	for i := range p.Cells {
		c := &p.Cells[i]
		cfg := c.Cfg
		cfg.SampleFraction = fraction
		cfg.SampleWindow = window
		if cfg.Validate() != nil {
			continue
		}
		key := runKey(cfg, c.Specs, c.Scheme)
		sampled = append(sampled, SampledCell{
			FullKey:     c.Key,
			Key:         key,
			Scheme:      c.Scheme,
			Experiments: c.Experiments,
		})
		rewritten[c.Key] = key
		c.Cfg = cfg
		c.Key = key
	}
	for i := range p.Pruned {
		if k, ok := rewritten[p.Pruned[i].RepKey]; ok {
			p.Pruned[i].RepKey = k
		}
	}
	sort.Slice(sampled, func(i, j int) bool { return sampled[i].FullKey < sampled[j].FullKey })
	p.Sampled = append(p.Sampled, sampled...)
	return sampled
}

// ExecOptions tunes SweepPlan.ExecuteOpts. The zero value gives a
// GOMAXPROCS pool with the durability defaults below.
type ExecOptions struct {
	// Parallelism bounds concurrent cells in this process (0 = GOMAXPROCS).
	Parallelism int
	// Fresh discards a previous journal for this plan instead of
	// resuming it. Only set it when no other worker process is attached
	// to the sweep.
	Fresh bool
	// LeaseTTL is how stale a cell claim's heartbeat may grow before
	// other workers presume its owner dead and take the cell over
	// (default 10s).
	LeaseTTL time.Duration
	// Heartbeat is the lease refresh period (default LeaseTTL/4).
	Heartbeat time.Duration
	// Poll is how often a worker re-checks cells held by other processes
	// and tails the shared journal while waiting (default 200ms).
	Poll time.Duration
	// MaxAttempts caps per-cell attempts across transient failures,
	// counting failed attempts recorded in the journal by any process
	// (default 3).
	MaxAttempts int
	// RetryBackoff is the base delay between attempts at one cell; it
	// doubles per attempt and is capped at 16x (default 100ms).
	RetryBackoff time.Duration
	// Owner overrides the lease owner id (default host:pid:nonce).
	Owner string
}

func (o ExecOptions) withDefaults() ExecOptions {
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = lease.DefaultTTL
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = o.LeaseTTL / 4
	}
	if o.Poll <= 0 {
		o.Poll = 200 * time.Millisecond
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 100 * time.Millisecond
	}
	return o
}

// ExecReport summarises one ExecuteOpts call.
type ExecReport struct {
	// Cells is the plan size.
	Cells int
	// Done counts cells this call completed (simulated or loaded).
	Done int
	// Resumed counts cells skipped because the journal already recorded
	// them done (with the result still present in the disk cache).
	Resumed int
	// External counts cells completed by another live process while this
	// one waited.
	External int
	// Stolen counts expired leases this process took over from
	// presumed-dead owners.
	Stolen int
	// Retries counts transient per-cell attempt retries.
	Retries int
	// Failed counts cells that exhausted their attempts.
	Failed int
	// Pruned counts cells served by aliasing their representative's
	// result instead of simulating (see SweepPlan.Prune).
	Pruned int
	// Sampled counts full-fidelity keys served by aliasing their sampled
	// cell's result (see SweepPlan.Sample).
	Sampled int
	// JournalPath is the shared journal file ("" when executing without
	// a persistent cache directory).
	JournalPath string
}

// Cell execution states for the in-memory scoreboard.
const (
	cellPending = iota // free to claim
	cellHeld           // lease held by another live process; revisit on poll
	cellRunning        // claimed by this process
	cellDone
	cellFailed
)

// execState is the per-call scoreboard shared by this process's workers.
type execState struct {
	mu     sync.Mutex
	status []int
	// fails counts recorded failed attempts per cell, seeded from the
	// journal so attempts are capped across processes and restarts.
	fails []int
	errs  []error
	byKey map[string]int
	rep   ExecReport
}

// apply folds journal records (replayed history or a live tail) into the
// scoreboard. Done records from other processes flip cells this process
// has not completed itself; claimed records are ignored — a claim proves
// nothing about completion, and liveness is the lease's job.
func (st *execState) apply(recs []lease.Record, owner string, resumed bool, confirm func(key string) bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, r := range recs {
		i, ok := st.byKey[r.Key]
		if !ok {
			continue // a different (e.g. superset) plan shares the journal dir
		}
		switch r.Status {
		case lease.StatusDone:
			if st.status[i] == cellDone || st.status[i] == cellFailed {
				continue
			}
			if confirm != nil && !confirm(r.Key) {
				// Journal says done but the cache entry is gone (LRU
				// eviction, operator rm): re-simulate.
				continue
			}
			st.status[i] = cellDone
			st.errs[i] = nil
			if resumed {
				st.rep.Resumed++
			} else if r.Owner != owner {
				st.rep.External++
			}
		case lease.StatusFailed:
			st.fails[i]++
		}
	}
}

// next claims the first pending cell (plan order is longest-first), or
// reports whether everything is settled.
func (st *execState) next() (i int, settled bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	settled = true
	for j, s := range st.status {
		switch s {
		case cellPending:
			st.status[j] = cellRunning
			return j, false
		case cellHeld, cellRunning:
			settled = false
		}
	}
	return -1, settled
}

// releaseHeld flips every held-elsewhere cell back to pending so the
// next claim attempt re-tests its lease (which may have expired or been
// released).
func (st *execState) releaseHeld() {
	st.mu.Lock()
	defer st.mu.Unlock()
	for j, s := range st.status {
		if s == cellHeld {
			st.status[j] = cellPending
		}
	}
}

func (st *execState) set(i, status int, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	// A poll may have marked the cell done from another process's journal
	// record while this process was (redundantly) finishing it; done
	// stays done.
	if st.status[i] == cellDone && status != cellDone {
		return
	}
	st.status[i] = status
	st.errs[i] = err
	switch status {
	case cellDone:
		st.errs[i] = nil
		st.rep.Done++
	case cellFailed:
		st.rep.Failed++
	}
}

// Execute simulates every planned cell once on one global worker pool,
// longest-expected-job-first. It is ExecuteOpts with defaults; see there
// for the durability contract.
func (p *SweepPlan) Execute(ctx context.Context, parallelism int) error {
	_, err := p.ExecuteOpts(ctx, ExecOptions{Parallelism: parallelism})
	return err
}

// ExecuteOpts simulates every planned cell, crash-safely and
// multi-process-safely when the persistent run cache is configured:
//
//   - Each cell is claimed through a heartbeat-refreshed lease file
//     under <cachedir>/leases, so any number of processes (or hosts
//     sharing the directory) can execute one plan without duplicating
//     work; a worker that dies mid-cell is presumed dead after LeaseTTL
//     and its cells are taken over.
//   - Progress is journaled to an append-only JSONL file under
//     <cachedir>/sweeps keyed by the plan hash. A fresh process resumes
//     an interrupted sweep by replaying the journal and skipping cells
//     whose results are already durable; Fresh discards the history.
//   - Transient cell failures retry with capped exponential backoff,
//     with attempts counted across processes through the journal.
//   - Cancellation is distinct from failure: when ctx is cancelled the
//     call stops claiming cells, interrupts in-flight simulations within
//     one watchdog epoch, releases its leases, and returns ctx.Err()
//     itself — not joined into cell errors — leaving the journal in a
//     state a later call (or process) resumes from.
//
// Without a cache directory the same loop runs in-process only: no
// leases, no journal, nothing durable. Results land in the run cache
// (and its persistent tier when configured); cells already cached are
// near-free hits. Cell failures are joined, not fatal mid-sweep: every
// cell is attempted.
func (p *SweepPlan) ExecuteOpts(ctx context.Context, opts ExecOptions) (*ExecReport, error) {
	if !RunCaching() {
		return nil, errors.New("profess: Execute needs the run cache (SetRunCaching(true))")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.withDefaults()
	n := len(p.Cells)

	st := &execState{
		status: make([]int, n),
		fails:  make([]int, n),
		errs:   make([]error, n),
		byKey:  make(map[string]int, n),
	}
	st.rep.Cells = n
	for i, c := range p.Cells {
		st.byKey[c.Key] = i
	}

	// Durable coordination state, engaged when the persistent tier is
	// configured.
	var (
		mgr     *lease.Manager
		jnl     *lease.Journal
		doneKey = make([]string, 0, n)
	)
	if dir := RunCacheDir(); dir != "" && n > 0 {
		sweepDir := filepath.Join(dir, "sweeps")
		if err := os.MkdirAll(sweepDir, 0o755); err != nil {
			return nil, fmt.Errorf("profess: sweep journal dir: %w", err)
		}
		jpath := filepath.Join(sweepDir, p.Hash()+".jsonl")
		if opts.Fresh {
			if err := os.Remove(jpath); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return nil, fmt.Errorf("profess: discard journal: %w", err)
			}
		}
		var err error
		mgr, err = lease.NewManager(lease.Options{
			Dir:       filepath.Join(dir, "leases"),
			Owner:     opts.Owner,
			Plan:      p.Hash(),
			TTL:       opts.LeaseTTL,
			Heartbeat: opts.Heartbeat,
		})
		if err != nil {
			return nil, fmt.Errorf("profess: lease manager: %w", err)
		}
		defer mgr.Close()
		jnl, err = lease.OpenJournal(jpath)
		if err != nil {
			return nil, fmt.Errorf("profess: sweep journal: %w", err)
		}
		defer jnl.Close()
		st.rep.JournalPath = jpath

		// Resume: replay the whole journal. Only done records whose
		// results are still present in the disk cache are trusted.
		recs, err := jnl.Tail()
		if err != nil {
			return nil, fmt.Errorf("profess: journal replay: %w", err)
		}
		st.apply(recs, mgr.Owner(), true, theDiskCache.has)
	}

	// poll refreshes the scoreboard from other processes' journal
	// records and re-opens held cells for claiming.
	poll := func() {
		if jnl != nil {
			if recs, err := jnl.Tail(); err == nil {
				st.apply(recs, mgr.Owner(), false, theDiskCache.has)
			}
		}
		st.releaseHeld()
	}

	// sleep waits d or until cancellation.
	sleep := func(d time.Duration) bool {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return false
		case <-t.C:
			return true
		}
	}

	journal := func(i int, status lease.Status, attempt int, err error) {
		if jnl == nil {
			return
		}
		rec := lease.Record{Key: p.Cells[i].Key, Status: status, Owner: mgr.Owner(), Attempt: attempt}
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

	// attemptCell drives one claimed cell through its bounded retries.
	attemptCell := func(wctx context.Context, i int) {
		var l *lease.Lease
		if mgr != nil {
			var err error
			l, err = mgr.Acquire(p.Cells[i].Key)
			if errors.Is(err, lease.ErrHeld) {
				st.set(i, cellHeld, nil)
				return
			}
			if err != nil {
				// Lease machinery broken (permissions, disk full):
				// degrade to uncoordinated execution rather than
				// wedging the sweep; the run cache keeps it correct.
				l = nil
			} else {
				if l.Stolen() {
					st.mu.Lock()
					st.rep.Stolen++
					st.mu.Unlock()
				}
				defer l.Release()
			}
		}
		st.mu.Lock()
		attempt := st.fails[i]
		st.mu.Unlock()
		var lastErr error
		first := true
		for ; attempt < opts.MaxAttempts; attempt++ {
			if ctx.Err() != nil {
				// Leave no terminal record: the claim stays dangling in
				// the journal and resume re-runs the cell.
				st.set(i, cellPending, nil)
				return
			}
			if !first {
				st.mu.Lock()
				st.rep.Retries++
				st.mu.Unlock()
				backoff := opts.RetryBackoff << (attempt - 1)
				if max := opts.RetryBackoff << 4; backoff > max {
					backoff = max
				}
				if !sleep(backoff) {
					st.set(i, cellPending, nil)
					return
				}
			}
			first = false
			journal(i, lease.StatusClaimed, attempt, nil)
			err := runCell(wctx, i)
			if err == nil {
				journal(i, lease.StatusDone, attempt, nil)
				st.set(i, cellDone, nil)
				return
			}
			if ctx.Err() != nil {
				// The failure is (or is masked by) cancellation; resume
				// will retry with a live context.
				st.set(i, cellPending, nil)
				return
			}
			lastErr = err
			journal(i, lease.StatusFailed, attempt, err)
			st.mu.Lock()
			st.fails[i]++
			st.mu.Unlock()
		}
		st.set(i, cellFailed, lastErr)
	}

	workers := opts.Parallelism
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One simulation-state arena per worker goroutine: cells this
			// worker executes reuse one cached machine per structural
			// shape, with no cross-worker synchronisation.
			wctx := withWorkerArena(ctx)
			for {
				// The cancellation check precedes the claim, so a
				// cancelled worker never marks a cell running (or
				// journals a claim) it will not attempt.
				if ctx.Err() != nil {
					return
				}
				i, settled := st.next()
				if i < 0 {
					if settled {
						return
					}
					// Everything unfinished is held by another process
					// (or running locally): wait, absorb their journal
					// records, retest leases.
					if !sleep(opts.Poll) {
						return
					}
					poll()
					continue
				}
				attemptCell(wctx, i)
			}
		}()
	}
	wg.Wait()

	// Serve sampled cells: alias each original full-fidelity key to its
	// sampled cell's completed result in the in-process cache tier, so the
	// render phase — which asks for the full-fidelity keys — reads the
	// sampled figures without simulating. A sampled cell that did not
	// complete leaves its full key unaliased and the render phase
	// simulates it at full fidelity — slower, but never wrong.
	if len(p.Sampled) > 0 && ctx.Err() == nil {
		byKey := make(map[string]*PlanCell, len(p.Cells))
		for i := range p.Cells {
			byKey[p.Cells[i].Key] = &p.Cells[i]
		}
		for _, sc := range p.Sampled {
			cell := byKey[sc.Key]
			if cell == nil {
				continue
			}
			st.mu.Lock()
			i, ok := st.byKey[sc.Key]
			done := ok && st.status[i] == cellDone
			st.mu.Unlock()
			if !done {
				continue
			}
			res, err := runSimCtx(ctx, cell.Cfg, cell.Specs, cell.Scheme)
			if err != nil {
				continue // the sampled cell's own failure surfaces below
			}
			theRunCache.installAlias(sc.FullKey, res)
			st.mu.Lock()
			st.rep.Sampled++
			st.mu.Unlock()
		}
	}

	// Serve pruned cells: alias each to its representative's completed
	// result in the in-process cache tier, so the render phase reads the
	// representative's figures under the pruned key without simulating.
	// When the representative did not complete (failure, cancellation)
	// the alias is skipped and the render phase simulates the pruned
	// cell for real — slower, but never wrong.
	if len(p.Pruned) > 0 && ctx.Err() == nil {
		byKey := make(map[string]*PlanCell, len(p.Cells))
		for i := range p.Cells {
			byKey[p.Cells[i].Key] = &p.Cells[i]
		}
		for _, pr := range p.Pruned {
			repCell := byKey[pr.RepKey]
			if repCell == nil {
				continue
			}
			st.mu.Lock()
			i, ok := st.byKey[pr.RepKey]
			repDone := ok && st.status[i] == cellDone
			st.mu.Unlock()
			if !repDone {
				continue
			}
			res, err := runSimCtx(ctx, repCell.Cfg, repCell.Specs, repCell.Scheme)
			if err != nil {
				continue // the representative's own failure surfaces below
			}
			theRunCache.installAlias(pr.Key, res)
			st.mu.Lock()
			st.rep.Pruned++
			st.mu.Unlock()
		}
	}

	st.mu.Lock()
	rep := st.rep
	var errs []error
	for i, s := range st.status {
		if s == cellFailed && st.errs[i] != nil {
			errs = append(errs, st.errs[i])
		}
		if s == cellDone {
			doneKey = append(doneKey, p.Cells[i].Key)
		}
	}
	st.mu.Unlock()

	if mgr != nil {
		// End-of-sweep hygiene: drop lease files for cells the journal
		// proves complete (left by owners killed between completion and
		// release, or by stragglers re-verifying finished cells) plus
		// any expired leases and takeover temporaries. Live claims of
		// unfinished cells are untouched.
		lease.RemoveKeys(filepath.Join(RunCacheDir(), "leases"), doneKey)
		lease.SweepExpired(filepath.Join(RunCacheDir(), "leases"), opts.LeaseTTL)
	}

	// Cancellation is reported alone: callers distinguish "the user
	// stopped the sweep" (resume later) from "cells failed".
	if err := ctx.Err(); err != nil {
		return &rep, err
	}
	return &rep, errors.Join(errs...)
}
