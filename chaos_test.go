package profess

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"profess/internal/lease"
)

// The chaos suite proves the crash-safety contract of the sweep
// executor: real worker subprocesses sharing one cache directory are
// SIGKILLed at random points mid-sweep, and fresh workers must finish
// the sweep from the journal — byte-identical reports, never two live
// processes executing the plan at once, no leaked temp files.
// Subprocesses are this test binary re-exec'd against a single guarded
// helper test, the standard multi-process testing pattern.

// Env knobs for the re-exec helpers.
const (
	chaosWorkerEnv = "PROFESS_CHAOS_WORKER" // "1": run the sweep-worker helper
	chaosWriterEnv = "PROFESS_CHAOS_CACHEWRITER"
	chaosDirEnv    = "PROFESS_CHAOS_DIR"    // shared cache directory
	chaosSlowEnv   = "PROFESS_CHAOS_SLOWMS" // artificial per-simulation latency
)

// TestChaosWorkerProcess is the re-exec'd sweep worker, not a test in
// its own right: it plans the shared chaos sweep against the directory
// in the environment and executes it until done or killed.
func TestChaosWorkerProcess(t *testing.T) {
	dir := os.Getenv(chaosDirEnv)
	if os.Getenv(chaosWorkerEnv) != "1" || dir == "" {
		t.Skip("re-exec helper for the chaos harness")
	}
	SetRunCaching(true)
	if err := SetRunCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	if ms, _ := strconv.Atoi(os.Getenv(chaosSlowEnv)); ms > 0 {
		simCellHook = func(string) error {
			time.Sleep(time.Duration(ms) * time.Millisecond)
			return nil
		}
	}
	plan, err := PlanSweep(sweepTestExperiments(sweepTestOpts(), nil))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := plan.ExecuteOpts(context.Background(), ExecOptions{Parallelism: 2})
	if err != nil {
		t.Fatalf("worker execute: %v", err)
	}
	if got := rep.Done + rep.Resumed; got != rep.Cells {
		t.Fatalf("worker finished with %d/%d cells settled", got, rep.Cells)
	}
}

// chaosWorkerCmd builds one re-exec'd sweep worker against dir.
func chaosWorkerCmd(t *testing.T, dir string, slowMS int) (*exec.Cmd, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestChaosWorkerProcess$", "-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(),
		chaosWorkerEnv+"=1",
		chaosDirEnv+"="+dir,
		chaosSlowEnv+"="+strconv.Itoa(slowMS),
	)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	return cmd, &out
}

// assertNoDebris checks the shared directory holds no leases directory
// and no orphaned atomic-write temp files.
func assertNoDebris(t *testing.T, dir string) {
	t.Helper()
	if _, err := os.Stat(filepath.Join(dir, "leases")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("sweep created a leases directory (stat: %v)", err)
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, ".tmp-*")); len(matches) != 0 {
		t.Errorf("leaked files: %v", matches)
	}
}

// TestChaosKill9Resume is the acceptance harness: workers are SIGKILLed
// at random points of a shared sweep, then fresh workers start and must
// complete it — reports byte-identical to a never-crashed run, never two
// live owners running cells at once, no leaked temp files.
func TestChaosKill9Resume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills real subprocesses")
	}
	opts := sweepTestOpts()

	// Reference reports from fully uncached in-process runs.
	SetRunCaching(false)
	want := map[string]string{}
	for _, e := range sweepTestExperiments(opts, want) {
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	SetRunCaching(true)

	dir := t.TempDir()

	// Kill phase: start a deliberately slowed worker, SIGKILL it
	// mid-sweep, repeat. Each round strands a journal with dangling
	// claims and possibly a half-written temp file — exactly the crash
	// states resume must absorb. Cells are slow enough that the three
	// rounds leave cells for the recovery phase.
	rng := rand.New(rand.NewSource(42)) // fixed seed: reproducible kill points
	for round := 0; round < 3; round++ {
		cmd, out := chaosWorkerCmd(t, dir, 400)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		delay := time.Duration(100+rng.Intn(500)) * time.Millisecond
		time.Sleep(delay)
		if err := cmd.Process.Kill(); err != nil {
			t.Fatalf("round %d: kill: %v\nworker output:\n%s", round, err, out)
		}
		_ = cmd.Wait() // expected to report the kill
	}

	// Recovery phase: two fresh workers start concurrently and must both
	// finish: one takes the plan's lock and completes the sweep, the
	// other waits for it and then resumes every cell from the journal.
	// Their cells are slowed too, so two workers running the plan at
	// once would overlap in the journal and fail the audit below.
	w1, out1 := chaosWorkerCmd(t, dir, 100)
	w2, out2 := chaosWorkerCmd(t, dir, 100)
	if err := w1.Start(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Start(); err != nil {
		t.Fatal(err)
	}
	if err := w1.Wait(); err != nil {
		t.Fatalf("recovery worker 1 failed: %v\n%s", err, out1)
	}
	if err := w2.Wait(); err != nil {
		t.Fatalf("recovery worker 2 failed: %v\n%s", err, out2)
	}

	// Render phase: a pristine process (simulated by dropping the
	// in-process tier) attached to the survivors' directory must render
	// every report byte-identically with zero simulations.
	ResetRunCache()
	if err := SetRunCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := SetRunCacheDir(""); err != nil {
			t.Fatal(err)
		}
		ResetRunCache()
	}()
	plan, err := PlanSweep(sweepTestExperiments(opts, nil))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := plan.ExecuteOpts(context.Background(), ExecOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed != rep.Cells {
		t.Errorf("verification pass resumed %d/%d cells; the workers' journal must cover the whole sweep", rep.Resumed, rep.Cells)
	}
	got := map[string]string{}
	for _, e := range sweepTestExperiments(opts, got) {
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if d := RunCacheDetail(); d.Sims != 0 {
		t.Errorf("rendering after the chaos run simulated %d cells, want 0", d.Sims)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s report differs from the never-crashed run:\n--- reference ---\n%s\n--- chaos ---\n%s", name, w, got[name])
		}
	}

	assertNoDebris(t, dir)
	auditJournal(t, filepath.Join(dir, "sweeps", plan.Hash()+".jsonl"), plan)
}

// auditJournal asserts the journal records every cell done and that the
// plan lock held: no two owners' claimed→done intervals overlap anywhere
// in the journal. Owners killed mid-cell never write their done record,
// so their last claims stay open and legal; two live processes executing
// the plan at once would close overlapping intervals and fail here.
func auditJournal(t *testing.T, path string, plan *SweepPlan) {
	t.Helper()
	recs, err := lease.ReadJournal(path)
	if err != nil {
		t.Fatalf("journal audit: %v", err)
	}
	type interval struct {
		owner      string
		start, end int64
	}
	open := map[[2]string]int64{} // (owner, key) -> claim time
	var closed []interval
	done := map[string]bool{}
	for _, r := range recs {
		k := [2]string{r.Owner, r.Key}
		switch r.Status {
		case lease.StatusClaimed:
			open[k] = r.Nanos
		case lease.StatusDone:
			done[r.Key] = true
			if start, ok := open[k]; ok {
				closed = append(closed, interval{r.Owner, start, r.Nanos})
				delete(open, k)
			}
		}
	}
	for _, c := range plan.Cells {
		if !done[c.Key] {
			t.Errorf("cell %s has no done record in the journal", c.Key[:12])
		}
	}
	for i, a := range closed {
		for _, b := range closed[i+1:] {
			if a.owner != b.owner && a.start < b.end && b.start < a.end {
				t.Errorf("owners %s and %s ran cells at the same time", a.owner, b.owner)
				return
			}
		}
	}
}

// TestExecuteCancelLeavesResumableJournal pins the cancellation
// contract: ctx cancellation mid-sweep returns ctx.Err() itself (not
// joined cell errors), drains promptly, releases the plan's lock, and
// leaves a journal from which a second call completes the sweep.
func TestExecuteCancelLeavesResumableJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	dir := withDiskCache(t)

	// Slow every real simulation down so cancellation lands mid-sweep.
	simCellHook = func(string) error {
		time.Sleep(100 * time.Millisecond)
		return nil
	}
	defer func() { simCellHook = nil }()

	plan, err := PlanSweep(sweepTestExperiments(sweepTestOpts(), nil))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	rep, err := plan.ExecuteOpts(ctx, ExecOptions{Parallelism: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled execute returned %v, want context.Canceled", err)
	}
	if err.Error() != context.Canceled.Error() {
		t.Errorf("cancellation must be returned distinctly, not joined with cell errors: %q", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("cancelled execute took %v to drain", d)
	}
	if rep.Done >= rep.Cells {
		t.Fatalf("all %d cells finished before cancellation; the resume leg tests nothing", rep.Cells)
	}
	// The plan's lock must be free the moment the call returns.
	lockCtx, cancelLock := context.WithTimeout(context.Background(), time.Second)
	defer cancelLock()
	held, err := lease.OpenJournal(lockCtx, rep.JournalPath, false)
	if err != nil {
		t.Fatalf("cancelled execute kept the plan's lock: %v", err)
	}
	held.Close()

	simCellHook = nil
	rep2, err := plan.ExecuteOpts(context.Background(), ExecOptions{Parallelism: 2})
	if err != nil {
		t.Fatalf("resume after cancel: %v", err)
	}
	if rep2.Resumed != rep.Done {
		t.Errorf("resume skipped %d cells, want the %d the cancelled call completed", rep2.Resumed, rep.Done)
	}
	if rep2.Resumed+rep2.Done != rep2.Cells {
		t.Errorf("resume settled %d+%d of %d cells", rep2.Resumed, rep2.Done, rep2.Cells)
	}
	assertNoDebris(t, dir)
}

// TestExecuteRetriesTransientFailures checks the backoff loop: every
// cell fails once with a transient error and must still complete, with
// the retries and the failures visible in the report and the journal.
func TestExecuteRetriesTransientFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	dir := withDiskCache(t)

	var mu sync.Mutex
	failedOnce := map[string]bool{}
	simCellHook = func(key string) error {
		mu.Lock()
		defer mu.Unlock()
		if !failedOnce[key] {
			failedOnce[key] = true
			return errors.New("injected transient failure")
		}
		return nil
	}
	defer func() { simCellHook = nil }()

	plan, err := PlanSweep(sweepTestExperiments(sweepTestOpts(), nil))
	if err != nil {
		t.Fatal(err)
	}
	withAttempts(t, 3, time.Millisecond)
	rep, err := plan.ExecuteOpts(context.Background(), ExecOptions{Parallelism: 2})
	if err != nil {
		t.Fatalf("transient failures must be retried away, got %v", err)
	}
	if rep.Done != rep.Cells || rep.Failed != 0 {
		t.Errorf("report %+v, want all %d cells done", rep, rep.Cells)
	}
	if rep.Retries != rep.Cells {
		t.Errorf("%d retries for %d once-failing cells", rep.Retries, rep.Cells)
	}
	recs, err := lease.ReadJournal(filepath.Join(dir, "sweeps", plan.Hash()+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var journalFails int
	for _, r := range recs {
		if r.Status == lease.StatusFailed {
			journalFails++
		}
	}
	if journalFails != rep.Cells {
		t.Errorf("journal records %d failed attempts, want %d", journalFails, rep.Cells)
	}
	assertNoDebris(t, dir)
}

// withAttempts sets the executor's per-cell attempt cap and retry
// backoff for one test.
func withAttempts(t *testing.T, attempts int, backoff time.Duration) {
	t.Helper()
	oldAttempts, oldBackoff := maxAttempts, retryBackoff
	maxAttempts, retryBackoff = attempts, backoff
	t.Cleanup(func() { maxAttempts, retryBackoff = oldAttempts, oldBackoff })
}

// TestExecuteExhaustsAttempts checks the failure cap: a permanently
// failing cell fails the sweep after maxAttempts, without poisoning the
// other cells.
func TestExecuteExhaustsAttempts(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	withDiskCache(t)

	plan, err := PlanSweep(sweepTestExperiments(sweepTestOpts(), nil))
	if err != nil {
		t.Fatal(err)
	}
	doomed := plan.Cells[0].Key
	simCellHook = func(key string) error {
		if key == doomed {
			return errors.New("injected permanent failure")
		}
		return nil
	}
	defer func() { simCellHook = nil }()

	withAttempts(t, 2, time.Millisecond)
	rep, err := plan.ExecuteOpts(context.Background(), ExecOptions{Parallelism: 2})
	if err == nil {
		t.Fatal("permanently failing cell must fail the sweep")
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("failure must not masquerade as cancellation: %v", err)
	}
	if rep.Failed != 1 || rep.Done != rep.Cells-1 {
		t.Errorf("report %+v, want 1 failed and %d done", rep, rep.Cells-1)
	}
	if rep.Retries != 1 {
		t.Errorf("%d retries, want 1 (maxAttempts=2)", rep.Retries)
	}
}

// TestExecutePanickingCellFails checks that a cell whose simulation
// panics fails like any other: the run cache recovers the panic into the
// attempt's error and evicts the entry, so the next attempt simulates
// again instead of reading back an empty result. A cell that panics on
// every attempt exhausts them; one that panics once completes on its
// retry with a real result.
func TestExecutePanickingCellFails(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	withDiskCache(t)
	withAttempts(t, 3, time.Millisecond)

	plan, err := PlanSweep(sweepTestExperiments(sweepTestOpts(), nil))
	if err != nil {
		t.Fatal(err)
	}
	doomed, flaky := plan.Cells[0].Key, plan.Cells[1].Key
	var mu sync.Mutex
	calls := map[string]int{}
	simCellHook = func(key string) error {
		mu.Lock()
		calls[key]++
		n := calls[key]
		mu.Unlock()
		if key == doomed || (key == flaky && n == 1) {
			panic("injected cell panic")
		}
		return nil
	}
	defer func() { simCellHook = nil }()

	rep, err := plan.ExecuteOpts(context.Background(), ExecOptions{Parallelism: 2})
	if err == nil || !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "injected cell panic") {
		t.Fatalf("a cell that always panics must fail the sweep with its panic, got %v", err)
	}
	if rep.Failed != 1 || rep.Done != rep.Cells-1 || rep.Retries != 3 {
		t.Errorf("report %+v, want 1 failed, %d done and 3 retries", rep, rep.Cells-1)
	}
	mu.Lock()
	if calls[doomed] != 3 || calls[flaky] != 2 {
		t.Errorf("doomed cell simulated %d times (want 3), flaky cell %d (want 2)", calls[doomed], calls[flaky])
	}
	mu.Unlock()
	c := plan.Cells[1]
	res, err := runSimCtx(context.Background(), c.Cfg, c.Specs, c.Scheme)
	if err != nil || res == nil || len(res.PerCore) != len(c.Specs) {
		t.Fatalf("retried cell's result %v, %v: want the real result", res, err)
	}
}

// TestExecuteResumeRetriesExhaustedCell checks that attempts are counted
// per call: a cell that ran out of attempts in one call is retried by
// the next, which returns its error, rather than skipped on the strength
// of the journal's failed records.
func TestExecuteResumeRetriesExhaustedCell(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	withDiskCache(t)
	withAttempts(t, 2, time.Millisecond)

	plan, err := PlanSweep(sweepTestExperiments(sweepTestOpts(), nil))
	if err != nil {
		t.Fatal(err)
	}
	doomed := plan.Cells[0].Key
	var attempts atomic.Int32
	simCellHook = func(key string) error {
		if key == doomed {
			attempts.Add(1)
			return errors.New("injected permanent failure")
		}
		return nil
	}
	defer func() { simCellHook = nil }()

	if _, err := plan.ExecuteOpts(context.Background(), ExecOptions{Parallelism: 2}); err == nil {
		t.Fatal("first call: permanently failing cell must fail the sweep")
	}
	attempts.Store(0)
	rep, err := plan.ExecuteOpts(context.Background(), ExecOptions{Parallelism: 2})
	if err == nil || !strings.Contains(err.Error(), "injected permanent failure") {
		t.Fatalf("resumed call returned %v, want the exhausted cell's error", err)
	}
	if got := attempts.Load(); got != 2 {
		t.Errorf("resumed call attempted the failed cell %d times, want 2", got)
	}
	if rep.Failed != 1 || rep.Done != 0 || rep.Resumed != rep.Cells-1 {
		t.Errorf("resumed report %+v, want 1 failed and %d resumed", rep, rep.Cells-1)
	}
}

// TestExecuteOnePlanOneProcess pins the plan lock: two concurrent calls
// on one plan and one cache directory do not split the cells. Whichever
// takes the journal's lock first runs every cell; the other waits, then
// resumes them all from the journal.
func TestExecuteOnePlanOneProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	withDiskCache(t)
	// Slow every real simulation down so the two calls overlap.
	simCellHook = func(string) error {
		time.Sleep(20 * time.Millisecond)
		return nil
	}
	defer func() { simCellHook = nil }()

	plan, err := PlanSweep(sweepTestExperiments(sweepTestOpts(), nil))
	if err != nil {
		t.Fatal(err)
	}
	var (
		reps [2]*ExecReport
		errs [2]error
		wg   sync.WaitGroup
	)
	for k := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps[k], errs[k] = plan.ExecuteOpts(context.Background(), ExecOptions{Parallelism: 2})
		}()
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", k, err)
		}
	}
	first, second := reps[0], reps[1]
	if first.Done == 0 {
		first, second = second, first
	}
	if first.Done != first.Cells || first.Resumed != 0 {
		t.Errorf("first call %+v, want all %d cells run", first, first.Cells)
	}
	if second.Resumed != second.Cells || second.Done != 0 {
		t.Errorf("second call %+v, want all %d cells resumed", second, second.Cells)
	}
	if d := RunCacheDetail(); int(d.Sims) != len(plan.Cells) {
		t.Errorf("%d simulations for %d cells; each must simulate once", d.Sims, len(plan.Cells))
	}
}

// TestExecuteCancelWhileWaiting checks that a call blocked on a plan
// another holder has locked gives up with its context's error promptly
// and simulates nothing.
func TestExecuteCancelWhileWaiting(t *testing.T) {
	dir := withDiskCache(t)
	plan, err := PlanSweep(sweepTestExperiments(sweepTestOpts(), nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "sweeps"), 0o755); err != nil {
		t.Fatal(err)
	}
	held, err := lease.OpenJournal(context.Background(), filepath.Join(dir, "sweeps", plan.Hash()+".jsonl"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(200*time.Millisecond, cancel)
	start := time.Now()
	rep, err := plan.ExecuteOpts(ctx, ExecOptions{Parallelism: 2})
	if !errors.Is(err, context.Canceled) || err.Error() != context.Canceled.Error() {
		t.Fatalf("call cancelled while waiting returned %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancelled wait took %v to return", d)
	}
	if rep == nil || rep.Cells != len(plan.Cells) || rep.Done != 0 {
		t.Errorf("report %+v, want %d cells and none done", rep, len(plan.Cells))
	}
	if d := RunCacheDetail(); d.Sims != 0 {
		t.Errorf("waiting call simulated %d cells", d.Sims)
	}
}

// TestChaosCacheWriterProcess is the re-exec'd disk-cache writer: it
// hammers one run key with stores so two such processes race the same
// entry file.
func TestChaosCacheWriterProcess(t *testing.T) {
	dir := os.Getenv(chaosDirEnv)
	if os.Getenv(chaosWriterEnv) != "1" || dir == "" {
		t.Skip("re-exec helper for the cache write race test")
	}
	if err := SetRunCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	res := &Result{Scheme: "pom", Cycles: 12345, EnergyEff: 1.5, STCHitRate: 0.25}
	for i := 0; i < 300; i++ {
		theDiskCache.store("chaos-race-key", res)
	}
	if _, ok := theDiskCache.load("chaos-race-key"); !ok {
		t.Fatal("entry unreadable from the writing process")
	}
}

// TestDiskCacheMultiProcessWrites races two real processes storing the
// same run key into one directory: both must succeed, and the surviving
// entry must pass checksum validation.
func TestDiskCacheMultiProcessWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := t.TempDir()
	writer := func() (*exec.Cmd, *bytes.Buffer) {
		cmd := exec.Command(os.Args[0], "-test.run=^TestChaosCacheWriterProcess$", "-test.count=1", "-test.v")
		cmd.Env = append(os.Environ(), chaosWriterEnv+"=1", chaosDirEnv+"="+dir)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = &out
		return cmd, &out
	}
	w1, out1 := writer()
	w2, out2 := writer()
	if err := w1.Start(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Start(); err != nil {
		t.Fatal(err)
	}
	if err := w1.Wait(); err != nil {
		t.Fatalf("writer 1: %v\n%s", err, out1)
	}
	if err := w2.Wait(); err != nil {
		t.Fatalf("writer 2: %v\n%s", err, out2)
	}

	// The survivor must be a complete, checksum-valid entry.
	if err := SetRunCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := SetRunCacheDir(""); err != nil {
			t.Fatal(err)
		}
	}()
	res, ok := theDiskCache.load("chaos-race-key")
	if !ok {
		t.Fatal("surviving entry failed validation")
	}
	if res.Cycles != 12345 {
		t.Errorf("surviving entry decoded to %+v", res)
	}
	// And no writer left its temp file behind.
	if tmps, _ := filepath.Glob(filepath.Join(dir, ".tmp-*")); len(tmps) != 0 {
		t.Errorf("leaked temp files: %v", tmps)
	}
}
