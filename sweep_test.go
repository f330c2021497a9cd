package profess

import (
	"strings"
	"testing"
)

// sweepTestOpts are small options shared by the planner tests.
func sweepTestOpts() ExpOptions {
	return ExpOptions{Instructions: 50_000, Workloads: []string{"w09"}, Parallelism: 2}
}

// sweepTestExperiments builds two experiments that overlap exactly the
// way the paper's figures do: fig2's PoM cells (mix + stand-alone
// baselines on w09) are a strict subset of the fig10 matrix.
func sweepTestExperiments(opts ExpOptions, out map[string]string) []PlannedExperiment {
	return []PlannedExperiment{
		{Name: "fig2", Run: func() error {
			rep, err := RunMultiProgram([]Scheme{SchemePoM}, opts)
			if err != nil {
				return err
			}
			if out != nil {
				out["fig2"] = rep.SlowdownDetailString(opts.Workloads)
			}
			return nil
		}},
		{Name: "fig10", Run: func() error {
			rep, err := RunMultiProgram([]Scheme{SchemePoM, SchemeMDM}, opts)
			if err != nil {
				return err
			}
			if out != nil {
				out["fig10"] = rep.String()
			}
			return nil
		}},
	}
}

// TestPlanSweepDedups checks the planner enumerates without simulating,
// dedupes shared cells across experiments, and orders the union
// longest-expected-job-first.
func TestPlanSweepDedups(t *testing.T) {
	ResetRunCache()
	SetRunCaching(true)
	defer ResetRunCache()

	opts := sweepTestOpts()
	plan, err := PlanSweep(sweepTestExperiments(opts, nil))
	if err != nil {
		t.Fatal(err)
	}
	if d := RunCacheDetail(); d.Sims != 0 {
		t.Fatalf("planning simulated %d cells; the dry run must be free", d.Sims)
	}
	if len(plan.Cells) == 0 {
		t.Fatal("empty plan")
	}
	// fig2's cells (PoM mix + PoM baselines) are all shared with fig10.
	if plan.Requested != plan.PerExperiment["fig2"]+plan.PerExperiment["fig10"] {
		t.Errorf("Requested %d != per-experiment sum %d+%d",
			plan.Requested, plan.PerExperiment["fig2"], plan.PerExperiment["fig10"])
	}
	if len(plan.Cells) != plan.PerExperiment["fig10"] {
		t.Errorf("union has %d cells, want fig10's %d (fig2 fully shared)",
			len(plan.Cells), plan.PerExperiment["fig10"])
	}
	if plan.Requested <= len(plan.Cells) {
		t.Errorf("no cross-experiment sharing: %d requested, %d distinct", plan.Requested, len(plan.Cells))
	}
	for i := 1; i < len(plan.Cells); i++ {
		if plan.Cells[i].Cost > plan.Cells[i-1].Cost {
			t.Fatalf("cells not longest-first at %d: %d after %d", i, plan.Cells[i].Cost, plan.Cells[i-1].Cost)
		}
	}
	// The expensive cells are the four-program mixes; they must lead.
	if len(plan.Cells[0].Specs) != 4 {
		t.Errorf("longest-first should schedule the quad-program mix first, got %d specs", len(plan.Cells[0].Specs))
	}
	// Shared cells carry both requesters.
	var shared bool
	for _, c := range plan.Cells {
		if len(c.Experiments) == 2 {
			shared = true
		}
	}
	if !shared {
		t.Error("no cell records both experiments as requesters")
	}
}

// TestSweepExecuteRenderByteIdentical is the acceptance property: a cold
// deduped sweep simulates each distinct cell exactly once across all
// requested experiments, figures render byte-identical to an uncached
// run, and a warm re-run (fresh process simulated by dropping the
// in-process tier) performs zero simulations.
func TestSweepExecuteRenderByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	opts := sweepTestOpts()

	// Reference: every figure from fully uncached simulations.
	SetRunCaching(false)
	want := map[string]string{}
	for _, e := range sweepTestExperiments(opts, want) {
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	SetRunCaching(true)

	dir := t.TempDir()
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

	// Cold: plan, execute, render.
	plan, err := PlanSweep(sweepTestExperiments(opts, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.ExecuteOpts(nil, ExecOptions{Parallelism: 2}); err != nil {
		t.Fatal(err)
	}
	afterExec := RunCacheDetail()
	if int(afterExec.Sims) != len(plan.Cells) {
		t.Errorf("cold execute ran %d sims for %d distinct cells; each must simulate exactly once", afterExec.Sims, len(plan.Cells))
	}
	got := map[string]string{}
	for _, e := range sweepTestExperiments(opts, got) {
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if d := RunCacheDetail(); d.Sims != afterExec.Sims {
		t.Errorf("render phase simulated %d extra cells; figures must come from the completed cell table", d.Sims-afterExec.Sims)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s output differs from the uncached run:\n--- uncached ---\n%s\n--- planned ---\n%s", name, w, got[name])
		}
	}

	// Warm: a fresh process (in-process tier dropped) renders everything
	// from disk with zero simulations.
	ResetRunCache()
	plan2, err := PlanSweep(sweepTestExperiments(opts, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan2.ExecuteOpts(nil, ExecOptions{Parallelism: 2}); err != nil {
		t.Fatal(err)
	}
	got2 := map[string]string{}
	for _, e := range sweepTestExperiments(opts, got2) {
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	d := RunCacheDetail()
	if d.Sims != 0 {
		t.Errorf("warm sweep simulated %d cells, want 0 (100%% hit rate)", d.Sims)
	}
	if int(d.DiskHits) != len(plan2.Cells) {
		t.Errorf("warm sweep took %d disk hits for %d cells", d.DiskHits, len(plan2.Cells))
	}
	for name, w := range want {
		if got2[name] != w {
			t.Errorf("%s warm output differs from the uncached run", name)
		}
	}
}

// TestPlanSweepTWRSharesFig5 checks that sens-twr's x1 point is Fig. 5's
// own system: the t_WR_M2 factor has one default, so those cells carry
// Fig. 5's run keys and the plan simulates them once for both.
func TestPlanSweepTWRSharesFig5(t *testing.T) {
	ResetRunCache()
	SetRunCaching(true)
	defer ResetRunCache()

	opts := ExpOptions{Instructions: 200_000}
	plan, err := PlanSweep([]PlannedExperiment{
		{Name: "fig5", Run: func() error {
			_, err := RunSinglePrograms([]Scheme{SchemePoM, SchemeMDM}, opts)
			return err
		}},
		{Name: "sens-twr", Run: func() error {
			_, err := RunTWRSensitivity(opts)
			return err
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var shared int
	for _, c := range plan.Cells {
		if len(c.Experiments) == 2 {
			shared++
		}
	}
	if len(plan.Cells) != 46 || shared != 14 {
		t.Errorf("fig5 + sens-twr plan %d distinct cells, %d shared (per experiment %v); want 46 and 14",
			len(plan.Cells), shared, plan.PerExperiment)
	}
}

// TestPlanSweepUnplannable checks that experiments which simulate
// outside the run cache — probe-instrumented policies (table4), and the
// timing-honest scale16 and sample drivers — are reported rather than
// silently simulated during planning.
func TestPlanSweepUnplannable(t *testing.T) {
	ResetRunCache()
	SetRunCaching(true)
	defer ResetRunCache()

	opts := ExpOptions{Instructions: 50_000, Programs: []string{"mcf"}, Workloads: []string{"w09"}, Parallelism: 1}
	plan, err := PlanSweep([]PlannedExperiment{
		{Name: "table4", Run: func() error {
			_, err := RunSamplingAccuracy(opts)
			return err
		}},
		{Name: "scale16", Run: func() error {
			_, err := RunScale16(SchemeProFess, opts)
			return err
		}},
		{Name: "sample", Run: func() error {
			_, err := RunSampleValidation(0.05, 0, []Scheme{SchemeProFess}, opts)
			return err
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(plan.Unplannable, ","); got != "table4,scale16,sample" {
		t.Errorf("Unplannable = %v, want [table4 scale16 sample]", plan.Unplannable)
	}
	if d := RunCacheDetail(); d.Sims != 0 {
		t.Errorf("unplannable experiment simulated %d cells during planning", d.Sims)
	}
}

// TestPlanSweepNeedsCaching pins the precondition: without the run cache
// the render phase could not read executed cells back.
func TestPlanSweepNeedsCaching(t *testing.T) {
	SetRunCaching(false)
	defer SetRunCaching(true)
	if _, err := PlanSweep(nil); err == nil || !strings.Contains(err.Error(), "run cache") {
		t.Errorf("PlanSweep without caching: err = %v", err)
	}
	p := &SweepPlan{}
	if _, err := p.ExecuteOpts(nil, ExecOptions{Parallelism: 1}); err == nil || !strings.Contains(err.Error(), "run cache") {
		t.Errorf("ExecuteOpts without caching: err = %v", err)
	}
}
