package profess

import (
	"context"
	"fmt"

	"profess/internal/stats"
)

// ExpOptions tunes the experiment drivers. The zero value means: paper
// scale (1/32), the configuration's default instruction budget, all
// programs, all 19 workloads.
type ExpOptions struct {
	// Scale is the capacity scale (0 = PaperScale).
	Scale float64
	// Instructions overrides the per-run instruction budget (0 = the
	// scaled config default of 500M x Scale). Experiments are meaningful
	// from about 1M instructions; the defaults in cmd/professbench use
	// 2M for speed.
	Instructions int64
	// Programs restricts single-program experiments (nil = Table 9 set).
	Programs []string
	// Workloads restricts multi-program experiments (nil = Table 10 set).
	Workloads []string
	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS).
	Parallelism int
	// Context, when non-nil, cancels in-flight experiments: its deadline
	// and cancellation propagate into every simulation's event loop.
	Context context.Context
	// Faults is the fault-injection plan applied to every simulation the
	// experiment runs (zero plan = fault-free). Stand-alone slowdown
	// baselines always run fault-free so eq. 1 keeps a clean reference.
	Faults FaultPlan
}

// ctx returns the effective context.
func (o ExpOptions) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// scale returns the effective capacity scale.
func (o ExpOptions) scale() float64 {
	if o.Scale > 0 {
		return o.Scale
	}
	return PaperScale
}

// singleConfig builds the single-core system for these options.
func (o ExpOptions) singleConfig() Config {
	cfg := SingleCoreConfig(o.scale())
	if o.Instructions > 0 {
		cfg.Instructions = o.Instructions
	}
	cfg.Faults = o.Faults
	return cfg
}

// multiConfig builds the quad-core system for these options.
func (o ExpOptions) multiConfig() Config {
	cfg := MultiCoreConfig(o.scale())
	if o.Instructions > 0 {
		cfg.Instructions = o.Instructions
	}
	cfg.Faults = o.Faults
	return cfg
}

// programs returns the single-program experiment set. libquantum is
// excluded by default exactly as in Fig. 5 (its footprint fits entirely in
// M1 at the default scale, making every scheme identical); pass it
// explicitly to include it.
func (o ExpOptions) programs() []string {
	if len(o.Programs) > 0 {
		return o.Programs
	}
	var names []string
	for _, p := range Programs() {
		if p.Name == "libquantum" {
			continue
		}
		names = append(names, p.Name)
	}
	return names
}

// workloads returns the multi-program experiment set.
func (o ExpOptions) workloads() []string {
	if len(o.Workloads) > 0 {
		return o.Workloads
	}
	var names []string
	for _, w := range Workloads() {
		names = append(names, w.Name)
	}
	return names
}

// Ratio returns a/b, or 0 when b is 0 — the "normalised to PoM" helper
// used throughout the figures.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// summarise renders a box-plot line in the paper's Fig. 5 style.
func summarise(name string, xs []float64) string {
	bp := stats.NewBoxPlot(xs)
	return fmt.Sprintf("%-28s gmean=%.3f median=%.3f box=[%.3f,%.3f] range=[%.3f,%.3f]",
		name, bp.GeoMean, bp.Median, bp.Q1, bp.Q3, stats.Min(xs), stats.Max(xs))
}
