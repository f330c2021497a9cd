package profess

import (
	"context"

	"profess/internal/sim"
	"profess/internal/workload"
)

// Slowdown is eq. 1: a program's uncontended IPC over its IPC within the
// workload.
func Slowdown(ipcAlone, ipcShared float64) float64 {
	if ipcShared <= 0 {
		return 0
	}
	return ipcAlone / ipcShared
}

// WeightedSpeedup is the paper's performance figure of merit (§4.3):
// the sum of inverse slowdowns.
func WeightedSpeedup(slowdowns []float64) float64 {
	var ws float64
	for _, s := range slowdowns {
		if s > 0 {
			ws += 1 / s
		}
	}
	return ws
}

// Unfairness is the paper's fairness figure of merit (§4.3): the maximum
// slowdown across the co-running programs (lower is fairer).
func Unfairness(slowdowns []float64) float64 {
	var m float64
	for _, s := range slowdowns {
		if s > m {
			m = s
		}
	}
	return m
}

// WorkBeforeWearOut is the work-normalised endurance figure of merit:
// lifetime in seconds times aggregate IPC, proportional (at a fixed
// clock) to the instructions the system retires before the hottest M2
// row wears out. Comparing schemes on raw Result.NVM.LifetimeSeconds
// rewards throttling — a scheme that stalls writes "lives longer" while
// doing less — whereas this quantity only improves when wear per unit of
// work drops. The analytic tier's lifetime monotonicity tests are stated
// on it.
func WorkBeforeWearOut(lifetimeSeconds, ipc float64) float64 {
	if lifetimeSeconds <= 0 || ipc <= 0 {
		return 0
	}
	return lifetimeSeconds * ipc
}

// WorkloadResult couples a multiprogram Result with its fairness metrics.
type WorkloadResult struct {
	Workload string
	Scheme   Scheme
	Result   *Result
	// AloneIPC is IPC_SP per core (program instance), Slowdowns eq. 1.
	AloneIPC        []float64
	Slowdowns       []float64
	WeightedSpeedup float64
	MaxSlowdown     float64
}

// RunWorkload runs a Table 10 workload under the given scheme and derives
// slowdowns, weighted speedup and unfairness from stand-alone baselines.
// Every run, baselines included, goes through the run cache, so repeated
// calls simulate each distinct run once.
func RunWorkload(name string, scheme Scheme, cfg Config) (*WorkloadResult, error) {
	return RunWorkloadContext(context.Background(), name, scheme, cfg)
}

// RunWorkloadContext is RunWorkload honouring the context: cancellation
// interrupts both the mix run and the stand-alone baselines mid-flight.
func RunWorkloadContext(ctx context.Context, name string, scheme Scheme, cfg Config) (*WorkloadResult, error) {
	res, err := RunMixContext(ctx, name, scheme, cfg)
	if err != nil {
		return nil, err
	}
	alone, err := aloneIPCs(ctx, res, scheme, cfg)
	if err != nil {
		return nil, err
	}
	return newWorkloadResult(name, scheme, res, alone), nil
}

// RunWorkloadWithPolicy is RunWorkload for a custom (e.g. ablated) policy:
// the mix runs under the given policy while the stand-alone baselines use
// baselineScheme. Used by the ablation benchmarks.
func RunWorkloadWithPolicy(name string, policy Policy, baselineScheme Scheme, cfg Config) (*WorkloadResult, error) {
	specs, err := workloadSpecs(name, cfg)
	if err != nil {
		return nil, err
	}
	res, err := RunWithPolicy(specs, policy, cfg)
	if err != nil {
		return nil, err
	}
	alone, err := aloneIPCs(context.Background(), res, baselineScheme, cfg)
	if err != nil {
		return nil, err
	}
	return newWorkloadResult(name, Scheme(policy.Name()), res, alone), nil
}

// workloadSpecs builds the program specs of a Table 10 workload at the
// configuration's scale.
func workloadSpecs(name string, cfg Config) ([]ProgramSpec, error) {
	w, err := workload.WorkloadByName(name)
	if err != nil {
		return nil, err
	}
	return sim.SpecsForWorkload(w, cfg.Scale)
}

// aloneIPCs measures the stand-alone IPC of each distinct program of a
// mix run (see aloneIPC).
func aloneIPCs(ctx context.Context, res *Result, scheme Scheme, cfg Config) (map[string]float64, error) {
	alone := make(map[string]float64, len(res.PerCore))
	for _, c := range res.PerCore {
		if _, ok := alone[c.Program]; ok {
			continue
		}
		ipc, err := aloneIPC(ctx, c.Program, scheme, cfg)
		if err != nil {
			return nil, err
		}
		alone[c.Program] = ipc
	}
	return alone, nil
}

// aloneIPC measures IPC_SP, a program's stand-alone IPC: its run alone in
// cfg's system under scheme (the paper measures IPC_SP under the same
// management as the workload run), read through the run cache. The
// stand-alone run is always fault-free: eq. 1's reference point is the
// healthy machine, so injected faults show up as extra slowdown rather
// than silently rescaling both sides of the ratio.
func aloneIPC(ctx context.Context, program string, scheme Scheme, cfg Config) (float64, error) {
	cfg.Faults = FaultPlan{}
	res, err := RunProgramContext(ctx, program, scheme, cfg)
	if err != nil {
		return 0, err
	}
	return res.PerCore[0].FirstIPC, nil
}

// newWorkloadResult derives eq. 1's slowdowns and the figures of merit of
// a mix run from its programs' stand-alone IPCs.
func newWorkloadResult(name string, scheme Scheme, res *Result, alone map[string]float64) *WorkloadResult {
	wr := &WorkloadResult{Workload: name, Scheme: scheme, Result: res}
	for _, c := range res.PerCore {
		wr.AloneIPC = append(wr.AloneIPC, alone[c.Program])
		wr.Slowdowns = append(wr.Slowdowns, Slowdown(alone[c.Program], c.FirstIPC))
	}
	wr.WeightedSpeedup = WeightedSpeedup(wr.Slowdowns)
	wr.MaxSlowdown = Unfairness(wr.Slowdowns)
	return wr
}
