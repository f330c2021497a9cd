package profess

import (
	"fmt"
	"math"
	"strings"
	"time"

	"profess/internal/par"
	"profess/internal/stats"
)

// Validation of the sampled-simulation tier (interval sampling with
// functional fast-forward, internal/sample + sim.Config.SampleFraction)
// against full-fidelity runs: every Table 10 mix runs both ways and the
// report compares per-program IPC point by point alongside the wall-clock
// cost of each tier. The committed envelope (testdata/sample_envelope.json,
// enforced by sample_test.go) pins the accuracy the tier must hold and the
// speedup it must deliver; the CSV is the scatter behind the fidelity
// ladder in EXPERIMENTS.md.

// SampleValRow is one workload/scheme cell of the comparison.
type SampleValRow struct {
	Workload string
	Scheme   Scheme
	Programs int

	// Windows is the number of detailed windows the sampled run measured.
	Windows int64
	// MeanAbsIPCError / MaxAbsIPCError summarise |sampled-full|/full over
	// the cell's programs.
	MeanAbsIPCError float64
	MaxAbsIPCError  float64

	// FullSec and SampledSec are the uncached wall times of the two runs;
	// Speedup is their ratio.
	FullSec    float64
	SampledSec float64
	Speedup    float64
}

// SampleValReport aggregates the sampled-vs-full matrix.
type SampleValReport struct {
	Fraction float64
	Window   int64
	Rows     []SampleValRow

	// Error summary over every (workload, program) point.
	MeanAbsIPCError float64
	MaxAbsIPCError  float64
	// Wall-time totals across all cells; Speedup is their ratio — the
	// whole-sweep speedup, which weights long cells more, exactly as a
	// real sweep would experience it.
	FullSec    float64
	SampledSec float64
	Speedup    float64
}

// RunSampleValidation runs every workload of the options under the given
// schemes twice — full fidelity and sampled at the given fraction and
// detailed-window length (0 = the config default) — and reports per-cell
// IPC error and wall-clock speedup. Runs bypass the run
// cache (both tiers simulate honestly, or the timings would be fiction),
// so a sweep plan lists the experiment as unplannable; within one cell
// the full and sampled runs execute sequentially on the same worker so
// they contend identically.
func RunSampleValidation(fraction float64, window int64, schemes []Scheme, opts ExpOptions) (*SampleValReport, error) {
	if !(fraction > 0 && fraction < 1) {
		return nil, fmt.Errorf("sample validation: fraction %g outside (0, 1)", fraction)
	}
	full := opts.multiConfig()
	sampled := full
	sampled.SampleFraction = fraction
	sampled.SampleWindow = window

	type job struct {
		wl     string
		scheme Scheme
	}
	var jobs []job
	for _, w := range opts.workloads() {
		for _, s := range schemes {
			jobs = append(jobs, job{w, s})
		}
	}
	rows := make([]SampleValRow, len(jobs))
	err := par.For(opts.ctx(), len(jobs), opts.Parallelism, func(i int) error {
		specs, err := workloadSpecs(jobs[i].wl, full)
		if err != nil {
			return err
		}
		t0 := time.Now()
		fres, err := runSimUncached(opts.ctx(), full, specs, jobs[i].scheme)
		if err != nil {
			return fmt.Errorf("%s/%s full: %w", jobs[i].wl, jobs[i].scheme, err)
		}
		tFull := time.Since(t0)
		t0 = time.Now()
		sres, err := runSimUncached(opts.ctx(), sampled, specs, jobs[i].scheme)
		if err != nil {
			return fmt.Errorf("%s/%s sampled: %w", jobs[i].wl, jobs[i].scheme, err)
		}
		tSampled := time.Since(t0)

		row := SampleValRow{
			Workload:   jobs[i].wl,
			Scheme:     jobs[i].scheme,
			Programs:   len(specs),
			Windows:    sres.Sampling.Windows,
			FullSec:    tFull.Seconds(),
			SampledSec: tSampled.Seconds(),
		}
		for pi := range fres.PerCore {
			f := fres.PerCore[pi].IPC
			if f <= 0 {
				continue
			}
			e := math.Abs(sres.PerCore[pi].IPC-f) / f
			row.MeanAbsIPCError += e
			if e > row.MaxAbsIPCError {
				row.MaxAbsIPCError = e
			}
		}
		row.MeanAbsIPCError /= float64(len(fres.PerCore))
		if row.SampledSec > 0 {
			row.Speedup = row.FullSec / row.SampledSec
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep := &SampleValReport{Fraction: fraction, Window: sampled.EffectiveSampleWindow(), Rows: rows}
	var points float64
	for _, r := range rows {
		rep.MeanAbsIPCError += float64(r.MeanAbsIPCError * float64(r.Programs))
		points += float64(r.Programs)
		if r.MaxAbsIPCError > rep.MaxAbsIPCError {
			rep.MaxAbsIPCError = r.MaxAbsIPCError
		}
		rep.FullSec += r.FullSec
		rep.SampledSec += r.SampledSec
	}
	if points > 0 {
		rep.MeanAbsIPCError /= points
	}
	if rep.SampledSec > 0 {
		rep.Speedup = rep.FullSec / rep.SampledSec
	}
	return rep, nil
}

// String renders the comparison table plus the aggregate summary.
func (r *SampleValReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sampled tier at fraction %.3g (window %d cycles)\n\n", r.Fraction, r.Window)
	t := stats.NewTable("workload", "scheme", "windows", "mean |e| %", "max |e| %", "full s", "sampled s", "speedup")
	for _, row := range r.Rows {
		t.AddRowf(row.Workload, string(row.Scheme), row.Windows,
			100*row.MeanAbsIPCError, 100*row.MaxAbsIPCError,
			row.FullSec, row.SampledSec, row.Speedup)
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\nIPC error: mean |e|=%.1f%% max |e|=%.1f%%   wall: full %.1fs sampled %.1fs (%.1fx)\n",
		100*r.MeanAbsIPCError, 100*r.MaxAbsIPCError, r.FullSec, r.SampledSec, r.Speedup)
	return b.String()
}

// CSV renders the scatter data: one row per (workload, scheme) cell.
func (r *SampleValReport) CSV() string {
	var b strings.Builder
	b.WriteString(csvRow("workload", "scheme", "windows", "mean_abs_ipc_error", "max_abs_ipc_error",
		"full_wall_s", "sampled_wall_s", "speedup") + "\n")
	for _, row := range r.Rows {
		b.WriteString(csvRow(row.Workload, string(row.Scheme), fmt.Sprintf("%d", row.Windows),
			f3(row.MeanAbsIPCError), f3(row.MaxAbsIPCError),
			f3(row.FullSec), f3(row.SampledSec), f3(row.Speedup)) + "\n")
	}
	return b.String()
}
