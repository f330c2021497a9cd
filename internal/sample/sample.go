// Package sample provides the statistical machinery of the simulator's
// interval-sampling execution mode (SMARTS-style): a seeded deterministic
// schedule of short detailed measurement windows inside long fast-forward
// spans, and a per-program IPC estimator over the window samples that
// yields both the confidence interval reported on results and the pace
// (cycles per instruction) the fast-forward spans advance cores at.
//
// The package is pure arithmetic — no dependency on the event engine or
// the machine — so the execution layers (internal/cpu, internal/sim) can
// all build on it without import cycles.
package sample

import (
	"math"
)

// Schedule places one detailed window inside each sampling period. The
// period length is Window/fraction, so the detailed windows cover the
// requested fraction of simulated time; the window's offset within each
// period is drawn from a seeded splitmix64 stream, which decorrelates the
// measurement phase from any periodic behaviour of the workload while
// keeping the whole schedule a pure function of (fraction, window, seed).
type Schedule struct {
	// Period is the length of one sampling period in cycles.
	Period int64
	// Window is the detailed-window length in cycles.
	Window int64
	seed   uint64
}

// NewSchedule builds the window schedule for the given sampling fraction
// (must be in (0, 1)), detailed-window length and seed.
func NewSchedule(fraction float64, window int64, seed uint64) Schedule {
	if window < 1 {
		window = 1
	}
	period := int64(math.Round(float64(window) / fraction))
	if period < window {
		period = window
	}
	return Schedule{Period: period, Window: window, seed: seed}
}

// splitmix64 is the standard 64-bit mixing function; one evaluation per
// period index gives an independent, reproducible offset stream.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// WindowAt returns the detailed window [start, end) of sampling period i.
// Period 0's window is pinned to cycle 0: the first detailed window
// doubles as the calibration measurement that seeds the fast-forward pace,
// so it must precede any fast-forward span — and it observes the same
// cold-start phase the full-fidelity run begins with.
func (s Schedule) WindowAt(i int64) (start, end int64) {
	if i == 0 {
		return 0, s.Window
	}
	base := i * s.Period
	span := s.Period - s.Window
	var off int64
	if span > 0 {
		off = int64(splitmix64(s.seed^uint64(i)) % uint64(span+1))
	}
	return base + off, base + off + s.Window
}

// Estimator accumulates per-program per-window IPC samples (Welford's
// online algorithm) and reports the mean and a 95% confidence interval.
// The detailed windows of a sampled run are the samples; the CI half-width
// is what Result reports alongside the point estimate.
type Estimator struct {
	n    int64
	mean []float64
	m2   []float64
	// ewma tracks a recency-weighted window IPC per program. Pacing must
	// follow the program's CURRENT speed, not its lifetime average: early
	// windows run against a cold hierarchy (hot pages still in M2, cold
	// caches) and would otherwise drag the fast-forward pace down for the
	// whole run, systematically stretching programs whose IPC ramps as
	// the management scheme warms up.
	ewma []float64
}

// ewmaAlpha is the weight of the newest window in the pacing estimate.
const ewmaAlpha = 0.5

// NewEstimator builds an estimator for the given number of programs.
func NewEstimator(programs int) *Estimator {
	return &Estimator{
		mean: make([]float64, programs),
		m2:   make([]float64, programs),
		ewma: make([]float64, programs),
	}
}

// Add records one detailed window's per-program IPC vector.
func (e *Estimator) Add(ipc []float64) {
	e.n++
	// float64(...) rounds each product so that arm64 cannot fuse it into
	// the sum (`make fma-check`).
	for i, v := range ipc {
		d := v - e.mean[i]
		e.mean[i] += d / float64(e.n)
		e.m2[i] += float64(d * (v - e.mean[i]))
		if e.n == 1 {
			e.ewma[i] = v
		} else {
			e.ewma[i] = float64(ewmaAlpha*v) + float64((1-ewmaAlpha)*e.ewma[i])
		}
	}
}

// Windows returns the number of windows recorded.
func (e *Estimator) Windows() int64 { return e.n }

// Mean returns program i's mean window IPC.
func (e *Estimator) Mean(i int) float64 { return e.mean[i] }

// CI95 returns the half-width of the 95% confidence interval on program
// i's mean window IPC (1.96·s/√n, the large-sample normal interval); 0
// with fewer than two windows.
func (e *Estimator) CI95(i int) float64 {
	if e.n < 2 {
		return 0
	}
	sd := math.Sqrt(e.m2[i] / float64(e.n-1))
	return 1.96 * sd / math.Sqrt(float64(e.n))
}

// minPaceIPC floors the per-thread IPC a pace is derived from, so a
// program that happened to be starved for a whole window cannot stall the
// functional clock (and with it the entire sampled run) indefinitely.
const minPaceIPC = 1e-4

// Pace returns the fast-forward pace for one thread of program i — cycles
// per instruction, the reciprocal of the recency-weighted per-thread
// window IPC. Fast-forward spans advance each core's clock at this rate,
// so functional time flows at the speed the recent detailed windows
// actually measured and the whole-run cycle count stays consistent with
// the estimated IPC.
func (e *Estimator) Pace(i int, threads int) float64 {
	if threads < 1 {
		threads = 1
	}
	ipc := e.ewma[i] / float64(threads)
	if ipc < minPaceIPC {
		ipc = minPaceIPC
	}
	return 1 / ipc
}
