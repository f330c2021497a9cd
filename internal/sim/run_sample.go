package sim

import (
	"context"
	"fmt"
	"math"

	"profess/internal/sample"
)

// SampleInfo describes the interval-sampling execution that produced a
// Result; the zero value means a full-fidelity run. Plain values only, per
// Result's serialisation contract.
type SampleInfo struct {
	// Fraction is the configured fraction of simulated time that ran
	// under the full cycle model.
	Fraction float64
	// Window is the detailed-window length in cycles.
	Window int64
	// Windows is the number of complete detailed windows measured — the
	// sample count behind the per-program IPC confidence intervals.
	Windows int64
}

// ffCtxCheckSteps is how often (in functional references) a fast-forward
// span polls the context.
const ffCtxCheckSteps = 1 << 16

// warmupCycles is the detailed warm-up run before the measured span of
// each window; see runSampled.
const warmupCycles = 26_000

// ffBatchSlack is how far (in cycles) a fast-forwarding core may run past
// the next core's issue time before the driver re-picks; see fastForward.
// Chosen with the default window on the standard sweep: small enough that
// the functional access interleaving tracks the detailed one (large slack
// measurably degrades swap-heavy mixes), large enough to amortise the
// core-selection scan.
const ffBatchSlack = 64

// runSampled executes the machine in the interval-sampling mode: detailed
// windows on the seeded schedule run under the unmodified event-driven
// cycle model; the spans between them fast-forward functionally. Between
// the two regimes the machine quiesces — cores park, the calendar drains —
// so no event-driven state is ever half in flight when the clock jumps.
//
// What stays exact: the reference streams (every instruction of every
// program is replayed, in both regimes), and with them the access-driven
// state — L3 tags, STC contents, QACs, policy counters (RSM/MDM/ProFess
// see every access), swap-group residency, wear tallies, demand counts.
// What is estimated: time. Each fast-forward span advances every core at
// the pace (cycles per instruction) its program measured in the detailed
// windows so far — window 0 is pinned to cycle 0 so a calibration sample
// always exists — so cycles, IPC and the latency statistics are estimates
// whose error shrinks as the fraction grows; the per-window IPC spread
// yields the confidence interval reported on each CoreResult.
func (s *System) runSampled(ctx context.Context) (*Result, error) {
	window := s.Cfg.EffectiveSampleWindow()
	sched := sample.NewSchedule(s.Cfg.SampleFraction, window, s.Cfg.Seed)
	est := sample.NewEstimator(len(s.specs))
	remaining := s.startCores(nil)

	progThreads := make([]int, len(s.specs))
	for _, p := range s.coreProg {
		progThreads[p]++
	}
	paces := make([]float64, len(s.specs))

	// Establish the loop invariant — cores parked, calendar drained —
	// before the first period. The initial step events fire as no-ops;
	// window 0 then unparks at cycle 0.
	for _, c := range s.Cores {
		c.Park()
	}
	s.Queue.Drain()

	var (
		timedOut bool
		runErr   error
	)
	wd := newWatchdog(ctx)
	instrAt := func(out []int64) {
		for i := range out {
			out[i] = 0
		}
		for ci, c := range s.Cores {
			out[s.coreProg[ci]] += c.Instructions()
		}
	}
	instrBase := make([]int64, len(s.specs))
	instrEnd := make([]int64, len(s.specs))
	winIPC := make([]float64, len(s.specs))

	clock := s.Queue.Now()
	for i := int64(0); *remaining > 0 && runErr == nil && !timedOut; i++ {
		dStart, dEnd := sched.WindowAt(i)
		if dStart < clock {
			dStart = clock
		}
		if dEnd <= dStart {
			// The previous window's quiesce overran this whole window
			// (possible only at extreme fractions); skip the period.
			continue
		}

		if dStart > clock {
			t, done, err := s.fastForward(ctx, clock, dStart, paces, remaining)
			if err != nil {
				runErr = err
				break
			}
			clock = t
			if done || *remaining <= 0 {
				break
			}
			if s.Cfg.MaxCycles > 0 && clock >= s.Cfg.MaxCycles {
				timedOut = true
				break
			}
		}
		s.Queue.AdvanceTo(clock)

		// Detailed window: unpark and pump the cycle model until the
		// window ends (or the run does). pump advances the calendar up to
		// (not including) `until` and reports whether it got there.
		pump := func(until int64) bool {
			for *remaining > 0 {
				t, ok := s.Queue.NextAt()
				if !ok || t >= until {
					return true
				}
				if s.Cfg.MaxCycles > 0 && t >= s.Cfg.MaxCycles {
					timedOut = true
					return false
				}
				s.Queue.Step()
				if wd.due() {
					if err := wd.check(s.Queue.Now()); err != nil {
						runErr = fmt.Errorf("sim: %w", err)
						return false
					}
				}
			}
			return false
		}
		for _, c := range s.Cores {
			c.Unpark()
		}
		// The leading span of the window is detailed warm-up: the
		// pipeline restarts from the quiesced (drained) state, and the
		// synchronized unpark bursts the request queues and the swap
		// policy, so early window cycles are not steady-state. The
		// transient decays in absolute time (~tens of kilocycles, set by
		// the swap latency), so the warm span is absolute too, capped so
		// at least an eighth of every window is measured.
		warm := dEnd - dStart - (dEnd-dStart)/8
		if warm > warmupCycles {
			warm = warmupCycles
		}
		warmAt := dStart + warm
		complete := pump(warmAt)
		instrAt(instrBase)
		if complete {
			complete = pump(dEnd)
		}
		if *remaining <= 0 || timedOut || runErr != nil {
			complete = false
		}
		if complete {
			// One IPC sample per program over the measured window span.
			instrAt(instrEnd)
			span := dEnd - warmAt
			for pi := range winIPC {
				winIPC[pi] = float64(instrEnd[pi]-instrBase[pi]) / float64(span)
			}
			est.Add(winIPC)
			for pi := range paces {
				paces[pi] = est.Pace(pi, progThreads[pi])
			}
		} else {
			break
		}

		// Quiesce for the next fast-forward span.
		for _, c := range s.Cores {
			c.Park()
		}
		s.Queue.Drain()
		clock = s.Queue.Now()
		if clock < dEnd {
			clock = dEnd
		}
	}
	for _, c := range s.Cores {
		c.Stop()
	}
	if runErr != nil {
		return nil, runErr
	}
	// A run that ended inside a fast-forward span finished on a drained
	// calendar; surface the functional end time on the clock for gather.
	s.Queue.AdvanceTo(clock)

	res, err := s.gather(timedOut)
	if err != nil {
		return nil, err
	}
	res.Sampling = SampleInfo{Fraction: s.Cfg.SampleFraction, Window: window, Windows: est.Windows()}
	// Report IPC from the window samples, not the paced clock. The windows
	// are a systematic time sample of the run, so their mean estimates the
	// time-average throughput instr/cycles directly and without the pacing
	// estimator's lag; the clock's job is only to place windows, warm state
	// and carry the cycle-denominated metrics (energy, wear rates, FirstIPC).
	if est.Windows() > 0 {
		for pi := range res.PerCore {
			res.PerCore[pi].IPC = est.Mean(pi)
			res.PerCore[pi].IPCCI95 = est.CI95(pi)
		}
	}
	return res, nil
}

// fastForward advances every core functionally from `from` until the next
// reference would issue at or beyond `until` (or the run completes, or
// MaxCycles strikes), each core paced at its program's measured cycles per
// instruction. Cores advance in global issue-time order — always the core
// whose next reference is earliest — so the memory system sees the
// interleaved access stream in time order, the closest event-free analogue
// of the detailed interleaving. Returns the span's end time and whether
// the run completed inside the span.
func (s *System) fastForward(ctx context.Context, from, until int64, paces []float64, remaining *int) (int64, bool, error) {
	for ci, c := range s.Cores {
		c.BeginFastForward(from, paces[s.coreProg[ci]])
	}
	mem := func(core int, addr int64, write bool, now int64) int64 {
		hit, ev, evicted := s.L3.Access(addr, write)
		if evicted && ev.Dirty {
			// Posted writeback, exactly as the event-driven frontend: the
			// core does not wait, the controller still accounts it.
			s.Ctl.FunctionalAccess(core, ev.Addr, true, now)
		}
		if hit {
			s.Front.perCoreHits[core]++
			return s.Front.hitLat
		}
		s.Front.perCoreMisses[core]++
		return s.Ctl.FunctionalAccess(core, addr, false, now)
	}
	limit := until
	if s.Cfg.MaxCycles > 0 && s.Cfg.MaxCycles < limit {
		limit = s.Cfg.MaxCycles
	}
	// Cache each core's next issue time: an FFRun can only change the run
	// core's own clock (and possibly stop it), so the two-smallest scan
	// works on a flat int64 array instead of re-deriving every core's time.
	times := make([]int64, len(s.Cores))
	for ci, c := range s.Cores {
		if c.Stopped() {
			times[ci] = math.MaxInt64
		} else {
			times[ci] = c.FFTime()
		}
	}
	var steps, nextCheck int64 = 0, ffCtxCheckSteps
	for *remaining > 0 {
		// Pick the earliest core and let it run a batch of references up
		// to just past the second-earliest core's next issue: within
		// ffBatchSlack cycles the global arrival order may locally
		// deviate from strict time order, which is comparable to the
		// reordering the detailed scheduler itself introduces, and it
		// amortises this scan over the whole batch.
		best, bt := 0, times[0]
		st := int64(math.MaxInt64)
		for ci := 1; ci < len(times); ci++ {
			if times[ci] < bt {
				best, bt, st = ci, times[ci], bt
			} else if times[ci] < st {
				st = times[ci]
			}
		}
		if bt >= limit {
			break
		}
		horizon := limit
		if st < math.MaxInt64-ffBatchSlack && st+ffBatchSlack < limit {
			horizon = st + ffBatchSlack
		}
		t, n := s.Cores[best].FFRun(mem, horizon, remaining)
		times[best] = t
		steps += int64(n)
		if steps >= nextCheck {
			nextCheck = steps + ffCtxCheckSteps
			if err := ctx.Err(); err != nil {
				return bt, false, fmt.Errorf("sim: aborted at cycle %d: %w", bt, err)
			}
		}
		if *remaining <= 0 {
			// The run completed inside the batch; t is the completing
			// core's next issue time, one compute gap past completion.
			if t > limit {
				t = limit
			}
			for _, c := range s.Cores {
				c.EndFastForward()
			}
			return t, true, nil
		}
	}
	for _, c := range s.Cores {
		c.EndFastForward()
	}
	return limit, false, nil
}
