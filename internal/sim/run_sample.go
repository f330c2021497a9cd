package sim

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"

	"profess/internal/hybrid"
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

// ffCtxCheckSteps is how often (in functional references) fast-forward
// polls the context. The count runs across spans: most spans are shorter.
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
//
// Detailed windows run on the calling goroutine alone. Each fast-forward
// span runs as a two-goroutine pipeline that joins before the span ends
// (see fastForward), so no goroutine outlives the run.
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
//
// The span runs as a two-stage pipeline. This goroutine is the front-end:
// core selection, FFRun, reference generation and the L3 filter. Every
// access the L3 passes down (a dirty writeback, a miss) goes into an
// ffPipe batch, and one back-end goroutine runs those accesses through
// Controller.FunctionalAccess in exactly the order they were pushed. The
// split is exact because nothing flows back up within a span: the core
// advances at its calibrated pace, not at the memory latency, and the
// controller, its channels and the policy touch nothing the front-end
// reads. The halves join before fastForward returns, on every path.
//
// The back-end may own the controller only on a drained machine: a span
// that starts with a memory request still in flight fails before any
// goroutine starts.
func (s *System) fastForward(ctx context.Context, from, until int64, paces []float64, remaining *int) (int64, bool, error) {
	if !s.Ctl.Quiesced() {
		return from, false, fmt.Errorf("sim: fast-forward span at cycle %d starts with memory requests in flight", from)
	}
	if s.ff == nil {
		s.ff = newFFPipe()
	}
	p := s.ff
	p.start(s.Ctl)
	defer p.join()
	for ci, c := range s.Cores {
		c.BeginFastForward(from, paces[s.coreProg[ci]])
	}
	mem := func(core int, addr int64, write bool, now int64) {
		hit, ev, evicted := s.L3.Access(addr, write)
		if evicted && ev.Dirty {
			// Posted writeback, exactly as the event-driven frontend: the
			// core does not wait, the controller still accounts it.
			p.push(core, ev.Addr, true, now)
		}
		if hit {
			s.Front.perCoreHits[core]++
			return
		}
		s.Front.perCoreMisses[core]++
		p.push(core, addr, false, now)
	}
	limit := until
	if s.Cfg.MaxCycles > 0 && s.Cfg.MaxCycles < limit {
		limit = s.Cfg.MaxCycles
	}
	// Cache each core's next issue time: an FFRun can only change the run
	// core's own clock (and possibly stop it), so the two-smallest scan
	// works on a flat int64 array instead of re-deriving every core's time.
	times := p.times[:0]
	for _, c := range s.Cores {
		if c.Stopped() {
			times = append(times, math.MaxInt64)
		} else {
			times = append(times, c.FFTime())
		}
	}
	p.times = times
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
		if p.steps += n; p.steps >= ffCtxCheckSteps {
			p.steps = 0
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

// ffBatchLen is how many accesses the fast-forward front-end hands the
// back-end at a time, and ffBatches how many batches exist, so how far
// (ffBatches-1 full batches) the front-end may run ahead of the back-end.
// A hand-off wakes a goroutine, so batches amortise it; their total
// (about 200 KiB) stays inside one core's L2. EXPERIMENTS, "Pipelined
// fast-forward (perfbench)", has the measurements behind both.
const (
	ffBatchLen = 1024
	ffBatches  = 8
)

// ffAccess is one functional controller access, in the arguments of
// Controller.FunctionalAccess.
type ffAccess struct {
	addr  int64
	now   int64
	core  int32
	write bool
}

// ffBatch is a run of accesses in issue order.
type ffBatch struct {
	n    int
	recs [ffBatchLen]ffAccess
}

// ffPipe carries a fast-forward span's accesses from the front-end (the
// goroutine running fastForward) to the back-end goroutine. Batches cycle
// through two channels: free (empty, for the front-end to fill) and full
// (filled, for the back-end to run, then return to free). A nil batch on
// full ends the span; the back-end answers on exit with nil, or with its
// panic. full holds every batch plus the end marker, so the front-end's
// sends never block: it blocks only for an empty batch or for exit, and
// both wait on exit too, so a back-end that died cannot hang it. Between
// spans every batch sits in free and no back-end runs.
//
// One pipe is built on a machine's first fast-forward span and kept with
// it, so an arena-reused machine builds none. times and steps are
// fastForward's per-core issue times and context-poll count, kept for the
// same reason and, for steps, so that short spans still poll.
type ffPipe struct {
	batches [ffBatches]ffBatch
	free    chan *ffBatch
	full    chan *ffBatch
	exit    chan *ffPanic
	cur     *ffBatch // the batch the front-end is filling; nil once joined
	times   []int64
	steps   int
}

func newFFPipe() *ffPipe {
	p := &ffPipe{
		free: make(chan *ffBatch, ffBatches),
		full: make(chan *ffBatch, ffBatches+1),
		exit: make(chan *ffPanic, 1),
	}
	for i := range p.batches {
		p.free <- &p.batches[i]
	}
	return p
}

// start launches the back-end for one span.
func (p *ffPipe) start(ctl *hybrid.Controller) {
	p.cur = <-p.free
	go p.serve(ctl)
}

// serve is the back-end: it runs each batch's accesses through the
// controller in order, until the end-of-span marker.
func (p *ffPipe) serve(ctl *hybrid.Controller) {
	defer func() {
		if r := recover(); r != nil {
			p.exit <- &ffPanic{value: r, stack: debug.Stack()}
		}
	}()
	for {
		b := <-p.full
		if b == nil {
			p.exit <- nil
			return
		}
		for i := range b.recs[:b.n] {
			a := &b.recs[i]
			ctl.FunctionalAccess(int(a.core), a.addr, a.write, a.now)
		}
		b.n = 0
		p.free <- b
	}
}

// push appends one access to the current batch and hands the batch to
// the back-end when it is full.
func (p *ffPipe) push(core int, addr int64, write bool, now int64) {
	b := p.cur
	b.recs[b.n] = ffAccess{addr: addr, now: now, core: int32(core), write: write}
	if b.n++; b.n < ffBatchLen {
		return
	}
	p.full <- b
	select {
	case p.cur = <-p.free:
	case e := <-p.exit:
		p.fail(e)
	}
}

// join ends the span: the back-end runs the accesses still queued and
// stops. A back-end panic is re-raised here, on the caller's goroutine.
// After a front-end panic, join (deferred) still waits for the back-end,
// so no goroutine outlives the run either way.
func (p *ffPipe) join() {
	if p.cur == nil {
		return // fail already took the back-end's exit
	}
	p.full <- p.cur
	p.cur = nil
	p.full <- nil
	if e := <-p.exit; e != nil {
		p.fail(e)
	}
}

// fail takes the back-end's panic after it has stopped: every batch goes
// back to free, wherever the dead back-end left it, so the machine can be
// reset and run again; then the panic continues on this goroutine.
func (p *ffPipe) fail(e *ffPanic) {
	for len(p.full) > 0 {
		<-p.full
	}
	for len(p.free) > 0 {
		<-p.free
	}
	for i := range p.batches {
		p.batches[i].n = 0
		p.free <- &p.batches[i]
	}
	p.cur = nil
	panic(e)
}

// ffPanic is a fast-forward back-end panic, re-raised on the goroutine
// that runs the simulation. A recover there (par.For's, say) formats its
// own goroutine's stack, so the value carries the back-end's.
type ffPanic struct {
	value any
	stack []byte
}

func (e *ffPanic) Error() string {
	return fmt.Sprintf("%v\n\nfast-forward back-end goroutine:\n%s", e.value, e.stack)
}
