// Package cpu models the processor cores that drive the memory system.
//
// The paper uses a Pin-based cycle-accurate x86 simulator (width 4,
// ROB 256). For a memory-system study, what the core model must get right
// is the rate and overlap of memory requests: independent misses overlap
// up to the reorder window's capacity, dependent (pointer-chasing) misses
// serialise, and compute instructions advance at the core width. This
// package implements exactly that: an MLP-limited, dependence-aware core
// that replays a synthetic reference stream and accounts instructions and
// cycles.
package cpu

import (
	"fmt"
	"math"

	"profess/internal/event"
	"profess/internal/trace"
)

// Memory is the interface to the memory hierarchy below the core (the
// shared L3 in this simulator). Access must eventually deliver completion
// as done.HandleEvent(now, token, nil): the pre-bound handler plus opaque
// token replace a per-access closure so that issuing a reference allocates
// nothing.
type Memory interface {
	Access(core int, addr int64, write bool, done event.Handler, token int64)
}

// Config sizes a core (Table 8: width 4, ROB 256).
type Config struct {
	Width int
	ROB   int
	// MaxOutstanding caps concurrent memory references (MSHR-like). When
	// zero it is derived from ROB and the program's reference density.
	MaxOutstanding int
}

// DefaultConfig returns the Table 8 core.
func DefaultConfig() Config { return Config{Width: 4, ROB: 256} }

// Core replays one program's reference stream against the memory system.
// It restarts its generator when the instruction budget is reached (the
// Table 10 methodology repeats programs that complete faster than the
// slowest one), recording the first completion separately.
type Core struct {
	id    int
	cfg   Config
	gen   trace.Source
	vmap  []int64 // virtual page -> physical page
	pgBy  int64   // page bytes
	memhw Memory
	sched event.Scheduler

	budget int64 // instructions per program run

	// progress
	frontier    int64 // frontend virtual time
	instrAcc    int64 // sub-width instruction residue
	instr       int64 // total instructions executed (across repeats)
	runInstr    int64 // instructions executed within the current run
	outstanding int
	maxOut      int

	issuedSeq      int64
	lastIssuedDone bool
	waitDep        bool
	waitWindow     bool

	pending        trace.Ref
	hasPending     bool
	stopped        bool
	parked         bool
	firstDone      bool
	FirstRunCycles int64 // cycle the first run completed (0 until then)
	Repeats        int64 // completed runs

	onFirstDone func(now int64)

	// ff is the functional fast-forward state of the sampled execution
	// mode: a fractional clock advanced at the calibrated pace (cycles
	// per instruction measured in the preceding detailed windows).
	// Untouched outside fast-forward spans.
	ff struct {
		clock float64
		pace  float64
	}
}

// New builds a core. vmap maps the program's virtual pages to original
// physical pages (from the hybrid allocator); pageBytes is the OS page
// size; budget is the per-run instruction count.
func New(id int, cfg Config, gen trace.Source, vmap []int64, pageBytes int64, budget int64, memhw Memory, sched event.Scheduler) (*Core, error) {
	if cfg.Width <= 0 {
		cfg.Width = 4
	}
	if cfg.ROB <= 0 {
		cfg.ROB = 256
	}
	if budget <= 0 {
		return nil, fmt.Errorf("cpu: instruction budget must be positive")
	}
	need := gen.Footprint() / pageBytes
	if int64(len(vmap)) < need {
		return nil, fmt.Errorf("cpu: vmap covers %d pages, footprint needs %d", len(vmap), need)
	}
	c := &Core{
		id: id, cfg: cfg, gen: gen, vmap: vmap, pgBy: pageBytes,
		memhw: memhw, sched: sched, budget: budget,
		lastIssuedDone: true,
	}
	c.maxOut = cfg.MaxOutstanding
	if c.maxOut <= 0 {
		// The ROB holds cfg.ROB instructions; with GapMean instructions
		// between references it covers about ROB/Gap concurrent misses.
		g := int(gen.Params().GapMean)
		if g < 1 {
			g = 1
		}
		c.maxOut = cfg.ROB / g
		if c.maxOut < 1 {
			c.maxOut = 1
		}
		if c.maxOut > 16 {
			c.maxOut = 16
		}
	}
	return c, nil
}

// ID returns the core's index.
func (c *Core) ID() int { return c.id }

// MaxOutstanding returns the derived MLP limit (for tests).
func (c *Core) MaxOutstanding() int { return c.maxOut }

// Instructions returns total instructions executed across all repeats.
func (c *Core) Instructions() int64 { return c.instr }

// coreEvStep is the token of the core's self-scheduled step events; memory
// completions carry the (non-negative) issue sequence number instead.
const coreEvStep int64 = -1

// HandleEvent implements event.Handler: the core receives its own step
// wake-ups and the memory system's completions as typed events.
func (c *Core) HandleEvent(now int64, i int64, _ any) {
	if i < 0 {
		c.step(now)
		return
	}
	c.memDone(now, i)
}

// Start begins execution; onFirstDone fires when the first run's
// instruction budget is reached.
func (c *Core) Start(onFirstDone func(now int64)) {
	c.onFirstDone = onFirstDone
	c.sched.Schedule(c.sched.Now(), c, coreEvStep, nil)
}

// Stop freezes the core: no further references are issued.
func (c *Core) Stop() { c.stopped = true }

// Stopped reports whether the core has been stopped.
func (c *Core) Stopped() bool { return c.stopped }

// translate maps a virtual address to its original physical address.
func (c *Core) translate(vaddr int64) int64 {
	vp := vaddr / c.pgBy
	return c.vmap[vp]*c.pgBy + vaddr%c.pgBy
}

// step issues references until blocked on time, dependence or the window.
func (c *Core) step(now int64) {
	for !c.stopped && !c.parked {
		if !c.hasPending {
			if c.runInstr >= c.budget {
				c.completeRun(now)
				if c.stopped {
					return
				}
			}
			c.pending = c.gen.Next()
			c.hasPending = true
			// Advance the frontend by the compute gap at core width.
			c.instrAcc += int64(c.pending.Gap)
			c.frontier += c.instrAcc / int64(c.cfg.Width)
			c.instrAcc %= int64(c.cfg.Width)
			if c.frontier < now {
				c.frontier = now
			}
		}
		ref := &c.pending
		if now < c.frontier {
			c.sched.Schedule(c.frontier, c, coreEvStep, nil)
			return
		}
		if ref.Dep && !c.lastIssuedDone {
			c.waitDep = true
			return // resumed by the previous reference's completion
		}
		if c.outstanding >= c.maxOut {
			c.waitWindow = true
			return // resumed by any completion
		}
		c.issue(now, ref)
	}
}

// issue submits the pending reference to memory; the issue sequence number
// rides along as the completion token.
func (c *Core) issue(now int64, ref *trace.Ref) {
	c.hasPending = false
	c.instr += int64(ref.Gap) + 1 // the gap plus the memory instruction
	c.runInstr += int64(ref.Gap) + 1
	c.outstanding++
	c.issuedSeq++
	c.lastIssuedDone = false
	addr := c.translate(ref.VAddr)
	c.memhw.Access(c.id, addr, ref.Write, c, c.issuedSeq)
}

// memDone handles one memory completion: the token is the completed
// reference's issue sequence number, so dependence tracking survives the
// reference itself having been recycled.
func (c *Core) memDone(done int64, seq int64) {
	c.outstanding--
	if seq == c.issuedSeq {
		c.lastIssuedDone = true
	}
	if c.stopped {
		return
	}
	if c.waitDep && c.lastIssuedDone {
		c.waitDep = false
		c.step(done)
		return
	}
	if c.waitWindow {
		c.waitWindow = false
		c.step(done)
	}
}

// FunctionalMemory charges one memory access without events — the memory
// interface of the fast-forward spans. It returns nothing: a
// fast-forwarding core advances at its calibrated pace, not at the memory
// latency.
type FunctionalMemory func(core int, addr int64, write bool, now int64)

// Park freezes the core for a fast-forward span: the event-driven step
// loop stops issuing (pending step events fire as no-ops) while in-flight
// memory completions still account normally, so the machine can drain to a
// quiescent point.
func (c *Core) Park() { c.parked = true }

// Unpark resumes event-driven execution at the calendar's current time.
// Stale wait flags from the parked window are cleared — after a drained
// calendar nothing is outstanding — and a fresh step event re-arms the
// issue loop.
func (c *Core) Unpark() {
	c.parked = false
	if c.stopped {
		return
	}
	c.waitDep, c.waitWindow = false, false
	c.lastIssuedDone = true
	c.sched.Schedule(c.sched.Now(), c, coreEvStep, nil)
}

// BeginFastForward arms functional execution at time t with the given
// pace (cycles per instruction, from the detailed windows' measured IPC).
// The caller must have parked the core and drained the calendar
// (outstanding == 0).
func (c *Core) BeginFastForward(t int64, pace float64) {
	c.ff.clock = float64(t)
	c.ff.pace = pace
	if !c.hasPending && !c.stopped {
		c.ffFetch(t)
	}
}

// EndFastForward folds the functional state back for event-driven resume:
// the frontend frontier catches up to functional time, and every
// functional reference is treated as complete, so the next detailed
// window starts from a briefly-drained pipeline (the standard sampling
// warm-up artifact, absorbed by the window's leading cycles).
func (c *Core) EndFastForward() {
	if t := int64(c.ff.clock); c.frontier < t {
		c.frontier = t
	}
	c.lastIssuedDone = true
}

// FFTime returns the time the core's next functional reference issues:
// the paced clock after the reference's compute gap. The sampled run loop
// advances cores in global FFTime order, so the memory system sees the
// interleaved access stream in time order and channel state (occupancy,
// open rows, wear) warms from a realistic arrival pattern. The paced
// clock's products are rounded by float64(...) so that arm64 cannot fuse
// them into the sum (`make fma-check`).
func (c *Core) FFTime() int64 {
	return int64(c.ff.clock + float64(c.ff.pace*float64(c.pending.Gap)))
}

// FFRun issues functional references until the next would issue at or
// beyond `until`, the run budget completes (*remaining reaches zero), or
// the core stops. Batching the per-reference loop inside the core lets
// the span driver pay its core-selection scan once per run instead of
// once per reference. Returns the issue time of the core's next pending
// reference (MaxInt64 when the core has stopped) and the number of
// references issued.
func (c *Core) FFRun(mem FunctionalMemory, until int64, remaining *int) (int64, int) {
	n := 0
	for !c.stopped && c.hasPending {
		issue := c.FFTime()
		if issue >= until {
			return issue, n
		}
		ref := &c.pending
		c.instr += int64(ref.Gap) + 1
		c.runInstr += int64(ref.Gap) + 1
		mem(c.id, c.translate(ref.VAddr), ref.Write, issue)
		c.ff.clock += float64(c.ff.pace * float64(ref.Gap+1))
		c.hasPending = false
		c.ffFetch(issue)
		n++
		if *remaining <= 0 {
			return c.FFTime(), n
		}
	}
	return math.MaxInt64, n
}

// ffFetch pulls the next reference from the generator and handles budget
// completion — the functional twin of the fetch block in step(). The
// event-driven frontier arithmetic is deliberately not replayed here;
// EndFastForward folds time back into the frontier once per span.
func (c *Core) ffFetch(at int64) {
	if c.runInstr >= c.budget {
		c.completeRun(at)
		if c.stopped {
			return
		}
	}
	c.pending = c.gen.Next()
	c.hasPending = true
}

// completeRun handles reaching the instruction budget: record the first
// completion and restart the generator to keep the memory pressure up
// until the workload's slowest program completes.
func (c *Core) completeRun(now int64) {
	c.Repeats++
	c.runInstr = 0
	c.gen.Reset()
	if !c.firstDone {
		c.firstDone = true
		c.FirstRunCycles = now
		if c.onFirstDone != nil {
			c.onFirstDone(now)
		}
	}
}
