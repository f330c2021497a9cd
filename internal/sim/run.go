package sim

import (
	"context"
	"fmt"

	"profess/internal/cache"
	"profess/internal/cpu"
	"profess/internal/event"
	"profess/internal/fault"
	"profess/internal/hybrid"
	"profess/internal/mem"
	"profess/internal/stats"
	"profess/internal/telemetry"
	"profess/internal/trace"
	"profess/internal/workload"
)

// ProgramSpec names one program instance to run. Threads > 1 runs a
// multi-threaded program: the threads share one OS address space (one
// page table, one footprint) and appear to the management hardware — RSM
// counters, MDM statistics, private region — as a single program, exactly
// as §3.1.1 prescribes. Each thread drives its own reference stream
// (seeded per thread); data sharing between threads is not modelled, which
// the paper also leaves to future work.
type ProgramSpec struct {
	Name    string
	Params  trace.Params
	Threads int // 0 or 1 = single-threaded
	// Source, when non-nil, replaces the synthetic generator — e.g. a
	// trace.Replayer loaded from a capture (see cmd/professtrace). Only
	// single-threaded specs may carry a Source, since threads need
	// independent streams.
	Source trace.Source
}

// threads returns the effective thread count.
func (s ProgramSpec) threads() int { return max(s.Threads, 1) }

// SpecsForWorkload builds the four program specs of a Table 10 mix at the
// given capacity scale.
func SpecsForWorkload(w workload.Workload, scale float64) ([]ProgramSpec, error) {
	return SpecsForPrograms(w.Programs[:], scale)
}

// SpecsForPrograms builds specs for an arbitrary program-name list at the
// given scale: each repeated name is a further instance of the program,
// seeded apart from the others. This is how the Table 10 mixes and the
// Fleet16 mix of the Scale16 configuration are materialised.
func SpecsForPrograms(names []string, scale float64) ([]ProgramSpec, error) {
	specs := make([]ProgramSpec, len(names))
	seen := map[string]int{}
	for i, name := range names {
		prog, err := workload.ProgramByName(name)
		if err != nil {
			return nil, err
		}
		inst := seen[name]
		seen[name] = inst + 1
		specs[i] = ProgramSpec{Name: name, Params: prog.Params(scale, workload.Seed(name, inst))}
	}
	return specs, nil
}

// SpecForProgram builds a single program spec at the given scale.
func SpecForProgram(name string, scale float64) (ProgramSpec, error) {
	prog, err := workload.ProgramByName(name)
	if err != nil {
		return ProgramSpec{}, err
	}
	return ProgramSpec{Name: name, Params: prog.Params(scale, workload.Seed(name, 0))}, nil
}

// CoreResult is the per-program outcome of a run.
type CoreResult struct {
	Program      string
	Instructions int64
	// IPC is throughput over the whole run, including the repeats that
	// keep competition alive after the program's first completion.
	IPC float64
	// FirstIPC is the instruction budget over the first-completion time —
	// the quantity slowdowns are computed from: with the same budget in
	// the stand-alone run, cold-start effects cancel in the ratio.
	FirstIPC float64
	// IPCCI95 is the 95% confidence half-width on IPC estimated from the
	// per-window samples of an interval-sampled run (Config.SampleFraction
	// in (0,1)); 0 for full-fidelity runs, where IPC is exact.
	IPCCI95    float64
	Served     int64
	M1Fraction float64
	AvgReadLat float64
	// ReadLatP50/P95/P99 are approximate read-latency quantiles (cycles).
	ReadLatP50     float64
	ReadLatP95     float64
	ReadLatP99     float64
	STCHitRate     float64
	Swaps          int64
	L3MPKI         float64
	Repeats        int64
	FirstRunCycles int64
}

// Result is the outcome of one simulation.
//
// Serialisation contract: every field that carries simulation output is
// an exported plain value (ints, floats, strings, value structs), so a
// Result round-trips through encoding/json exactly — int64 counters are
// decoded digit-for-digit and float64 metrics use Go's shortest
// round-trip encoding. The profess run cache's persistent tier depends on
// this to serve byte-identical figures from disk; TestResultRoundTrips
// pins it. Telemetry is the one deliberate exception: a stateful sampler
// excluded from JSON (and such runs are never cached).
type Result struct {
	Scheme     string
	Cycles     int64
	PerCore    []CoreResult
	Counts     mem.EventCounts
	EnergyEff  float64 // requests per second per watt
	Watts      float64
	STCHitRate float64
	STReads    int64
	STWrites   int64
	// SwapFraction is swaps among all served demand requests.
	SwapFraction float64
	L3HitRate    float64
	TimedOut     bool
	// Sampling records the interval-sampling parameters and window count
	// when the run executed on the sampled tier; zero for full runs.
	Sampling SampleInfo
	// Resilience tallies fault injection and graceful degradation; zero
	// for a fault-free run.
	Resilience stats.Resilience
	// NVM reports M2 write wear and the lifetime projected from it.
	NVM NVMWear
	// ClusterDone, for clustered runs (Config.Clusters > 1), holds the
	// cycle at which each cluster's programs first completed (0 = timed
	// out first). Empty for classic single-machine runs.
	ClusterDone []int64 `json:",omitempty"`
	// Telemetry holds the per-epoch sampler when Config.TelemetryEvery > 0;
	// nil otherwise. Excluded from the JSON summary — export it separately
	// via WriteJSONL/WriteCSV.
	Telemetry *telemetry.Sampler `json:"-"`
}

// IPCs returns the per-core IPC vector.
func (r *Result) IPCs() []float64 {
	out := make([]float64, len(r.PerCore))
	for i, c := range r.PerCore {
		out[i] = c.IPC
	}
	return out
}

// l3Frontend adapts the shared L3 + memory controller to the cpu.Memory
// interface. L3 hits complete after the L3 latency; misses allocate
// (write-allocate) and fetch the line from the hybrid memory; dirty
// victims are written back asynchronously.
type l3Frontend struct {
	l3     *cache.Cache
	hitLat int64
	ctl    *hybrid.Controller
	sched  event.Scheduler

	perCoreHits   []int64
	perCoreMisses []int64
}

// Access implements cpu.Memory. The (done, token) pair is threaded through
// unchanged — to the event calendar on a hit, to the controller on a
// miss — so no closure is allocated on either path.
func (f *l3Frontend) Access(coreID int, addr int64, write bool, done event.Handler, token int64) {
	hit, ev, evicted := f.l3.Access(addr, write)
	if evicted && ev.Dirty {
		// Posted writeback: the core does not wait for it.
		f.ctl.Submit(coreID, ev.Addr, true, nil, 0)
	}
	if hit {
		f.perCoreHits[coreID]++
		f.sched.Schedule(f.sched.Now()+f.hitLat, done, token, nil)
		return
	}
	f.perCoreMisses[coreID]++
	f.ctl.Submit(coreID, addr, false, done, token)
}

// System is a fully-wired simulated machine, exposed so examples and tests
// can drive it directly; Run wraps the common whole-workload flow.
type System struct {
	Cfg    Config
	Queue  *event.Queue
	Ctl    *hybrid.Controller
	Alloc  *hybrid.Allocator
	L3     *cache.Cache
	Cores  []*cpu.Core
	Front  *l3Frontend
	Policy hybrid.Policy
	// Inj is the root fault injector; nil unless Cfg.Faults is enabled.
	Inj *fault.Injector
	// Telemetry is the per-epoch sampler; nil unless Cfg.TelemetryEvery > 0.
	Telemetry *telemetry.Sampler
	specs     []ProgramSpec
	// coreProg maps a hardware core (thread) to its program index; all
	// threads of one program share counters, regions and statistics.
	coreProg []int
	// ff is the fast-forward pipeline, built on the first sampled span.
	ff *ffPipe
}

// NewSystem builds the machine for the given programs and policy.
func NewSystem(cfg Config, specs []ProgramSpec, policy hybrid.Policy) (*System, error) {
	if err := checkFit(cfg, specs); err != nil {
		return nil, err
	}
	q := &event.Queue{}

	layout, err := hybrid.NewLayout(cfg.M1Capacity, cfg.Channels, cfg.Regions, cfg.M2Slots)
	if err != nil {
		return nil, err
	}
	alloc, err := hybrid.NewAllocator(layout, len(specs), cfg.Seed)
	if err != nil {
		return nil, err
	}

	chans := make([]*mem.Channel, cfg.Channels)
	m1Per := cfg.M1Capacity / int64(cfg.Channels)
	for i := range chans {
		chCfg := mem.DefaultChannelConfig(m1Per+layout.STBytesPerChannel(), m1Per*int64(cfg.M2Slots))
		chCfg.BlockBytes = layout.BlockBytes
		chCfg.M2Timing = cfg.M2Timing()
		chans[i] = mem.NewChannel(chCfg, q)
	}

	ctl, err := hybrid.NewController(hybrid.ControllerConfig{
		Layout:         layout,
		STCEntries:     cfg.STCEntries,
		STCWays:        cfg.STCWays,
		NumCores:       len(specs),
		ModelSTTraffic: cfg.ModelSTTraffic,
	}, chans, alloc, policy, q)
	if err != nil {
		return nil, err
	}

	inj := wireFaults(cfg.Faults, ctl, policy)

	l3 := cache.New(cache.ConfigForCapacity(cfg.L3Capacity, cfg.L3Ways))
	front := &l3Frontend{
		l3: l3, hitLat: cfg.L3HitLatency, ctl: ctl, sched: q,
		perCoreHits:   make([]int64, len(specs)),
		perCoreMisses: make([]int64, len(specs)),
	}

	sys := &System{Cfg: cfg, Queue: q, Ctl: ctl, Alloc: alloc, L3: l3, Front: front, Policy: policy, Inj: inj, specs: specs}
	if err := sys.buildCores(); err != nil {
		return nil, err
	}
	if err := sys.wireTelemetry(); err != nil {
		return nil, err
	}
	return sys, nil
}

// checkFit rejects an invalid configuration, and programs whose threads
// do not fit its cores.
func checkFit(cfg Config, specs []ProgramSpec) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	totalThreads := 0
	for _, s := range specs {
		totalThreads += s.threads()
	}
	if len(specs) == 0 || totalThreads > cfg.Cores {
		return fmt.Errorf("sim: %d threads do not fit %d cores", totalThreads, cfg.Cores)
	}
	return nil
}

// wireFaults arms the controller's channels, the controller and the policy
// for the fault plan and returns the root injector. Only an enabled plan
// wires an injector (nil is returned otherwise), so the zero plan stays
// bit-identical to a fault-free build. Each consumer gets its own salted
// fork: per-component schedules then do not depend on how the events of
// other components interleave.
func wireFaults(plan fault.Plan, ctl *hybrid.Controller, policy hybrid.Policy) *fault.Injector {
	if !plan.Enabled() {
		return nil
	}
	inj := fault.NewInjector(plan)
	for i, ch := range ctl.Channels() {
		ch.SetFaultInjector(inj.Fork(uint64(i + 1)))
	}
	ctl.SetFaultInjector(inj.Fork(0x100))
	if fp, ok := policy.(interface{ SetFaultInjector(*fault.Injector) }); ok {
		fp.SetFaultInjector(inj.Fork(0x200))
	}
	return inj
}

// buildCores materialises the per-program cores: one address space per
// program (allocated from s.Alloc), one trace generator per thread, one
// cpu core per thread. It assumes s.Alloc holds every frame free — a
// freshly built or freshly Reset allocator — and is shared by NewSystem
// and the arena's in-place reset, so both construct the exact same cores
// for the same (cfg, specs, seed).
func (s *System) buildCores() error {
	layout := s.Ctl.Layout()
	for i := range s.Cores {
		s.Cores[i] = nil
	}
	s.Cores = s.Cores[:0]
	s.coreProg = s.coreProg[:0]
	for i, spec := range s.specs {
		if spec.Source != nil {
			if spec.threads() > 1 {
				return fmt.Errorf("sim: %s: a replay Source cannot drive multiple threads", spec.Name)
			}
			if s.Cfg.SamplingOn() {
				return fmt.Errorf("sim: %s: interval sampling does not support trace replay Sources; run the capture at full fidelity (SampleFraction 0 or 1)", spec.Name)
			}
			spec.Params.Footprint = spec.Source.Footprint()
		}
		// One address space per program, shared by its threads.
		vpages := spec.Params.Footprint / layout.PageBytes
		vmap, err := s.Alloc.Alloc(i, vpages)
		if err != nil {
			return err
		}
		for th := 0; th < spec.threads(); th++ {
			var gen trace.Source
			if spec.Source != nil {
				gen = spec.Source
			} else {
				params := spec.Params
				if th > 0 {
					params.Seed = spec.Params.Seed ^ (uint64(th) * 0xA24BAED4963EE407)
				}
				g, err := trace.NewGenerator(params)
				if err != nil {
					return err
				}
				gen = g
			}
			// The cpu core carries the PROGRAM index: every downstream
			// counter (controller stats, RSM, MDM, L3 attribution) sees
			// the threads as one program (§3.1.1).
			c, err := cpu.New(i, s.Cfg.CoreCfg, gen, vmap, layout.PageBytes, s.Cfg.Instructions, s.Front, s.Queue)
			if err != nil {
				return err
			}
			s.Cores = append(s.Cores, c)
			s.coreProg = append(s.coreProg, i)
		}
	}
	return nil
}

// wireTelemetry builds and starts the per-epoch sampler when
// Cfg.TelemetryEvery > 0. Only a positive epoch builds a sampler, so the
// default configuration schedules no events and stays bit- and
// cycle-identical to a build without the subsystem. Sampling itself never
// mutates simulated state, so even a telemetry-on run produces the same
// Result. The sampler is always freshly built — it escapes through
// Result.Telemetry, so it can never be pooled with the machine.
func (s *System) wireTelemetry() error {
	s.Telemetry = nil
	if s.Cfg.TelemetryEvery <= 0 {
		return nil
	}
	tel, err := telemetry.New(telemetry.Config{Every: s.Cfg.TelemetryEvery})
	if err != nil {
		return err
	}
	for i, spec := range s.specs {
		i, name := i, spec.Name
		var prevInstr, prevCycle int64
		tel.Gauge(fmt.Sprintf("p%d.%s.ipc", i, name), func(now int64) float64 {
			var instr int64
			for ci, c := range s.Cores {
				if s.coreProg[ci] == i {
					instr += c.Instructions()
				}
			}
			dI, dC := instr-prevInstr, now-prevCycle
			prevInstr, prevCycle = instr, now
			if dC <= 0 {
				return 0
			}
			return float64(dI) / float64(dC)
		})
	}
	s.Ctl.RegisterTelemetry(tel)
	for ci, ch := range s.Ctl.Channels() {
		ch.RegisterTelemetry(tel, fmt.Sprintf("chan%d", ci))
	}
	if tp, ok := s.Policy.(interface{ RegisterTelemetry(*telemetry.Sampler) }); ok {
		tp.RegisterTelemetry(tel)
	}
	tel.Start(s.Queue)
	s.Telemetry = tel
	return nil
}

// watchdogCheckEvents is how often (in processed events) the run loops
// poll the context and the no-progress watchdog; a power of two, so the
// per-event test is a mask. watchdogStaleChecks is how many consecutive
// checks may observe a frozen clock before the run is declared wedged
// (~1M events at the same cycle).
const (
	watchdogCheckEvents = 1 << 14
	watchdogStaleChecks = 64
)

// watchdog is the cancellation poll and no-progress detector of the run
// loops (full, sampled and clustered): a simulation that burns events
// without ever advancing the clock (a bug or a pathological fault plan) is
// aborted with an error instead of spinning forever. A loop calls due once
// per event — an increment and a mask test once inlined — and check when
// due reports true.
type watchdog struct {
	ctx     context.Context
	events  int64
	lastNow int64
	stale   int
}

func newWatchdog(ctx context.Context) watchdog {
	return watchdog{ctx: ctx, lastNow: -1}
}

// due counts one event and reports whether check is due.
func (w *watchdog) due() bool {
	w.events++
	return w.events&(watchdogCheckEvents-1) == 0
}

// check polls the context and the clock. The error names the cycle; the
// caller prefixes where the run was.
func (w *watchdog) check(now int64) error {
	if err := w.ctx.Err(); err != nil {
		return fmt.Errorf("aborted at cycle %d: %w", now, err)
	}
	if now != w.lastNow {
		w.lastNow, w.stale = now, 0
		return nil
	}
	w.stale++
	if w.stale >= watchdogStaleChecks {
		return fmt.Errorf("no progress: %d events without advancing past cycle %d",
			int64(w.stale)*watchdogCheckEvents, now)
	}
	return nil
}

// Run executes until every program completed its first run (repeating
// faster programs to keep competition alive, per §4.2), then gathers the
// results.
func (s *System) Run() (*Result, error) { return s.RunContext(context.Background()) }

// RunContext is Run honouring the context's deadline/cancellation, both
// checked periodically inside the event loop, plus the no-progress
// watchdog.
func (s *System) RunContext(ctx context.Context) (*Result, error) {
	if s.Cfg.SamplingOn() {
		return s.runSampled(ctx)
	}
	remaining := s.startCores(nil)
	timedOut := false
	wd := newWatchdog(ctx)
	var runErr error
	s.Queue.RunUntil(func() bool {
		if *remaining <= 0 {
			return true
		}
		if s.Cfg.MaxCycles > 0 && s.Queue.Now() >= s.Cfg.MaxCycles {
			timedOut = true
			return true
		}
		if wd.due() {
			if err := wd.check(s.Queue.Now()); err != nil {
				runErr = fmt.Errorf("sim: %w", err)
				return true
			}
		}
		return false
	})
	for _, c := range s.Cores {
		c.Stop()
	}
	if runErr != nil {
		return nil, runErr
	}
	return s.gather(timedOut)
}

// startCores arms every core with the first-completion bookkeeping and
// returns a counter that reaches zero once every program has completed its
// first run. onAllDone, when non-nil, fires at that moment with the
// completing cycle — the hook the clustered runner records a cluster's
// completion with.
func (s *System) startCores(onAllDone func(now int64)) *int {
	threadsLeft := make([]int, len(s.specs))
	for _, p := range s.coreProg {
		threadsLeft[p]++
	}
	remaining := new(int)
	*remaining = len(s.specs)
	for ci, c := range s.Cores {
		p := s.coreProg[ci]
		c.Start(func(now int64) {
			threadsLeft[p]--
			if threadsLeft[p] == 0 {
				*remaining--
				if *remaining == 0 && onAllDone != nil {
					onAllDone(now)
				}
			}
		})
	}
	return remaining
}

// gather stops nothing and assumes the event loop has quiesced: it flushes
// the STCs and folds the machine's counters into a Result. Shared by the
// single-machine run loop and the per-cluster collection of a clustered
// run.
func (s *System) gather(timedOut bool) (*Result, error) {
	s.Ctl.FlushSTCs()

	cycles := s.Queue.Now()
	if cycles == 0 {
		return nil, fmt.Errorf("sim: simulation made no progress")
	}
	s.Telemetry.Finish(cycles)
	res := &Result{
		Scheme:   s.Policy.Name(),
		Cycles:   cycles,
		TimedOut: timedOut,
		Counts:   s.Ctl.Counts(),
		STReads:  s.Ctl.STReads,
		STWrites: s.Ctl.STWrites,
	}
	res.STCHitRate = s.Ctl.STCHitRate()
	res.L3HitRate = s.L3.HitRate()
	if demand := res.Counts.DemandAccesses(); demand > 0 {
		res.SwapFraction = float64(res.Counts.Swaps) / float64(demand)
	}
	rep := s.Cfg.Energy.Evaluate(res.Counts, cycles, s.Cfg.Channels)
	res.EnergyEff = rep.Efficiency()
	res.Watts = rep.Watts()
	res.NVM = nvmWear(s.Ctl.Channels(), cycles)

	res.Telemetry = s.Telemetry
	res.Resilience = s.Ctl.Resilience
	if s.Inj != nil {
		counts := s.Inj.Counts()
		res.Resilience.InjectedNVMReadFaults = counts[fault.NVMReadTransient]
		res.Resilience.InjectedNVMWriteFaults = counts[fault.NVMWriteTransient]
		res.Resilience.InjectedStalls = counts[fault.ChannelStall]
		res.Resilience.InjectedStallCycles = counts[fault.ChannelStall] * s.Inj.Plan().EffectiveStallCycles()
		res.Resilience.InjectedQACCorruptions = counts[fault.QACCorruption]
		res.Resilience.InjectedSFCorruptions = counts[fault.SFCorruption]
	}
	if rp, ok := s.Policy.(interface{ ResilienceStats() stats.Resilience }); ok {
		res.Resilience.Add(rp.ResilienceStats())
	}

	for i, spec := range s.specs {
		// Aggregate the program's threads (§3.1.1: they are one program).
		var instr, firstMax, repeats int64
		repeats = -1
		for ci, c := range s.Cores {
			if s.coreProg[ci] != i {
				continue
			}
			instr += c.Instructions()
			if c.FirstRunCycles > firstMax {
				firstMax = c.FirstRunCycles
			}
			if repeats < 0 || c.Repeats < repeats {
				repeats = c.Repeats
			}
		}
		cs := s.Ctl.Cores[i]
		cr := CoreResult{
			Program:        spec.Name,
			Instructions:   instr,
			IPC:            float64(instr) / float64(cycles),
			Served:         cs.Served,
			M1Fraction:     cs.M1Fraction(),
			AvgReadLat:     cs.AvgReadLatency(),
			ReadLatP50:     s.Ctl.ReadLatencyQuantile(i, 0.50),
			ReadLatP95:     s.Ctl.ReadLatencyQuantile(i, 0.95),
			ReadLatP99:     s.Ctl.ReadLatencyQuantile(i, 0.99),
			STCHitRate:     cs.STCHitRate(),
			Swaps:          cs.Swaps,
			Repeats:        repeats,
			FirstRunCycles: firstMax,
		}
		if firstMax > 0 {
			cr.FirstIPC = float64(s.Cfg.Instructions*int64(spec.threads())) / float64(firstMax)
		} else {
			cr.FirstIPC = cr.IPC // timed out before the first completion
		}
		if instr > 0 {
			cr.L3MPKI = float64(s.Front.perCoreMisses[i]) / float64(instr) * 1000
		}
		res.PerCore = append(res.PerCore, cr)
	}
	return res, nil
}

// Run builds and runs a system in one call.
func Run(cfg Config, specs []ProgramSpec, scheme Scheme) (*Result, error) {
	return RunContext(context.Background(), cfg, specs, scheme)
}

// RunContext builds and runs a system in one call, honouring the context.
// A configuration with Clusters > 1 runs each cluster on its own timing
// wheel, on Config.Shards worker goroutines, and is byte-identical for
// every worker count.
func RunContext(ctx context.Context, cfg Config, specs []ProgramSpec, scheme Scheme) (*Result, error) {
	if cfg.Clusters > 1 {
		return runClustered(ctx, cfg, specs, scheme, nil)
	}
	policy, err := NewPolicy(scheme, len(specs), cfg.Scale)
	if err != nil {
		return nil, err
	}
	sys, err := NewSystem(cfg, specs, policy)
	if err != nil {
		return nil, err
	}
	return sys.RunContext(ctx)
}
