// Package analytic is the closed-form fast tier of the simulator: it
// predicts per-scheme IPC, per-program slowdown, M1/M2 traffic mix and
// NVM lifetime directly from the workload statistics the trace
// generators expose (footprint, write fraction, gap, locality knobs) —
// no event loop, microseconds per estimate.
//
// The shape of the model follows Salkhordeh, Mutlu & Asadi, "An
// Analytical Model for Performance and Lifetime Estimation of Hybrid
// DRAM-NVM Main Memories" (TPDS 2019, arXiv:1903.10067): a memory
// request stream is characterised by its hit distribution across the
// hierarchy levels, each level by a service latency, and the processor
// by the overlap (MLP) it can extract; lifetime follows from the NVM
// write rate and the evenness of its spread. The calibration constants
// in Model are fitted against this repository's cycle model (see the
// cross-validation suite in exp_xval.go and xval_test.go at the repo
// root), not taken from the paper.
//
// Fidelity contract: the estimator is a screen, not a simulator. It is
// calibrated to rank schemes and to flag cells where schemes cannot
// differ (footprint resident in M1, MPKI too low for the memory system
// to matter); absolute IPC carries the committed cross-validation
// envelope's error. Anything that depends on fine-grained event
// interleaving — fault injection, telemetry traces, queue transients,
// the deterministic bank-collision patterns of the page allocator — is
// out of scope and is exactly what the cycle model remains for.
package analytic

import (
	"fmt"
	"math"

	"profess/internal/mem"
	"profess/internal/sim"
	"profess/internal/trace"
)

// Model holds the calibration constants of the analytic estimator.
// Default() returns the set fitted against the cycle model; tests
// perturb individual fields to probe structural properties.
type Model struct {
	// Schemes holds the per-scheme migration calibration.
	Schemes map[sim.Scheme]SchemeCal

	// QueueWeight scales the shared-bus queueing delay term S·u/(1-u).
	QueueWeight float64
	// BankPressure scales the bank-conflict queueing a row-missing
	// access suffers (misses keep their bank busy for the activate
	// cycle, so colliding traffic serialises behind them).
	BankPressure float64
	// WriteRecoveryWeight scales the write-recovery (tWR) blocking a
	// row-missing access suffers behind an earlier write to its bank.
	WriteRecoveryWeight float64
	// OverlapSlack blends the compute and memory phases: per-reference
	// time is max(front, mem) + OverlapSlack·min(front, mem), modelling
	// imperfect overlap of the two.
	OverlapSlack float64
	// RowHitDiscount derates the geometric row-hit estimate for
	// scheduling noise (refresh, swap row closures, bank collisions).
	RowHitDiscount float64
	// L3StreamResidual is the L3 hit rate of a cyclic stream whose
	// footprint exceeds the cache (LRU's pathological case).
	L3StreamResidual float64
	// L3FitHit is the steady-state hit rate once a working set is
	// fully L3-resident (compulsory misses and conflicts keep it < 1).
	L3FitHit float64
	// L3IrrDiscount derates the irregular-pattern L3 residency estimate
	// for the pollution the cold stream inflicts on the hot lines.
	L3IrrDiscount float64

	// M2ExtraLatency adds cycles to every M2 access; zero in Default().
	// The monotonicity property tests sweep it as "M2 latency".
	M2ExtraLatency float64
}

// SchemeCal captures how one migration scheme converts the workload's
// locality into M1 service, and what it pays for it.
type SchemeCal struct {
	// Hot is the fraction of the ideal hot-set-resident-in-M1 placement
	// the scheme achieves for the *first* line of a block visit.
	Hot float64
	// Spatial is the probability the scheme has the rest of a block
	// visit's lines M1-resident (on-access migration captures the burst
	// that follows the first touch; interval-based schemes mostly miss it).
	Spatial float64
	// SwapsPerMiss is the block swaps triggered per demand miss served
	// by M2.
	SwapsPerMiss float64
	// SwapStall is the exposed cost of one swap in units of the swap's
	// channel-blocking latency, before MLP amortisation: synchronous
	// swaps stall the requester and pile up the queue behind the
	// blocked channel; interval/deferred schemes overlap most of it.
	SwapStall float64
	// Conflict inflates the swap rate per concurrent stream beyond the
	// first: direct-mapped remapping (CAMEO, SILC-FM) thrashes when
	// several streams' blocks contend for the same M1 frame.
	Conflict float64
}

// Default returns the calibration fitted against the cycle model on the
// ten Table 9 generators (see xval_test.go for the enforced envelope).
//
// Behaviourally equivalent scheme families are deliberately fitted with
// one shared (tied) calibration vector: mdm is profess minus the fairness
// weighting, and cameo differs from silc-fm only in remap granularity,
// which the scaled capacities erase. Tying keeps fit noise from inventing
// analytic distinctions the cycle model does not have, so tied schemes
// produce bitwise-identical estimates.
func Default() Model {
	return Model{
		Schemes: map[sim.Scheme]SchemeCal{
			sim.SchemeStatic:  {},
			sim.SchemeCAMEO:   {Hot: 0.353, Spatial: 0.900, SwapsPerMiss: 0.327, SwapStall: 0.389, Conflict: 0.050},
			sim.SchemeSILCFM:  {Hot: 0.353, Spatial: 0.900, SwapsPerMiss: 0.327, SwapStall: 0.389, Conflict: 0.050},
			sim.SchemeMemPod:  {Hot: 0.590, Spatial: 0.772, SwapsPerMiss: 0.097, SwapStall: 2.086, Conflict: 0.105},
			sim.SchemePoM:     {Hot: 0.494, Spatial: 0.720, SwapsPerMiss: 0.061, SwapStall: 0.725, Conflict: 0.248},
			sim.SchemeMDM:     {Hot: 0.900, Spatial: 0.900, SwapsPerMiss: 0.092, SwapStall: 3.088, Conflict: 0.201},
			sim.SchemeProFess: {Hot: 0.900, Spatial: 0.900, SwapsPerMiss: 0.092, SwapStall: 3.088, Conflict: 0.201},
		},
		QueueWeight:         0.521,
		BankPressure:        1.778,
		WriteRecoveryWeight: 0.000,
		OverlapSlack:        0.000,
		RowHitDiscount:      1.000,
		L3StreamResidual:    0.02,
		L3FitHit:            0.97,
		L3IrrDiscount:       0.416,
	}
}

// ProgramEstimate is the model's prediction for one program of a cell.
type ProgramEstimate struct {
	Name string
	// IPC is the predicted steady-state IPC in the cell's mix; IPCAlone
	// the predicted stand-alone IPC in the same configuration.
	IPC      float64
	IPCAlone float64
	// Slowdown is IPCAlone/IPC, ≥ 1 by construction.
	Slowdown float64
	// M1Fraction is the fraction of memory demand accesses served by M1.
	M1Fraction float64
	L3HitRate  float64
	// RowHitRate and AvgMemLat expose the latency pipeline's inner
	// predictions (cycles) for cross-validation and debugging.
	RowHitRate float64
	AvgMemLat  float64
}

// TrafficMix splits demand memory traffic by partition and direction.
// The four fractions sum to 1 whenever the cell generates any traffic.
type TrafficMix struct {
	M1Reads, M1Writes, M2Reads, M2Writes float64
}

// Sum returns the total of the four fractions (1 or 0).
func (t TrafficMix) Sum() float64 { return t.M1Reads + t.M1Writes + t.M2Reads + t.M2Writes }

// Lifetime is the model's NVM endurance projection.
type Lifetime struct {
	// M2WriteBurstsPerSecond is the predicted 64-B write-burst rate into
	// M2 (demand writes plus swap write phases).
	M2WriteBurstsPerSecond float64
	// LevelingEfficiency estimates mean/max per-line write density in
	// (0, 1]; 0 when no M2 writes are predicted.
	LevelingEfficiency float64
	// LifetimeSeconds is the projected time until the hottest line
	// exhausts mem.EnduranceWrites; LifetimeIdealSeconds the same under
	// perfect wear leveling. 0 when no M2 writes are predicted.
	LifetimeSeconds      float64
	LifetimeIdealSeconds float64
}

// Estimate is the analytic prediction for one simulation cell.
type Estimate struct {
	Scheme   sim.Scheme
	Programs []ProgramEstimate
	Traffic  TrafficMix
	NVM      Lifetime
	// SwapFraction is predicted block swaps per demand memory access.
	SwapFraction    float64
	WeightedSpeedup float64
	MaxSlowdown     float64
}

// IPCOf returns the predicted IPC of the named program (first match).
func (e Estimate) IPCOf(name string) (float64, bool) {
	for _, p := range e.Programs {
		if p.Name == name {
			return p.IPC, true
		}
	}
	return 0, false
}

// unit is one program of the cell with its derived, latency-independent
// characteristics; the contention loop iterates only the timing state.
type unit struct {
	name    string
	p       trace.Params
	threads float64

	frontend float64 // compute cycles per reference (gap/width)
	maxOut   float64 // MLP window, as the core derives it
	pL3      float64
	m1f      float64
	rowHit   float64
	placeM1  float64 // fraction of the footprint resident in M1
	effBanks float64 // banks the unit's own traffic spreads over

	tRef   float64 // current per-reference cycles
	lamMem float64 // memory demand refs per cycle (all threads)
	lmem   float64 // current average demand memory latency (cycles)
}

// Estimate predicts the cell (cfg, specs, scheme). It returns an error
// for unknown schemes and empty or zero-footprint specs; the cycle model
// remains the source of truth for anything it cannot express.
func (m Model) Estimate(cfg sim.Config, specs []sim.ProgramSpec, scheme sim.Scheme) (Estimate, error) {
	cal, ok := m.Schemes[scheme]
	if !ok {
		return Estimate{}, fmt.Errorf("analytic: no calibration for scheme %q", scheme)
	}
	if len(specs) == 0 {
		return Estimate{}, fmt.Errorf("analytic: no program specs")
	}
	for _, s := range specs {
		if s.Params.Footprint <= 0 {
			return Estimate{}, fmt.Errorf("analytic: program %q has no footprint", s.Params.Name)
		}
	}

	t1 := mem.DefaultM1Timing()
	t2 := mem.DefaultM2Timing()
	if cfg.M2TWRFactor > 0 && cfg.M2TWRFactor != 1 {
		t2.TWR = int64(float64(t2.TWR) * cfg.M2TWRFactor)
	}
	c1 := float64(cfg.M1Capacity)
	c2 := c1 * float64(cfg.M2Slots)
	c3 := float64(cfg.L3Capacity)
	staticFrac := 1 / (1 + float64(cfg.M2Slots))

	var totalF float64
	for _, s := range specs {
		totalF += float64(s.Params.Footprint)
	}

	// Shared-run units: capacity shares are footprint-proportional.
	units := make([]*unit, len(specs))
	for i, s := range specs {
		share := float64(s.Params.Footprint) / totalF
		units[i] = m.newUnit(cfg, s, c3*share, c1*share, staticFrac, cal)
	}
	m.contend(units, cfg, t1, t2, cal)

	// Stand-alone runs: the program owns the full caches and channels.
	alone := make([]*unit, len(specs))
	for i, s := range specs {
		alone[i] = m.newUnit(cfg, s, c3, c1, staticFrac, cal)
		m.contend(alone[i:i+1], cfg, t1, t2, cal)
	}

	est := Estimate{Scheme: scheme, Programs: make([]ProgramEstimate, len(specs))}
	for i, u := range units {
		ipcShared := (float64(u.p.GapMean) + 1) / u.tRef * u.threads
		ipcAlone := (float64(alone[i].p.GapMean) + 1) / alone[i].tRef * alone[i].threads
		// A shared run cannot beat the stand-alone run it is a subset of;
		// clamp so slowdown ≥ 1 holds by construction.
		if ipcShared > ipcAlone {
			ipcShared = ipcAlone
		}
		sd := ipcAlone / ipcShared
		est.Programs[i] = ProgramEstimate{
			Name:       u.name,
			IPC:        ipcShared,
			IPCAlone:   ipcAlone,
			Slowdown:   sd,
			M1Fraction: u.m1f,
			L3HitRate:  u.pL3,
			RowHitRate: u.rowHit,
			AvgMemLat:  u.lmem,
		}
		est.WeightedSpeedup += 1 / sd
		if sd > est.MaxSlowdown {
			est.MaxSlowdown = sd
		}
	}

	est.Traffic = trafficMix(units)
	var demandPerCycle, swapsPerCycle float64
	for _, u := range units {
		demandPerCycle += u.lamMem
		swapsPerCycle += float64(u.lamMem * (1 - u.m1f) * effSwapsPerMiss(cal, u.p))
	}
	if demandPerCycle > 0 {
		est.SwapFraction = swapsPerCycle / demandPerCycle
	}
	est.NVM = m.lifetime(units, cfg, c2, cal)
	return est, nil
}

// newUnit derives the latency-independent characteristics of one program
// given its cache and M1 capacity shares.
func (m Model) newUnit(cfg sim.Config, s sim.ProgramSpec, c3Share, c1Share, staticFrac float64, cal SchemeCal) *unit {
	p := s.Params
	core := cfg.CoreCfg
	if core.Width <= 0 {
		core.Width = 4
	}
	if core.ROB <= 0 {
		core.ROB = 256
	}
	maxOut := float64(core.MaxOutstanding)
	if maxOut <= 0 {
		// Mirror cpu.New's derivation: ROB/gap, clamped to [1, 16].
		g := math.Trunc(float64(p.GapMean))
		if g < 1 {
			g = 1
		}
		maxOut = math.Trunc(float64(core.ROB) / g)
		if maxOut < 1 {
			maxOut = 1
		}
		if maxOut > 16 {
			maxOut = 16
		}
	}
	threads := float64(s.Threads)
	if threads < 1 {
		threads = 1
	}
	u := &unit{
		name:     p.Name,
		p:        p,
		threads:  threads,
		frontend: float64(p.GapMean) / float64(core.Width),
		maxOut:   maxOut,
	}
	// The Mixed pattern alternates stream and irregular phases; weight
	// the two behaviours by the share of the run each phase occupies.
	wIrr := irregularShare(cfg, p)
	l3s, l3i := m.l3Stream(p, c3Share), m.l3Irregular(p, c3Share)
	u.pL3 = float64((1-wIrr)*l3s) + float64(wIrr*l3i)
	// Row locality of the post-L3 stream: blend the phase row-hit rates
	// by each phase's *miss* traffic, not its reference count.
	ws, wi := float64((1-wIrr)*(1-l3s)), float64(wIrr*(1-l3i))
	if ws+wi > 0 {
		u.rowHit = (float64(ws*m.rowHitStream(p)) + float64(wi*m.rowHitIrregular(p))) / (ws + wi)
	}
	// Bank spread of the unit's own post-L3 traffic: each stream sweeps
	// one bank at a time (rows stripe over banks, a 4-KB page spans half
	// a row), so streaming traffic serialises on ~Streams banks while
	// irregular traffic scatters over the whole array.
	streams := float64(p.Streams)
	if streams < 1 {
		streams = 1
	}
	bankSpread := math.Min(16, streams)
	u.effBanks = float64((1-wIrr)*bankSpread) + float64(wIrr*16)
	// M1 service decomposes per block visit. The first line of a visit
	// hits M1 only if the block is already resident — static placement
	// scatters pages so that is staticFrac; hot-set-tracking migration
	// closes cal.Hot of the gap to the ideal residency. The remaining
	// lines of the visit hit M1 if the scheme migrated the block on the
	// first touch (cal.Spatial — on-access schemes capture this burst,
	// interval-based ones mostly do not).
	resident := residency(p, c1Share)
	first := staticFrac + float64(cal.Hot*(resident-staticFrac))
	spatial := m.spatialFraction(p)
	u.m1f = first + float64((1-first)*cal.Spatial*spatial)
	// Placement (capacity residency, for wear): the migrated share of
	// the footprint sits in M1.
	idealPlace := math.Min(1, c1Share/float64(p.Footprint))
	u.placeM1 = staticFrac + float64(cal.Hot*(idealPlace-staticFrac))
	return u
}

// irregularShare is the fraction of the run's references the generator
// spends in irregular behaviour: 1 for the pointer-chasing patterns, 0
// for pure streams, and the phase-alternation share for Mixed — which
// depends on the run length, because a run shorter than one phase never
// leaves the opening stream phase.
func irregularShare(cfg sim.Config, p trace.Params) float64 {
	switch p.Pattern {
	case trace.PointerChase, trace.StridedRandom:
		return 1
	case trace.Mixed:
	default:
		return 0
	}
	per := float64(p.PhaseRefs)
	if per <= 0 {
		per = float64(p.Footprint) / 64 / 8
		if per < 1024 {
			per = 1024
		}
	}
	gap := float64(p.GapMean) + 1
	refs := float64(cfg.Instructions) / gap
	if refs <= 0 {
		return 0.5 // unknown run length: steady-state alternation
	}
	// Odd-indexed phases are irregular.
	pairs := math.Floor(refs / (2 * per))
	rem := refs - float64(pairs*2*per)
	irr := float64(pairs*per) + math.Max(0, rem-per)
	return irr / refs
}

// spatialFraction is the fraction of a block visit's post-L3 lines that
// follow the first touch: a stream sweeps all 32 lines of a 2-KB block
// consecutively, an irregular touch bursts LinesPerTouch lines.
func (m Model) spatialFraction(p trace.Params) float64 {
	const blockLines = 2048.0 / 64
	frac := func(k float64) float64 {
		if k < 1 {
			k = 1
		}
		if k > blockLines {
			k = blockLines
		}
		return (k - 1) / k
	}
	switch p.Pattern {
	case trace.Stream:
		return frac(blockLines)
	case trace.Mixed:
		return (frac(blockLines) + frac(float64(p.LinesPerTouch))) / 2
	default:
		return frac(float64(p.LinesPerTouch))
	}
}

// l3Stream predicts the L3 hit rate of the streaming behaviour. The
// stream pointer advances one line per visit while a visit touches
// LinesPerTouch consecutive lines, so successive visits overlap in all
// but one line: (k-1)/k of touches re-hit lines of the previous visit
// regardless of footprint. A footprint that fits is simply resident.
func (m Model) l3Stream(p trace.Params, c3Share float64) float64 {
	if float64(p.Footprint) <= c3Share {
		return m.L3FitHit
	}
	k := float64(p.LinesPerTouch)
	if k < 1 {
		k = 1
	}
	h := (k - 1) / k
	if h < m.L3StreamResidual {
		h = m.L3StreamResidual
	}
	if h > m.L3FitHit {
		h = m.L3FitHit
	}
	return h
}

// l3Irregular predicts the L3 hit rate of the irregular behaviour:
// recent-window revisits hit an LRU cache almost surely; the rest hit
// with the residency of their density class, derated for the pollution
// the cold stream inflicts.
func (m Model) l3Irregular(p trace.Params, c3Share float64) float64 {
	h := p.RecentProb + float64((1-p.RecentProb)*residency(p, c3Share))
	h *= m.L3IrrDiscount
	if h > m.L3FitHit {
		h = m.L3FitHit
	}
	return h
}

// residency greedily fills capacity with the program's densest address
// classes (hot region first) and returns the covered access fraction.
func residency(p trace.Params, capacity float64) float64 {
	f := float64(p.Footprint)
	if capacity >= f {
		return 1
	}
	hotBytes := p.HotFrac * f
	hotProb := p.HotProb
	if hotBytes <= 0 || hotProb <= 0 {
		hotBytes, hotProb = 0, 0
	}
	var hit float64
	if hotBytes > 0 {
		cover := math.Min(1, capacity/hotBytes)
		hit += float64(hotProb * cover)
		capacity = math.Max(0, capacity-hotBytes)
	}
	if cold := f - hotBytes; cold > 0 {
		hit += float64((1 - hotProb) * math.Min(1, capacity/cold))
	}
	return hit
}

// rowHitStream predicts the row-buffer locality of interleaved streams:
// each stream sweeps linearly within a 4-KB page (the translation
// granularity) and loses the row at every page crossing; concurrent
// streams parked on the same bank evict each other's rows. The collision
// term is the birthday bound over the 16 banks — the real allocator's
// deterministic placement can be much better or much worse, which the
// RowHitDiscount absorbs on average.
func (m Model) rowHitStream(p trace.Params) float64 {
	const pageLines = 4096.0 / 64.0
	const banks = 16.0
	run := (pageLines - 1) / pageLines
	s := float64(p.Streams)
	if s < 1 {
		s = 1
	}
	collide := 1 - math.Pow(1-1/banks, s-1)
	return run * (1 - collide) * m.RowHitDiscount
}

// rowHitIrregular predicts the row locality of irregular bursts: the
// LinesPerTouch consecutive lines of one visit share a row, the first
// line of each visit opens a new one.
func (m Model) rowHitIrregular(p trace.Params) float64 {
	k := float64(p.LinesPerTouch)
	if k < 1 {
		k = 1
	}
	return (k - 1) / k
}

// contend resolves the mutual dependence between per-reference time and
// channel contention for a set of co-running units by fixed-point
// iteration: latencies inflate with bus and bank utilisation, which
// derives from the reference rates those latencies allow.
func (m Model) contend(units []*unit, cfg sim.Config, t1, t2 mem.Timing, cal SchemeCal) {
	channels := float64(cfg.Channels)
	if channels < 1 {
		channels = 1
	}
	const banks = 16.0
	burst := float64(t1.Burst)
	swapLat := swapLatency(cfg)

	for _, u := range units {
		u.tRef = math.Max(u.frontend, 1)
		u.lamMem = 0
	}
	for iter := 0; iter < 2000; iter++ {
		var maxDelta float64
		// Shared-channel load from the current rates: demand bursts plus
		// the swaps they trigger, which block the whole channel for the
		// full swap latency — the bandwidth drain that makes swap-thrash
		// collapse throughput.
		var busCycles, events float64
		var lam1, lam2, occ1, occ2 float64
		for _, u := range units {
			trig := float64(u.lamMem * (1 - u.m1f) * effSwapsPerMiss(cal, u.p))
			busCycles += float64(u.lamMem*burst) + float64(trig*swapLat)
			events += u.lamMem + trig
			l1 := float64(u.lamMem * u.m1f)
			l2 := float64(u.lamMem * (1 - u.m1f))
			lam1 += l1
			lam2 += l2
			occ1 += float64(l1 * m.bankOccupancy(t1, u))
			occ2 += float64(l2 * m.bankOccupancy(t2, u))
		}
		util := math.Min(0.97, busCycles/channels)
		var meanService float64
		if events > 0 {
			meanService = busCycles / events / channels
		}
		queueWait := m.QueueWeight * meanService * util / (1 - util)
		// Shared bank pressure from the other units' traffic, spread over
		// the whole bank array (independent footprints rarely collide on
		// the same bank deterministically; the birthday term in rowHit
		// covers what they do to each other's rows).
		u1 := math.Min(0.95, occ1/(channels*banks))
		u2 := math.Min(0.95, occ2/(channels*banks))
		var s1, s2 float64
		if lam1 > 0 {
			s1 = occ1 / lam1
		}
		if lam2 > 0 {
			s2 = occ2 / lam2
		}
		bankWait1 := m.BankPressure * s1 * u1 / (1 - u1)
		bankWait2 := m.BankPressure * s2 * u2 / (1 - u2)

		for _, u := range units {
			// Own-traffic bank serialisation: a unit's references land on
			// only effBanks banks (one stream sweeps a single bank at a
			// time), so its own rate alone can saturate them no matter how
			// idle the rest of the array is.
			o1 := m.bankOccupancy(t1, u)
			o2 := m.bankOccupancy(t2, u)
			r1 := math.Min(0.95, u.lamMem*u.m1f*o1/(channels*u.effBanks))
			r2 := math.Min(0.95, u.lamMem*(1-u.m1f)*o2/(channels*u.effBanks))
			own1 := m.BankPressure * o1 * r1 / (1 - r1)
			own2 := m.BankPressure * o2 * r2 / (1 - r2)
			l1 := m.moduleLatency(t1, u) + bankWait1 + own1
			l2 := m.moduleLatency(t2, u) + bankWait2 + own2 + m.M2ExtraLatency
			u.lmem = float64(cfg.L3HitLatency) + float64(u.m1f*l1) + float64((1-u.m1f)*l2) + queueWait
			avg := float64(u.pL3*float64(cfg.L3HitLatency)) + float64((1-u.pL3)*u.lmem)
			memTime := avg * (u.p.DepFrac + (1-u.p.DepFrac)/u.maxOut)
			// The exposed swap cost: a swap blocks the whole channel, but
			// the MLP window amortises the block across the references in
			// flight, so the per-reference exposure shrinks with the
			// program's effective parallelism (the same dep+1/maxOut
			// factor that converts latency to throughput time).
			mlp := u.p.DepFrac + (1-u.p.DepFrac)/u.maxOut
			swapSerial := float64((1 - u.pL3) * (1 - u.m1f) * effSwapsPerMiss(cal, u.p) * cal.SwapStall * swapLat * mlp)
			hi, lo := u.frontend, memTime
			if lo > hi {
				hi, lo = lo, hi
			}
			u.tRef = hi + float64(m.OverlapSlack*lo) + swapSerial
			if u.tRef < 1 {
				u.tRef = 1
			}
			// Relaxation: the rate map is decreasing in the load (more load,
			// more waiting, lower rate), so its fixed point is unique — but
			// near the utilisation cap the map is steep and the undamped
			// iteration orbits a 2-cycle instead of converging. The heavy
			// damping keeps the damped map a contraction there.
			next := (1 - u.pL3) / u.tRef * u.threads
			lam := float64(0.9*u.lamMem) + float64(0.1*next)
			if d := math.Abs(lam-u.lamMem) / math.Max(lam, 1e-12); d > maxDelta {
				maxDelta = d
			}
			u.lamMem = lam
		}
		if iter > 10 && maxDelta < 1e-10 {
			break
		}
	}
}

// effSwapsPerMiss is the scheme's swap rate per M2 demand miss with the
// stream-conflict inflation applied.
func effSwapsPerMiss(cal SchemeCal, p trace.Params) float64 {
	s := float64(p.Streams)
	if s < 1 {
		s = 1
	}
	return cal.SwapsPerMiss * (1 + float64(cal.Conflict*(s-1)))
}

// bankOccupancy is the average time one demand access keeps its bank
// busy in the given module.
func (m Model) bankOccupancy(t mem.Timing, u *unit) float64 {
	occ := float64(t.CL + t.Burst)
	occ += float64((1 - u.rowHit) * float64(t.TRP+t.TRCD))
	occ += float64(u.p.WriteFrac * (1 - u.rowHit) * float64(t.TWR) * m.WriteRecoveryWeight)
	return occ
}

// moduleLatency is the average demand latency of one module for the
// unit's row-locality and write mix.
func (m Model) moduleLatency(t mem.Timing, u *unit) float64 {
	hit := float64(t.CL + t.Burst)
	miss := float64(t.TRP + t.TRCD + t.CL + t.Burst)
	l := float64(u.rowHit*hit) + float64((1-u.rowHit)*miss)
	// Row misses behind a write wait out the bank's write recovery.
	l += float64(u.p.WriteFrac * (1 - u.rowHit) * float64(t.TWR) * m.WriteRecoveryWeight)
	return l
}

// swapLatency mirrors mem.ChannelConfig.SwapLatency for the cell's
// configuration without building channels.
func swapLatency(cfg sim.Config) float64 {
	ch := mem.DefaultChannelConfig(1<<20, 1<<20)
	if cfg.M2TWRFactor > 0 && cfg.M2TWRFactor != 1 {
		ch.M2Timing.TWR = int64(float64(ch.M2Timing.TWR) * cfg.M2TWRFactor)
	}
	return float64(ch.SwapLatency())
}

// trafficMix aggregates the units' demand traffic into fractions.
func trafficMix(units []*unit) TrafficMix {
	var t TrafficMix
	var total float64
	for _, u := range units {
		wf := u.p.WriteFrac
		t.M1Reads += float64(u.lamMem * u.m1f * (1 - wf))
		t.M1Writes += float64(u.lamMem * u.m1f * wf)
		t.M2Reads += float64(u.lamMem * (1 - u.m1f) * (1 - wf))
		t.M2Writes += float64(u.lamMem * (1 - u.m1f) * wf)
		total += u.lamMem
	}
	if total <= 0 {
		return TrafficMix{}
	}
	t.M1Reads /= total
	t.M1Writes /= total
	t.M2Reads /= total
	t.M2Writes /= total
	return t
}

// lifetime projects NVM endurance from the predicted M2 write stream.
func (m Model) lifetime(units []*unit, cfg sim.Config, c2 float64, cal SchemeCal) Lifetime {
	blockBursts := float64((2 << 10) / 64) // swap block write bursts
	var bursts float64                     // M2 write bursts per cycle
	var writtenBytes, skewNum, skewDen float64
	for _, u := range units {
		demand := float64(u.lamMem * (1 - u.m1f) * u.p.WriteFrac)
		swaps := u.lamMem * (1 - u.m1f) * effSwapsPerMiss(cal, u.p)
		w := demand + float64(swaps*blockBursts)
		bursts += w
		// The program's M2-resident bytes absorb its share of the wear;
		// skew concentrates writes on the hot region left in M2.
		resident := float64(float64(u.p.Footprint) * (1 - u.placeM1))
		writtenBytes += resident
		skew := 1.0
		if u.p.HotFrac > 0 && u.p.HotProb > u.p.HotFrac {
			// Migration drains the hot set out of M2; the residue keeps
			// (1-eff) of the static placement's concentration.
			skew = 1 + float64((1-cal.Hot)*(u.p.HotProb/u.p.HotFrac-1))
		}
		skewNum += float64(w * skew)
		skewDen += w
	}
	var lt Lifetime
	if bursts <= 0 || c2 <= 0 {
		return lt
	}
	perSec := bursts * mem.CyclesPerNs * 1e9
	lines := c2 / 64
	lt.M2WriteBurstsPerSecond = perSec
	lt.LifetimeIdealSeconds = mem.EnduranceWrites * lines / perSec

	skew := skewNum / skewDen
	writtenFrac := math.Min(1, writtenBytes/c2)
	if writtenFrac <= 0 {
		writtenFrac = 1 / lines // at least one line wears
	}
	lt.LevelingEfficiency = writtenFrac / skew
	lt.LifetimeSeconds = lt.LifetimeIdealSeconds * lt.LevelingEfficiency
	return lt
}
