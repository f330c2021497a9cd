package hybrid

import (
	"fmt"
	"math/bits"

	"profess/internal/event"
	"profess/internal/fault"
	"profess/internal/mem"
	"profess/internal/stats"
	"profess/internal/telemetry"
)

// CoreStats aggregates per-program controller-level statistics.
type CoreStats struct {
	Served    int64 // demand accesses served
	ServedM1  int64 // demand accesses served from M1
	Reads     int64
	Writes    int64
	ReadLat   int64 // sum of read latencies (submit -> data)
	ReadCount int64
	STCHits   int64
	STCMisses int64
	Swaps     int64 // swaps triggered by this program's accesses
}

// AvgReadLatency returns the mean read latency in cycles.
func (s CoreStats) AvgReadLatency() float64 {
	if s.ReadCount == 0 {
		return 0
	}
	return float64(s.ReadLat) / float64(s.ReadCount)
}

// M1Fraction returns the fraction of demand accesses served from M1.
func (s CoreStats) M1Fraction() float64 {
	if s.Served == 0 {
		return 0
	}
	return float64(s.ServedM1) / float64(s.Served)
}

// STCHitRate returns the program's STC hit rate.
func (s CoreStats) STCHitRate() float64 {
	t := s.STCHits + s.STCMisses
	if t == 0 {
		return 0
	}
	return float64(s.STCHits) / float64(t)
}

// ControllerConfig sizes the hybrid memory controller.
type ControllerConfig struct {
	Layout Layout
	// STCEntries is the total STC capacity in entries across all channels
	// (Table 8: 64 KB / 8 B = 8K entries at full scale).
	STCEntries int
	STCWays    int
	NumCores   int
	// ModelSTTraffic, when true, issues the M1 reads/writebacks for
	// Swap-group Table misses and dirty evictions (§2.2/§3.2.1). Disabled
	// only by ablation studies.
	ModelSTTraffic bool

	// RetryMax bounds how many times a transiently-failed NVM burst is
	// re-issued before the controller gives up (0 = DefaultRetryMax).
	RetryMax int
	// RetryBackoff is the delay before the first re-issue, in cycles;
	// each further retry doubles it (0 = DefaultRetryBackoff).
	RetryBackoff int64
}

// DefaultRetryMax and DefaultRetryBackoff are the §-free engineering
// defaults of the transient-fault tolerance: up to 3 re-issues, starting
// 64 cycles after the failed burst and doubling (64, 128, 256).
const (
	DefaultRetryMax     = 3
	DefaultRetryBackoff = 64
)

// Controller is the hardware memory-side of the simulated system: it owns
// the channels, the authoritative Swap-group Table, the STCs, and runs the
// plugged migration policy. All methods must be called from the
// discrete-event loop (single goroutine).
type Controller struct {
	cfg    ControllerConfig
	layout Layout
	sched  event.Scheduler
	chans  []*mem.Channel
	stcs   []*STC
	alloc  *Allocator
	policy Policy

	// Authoritative ST state, indexed [group*slots+slot].
	slots int64   // locations per group (layout.Slots())
	perm  []uint8 // slot -> location
	qac   []uint8 // persisted QAC per slot
	m1    []uint8 // per group: slot currently resident in M1

	swapping  []bool                // per group: a swap is in flight
	pendingST map[int64][]*accessOp // STC-miss coalescing (MSHR-style)

	// Freelists keep the steady-state hot path allocation-free: access
	// records, ST fill/writeback records and pendingST waiter slices are
	// recycled instead of garbage-collected. Single-threaded by the same
	// rule as the rest of the controller.
	opFree  []*accessOp
	stFree  []*stFillOp
	stwFree []*stWriteOp
	cbFree  [][]*accessOp

	Cores     []CoreStats
	STReads   int64
	STWrites  int64
	SwapsDone int64

	// inj, when armed, corrupts QAC values moving through the ST.
	inj *fault.Injector
	// Resilience tallies the controller's fault tolerance (retries of
	// transiently-failed NVM bursts, drops past the retry budget).
	Resilience stats.Resilience

	// readHist tracks per-core read-latency distributions (64-cycle
	// buckets up to 16K cycles), for tail-latency reporting.
	readHist []*stats.Histogram

	// xl holds the precomputed shift/mask forms of the layout's divisors
	// and geo the per-channel bank/row decompositions: address translation
	// runs on every demand access, and int64 divides dominate it otherwise.
	xl  xlat
	geo [][2]geoX

	// ffNow is the functional clock while a FunctionalAccess is in
	// progress (-1 otherwise). It routes the shared eviction and swap
	// paths onto their event-free variants during fast-forward spans of
	// the sampled execution mode.
	ffNow int64
	// ffSwaps queues swaps the policy requested during a FunctionalAccess;
	// they commit after the access, mirroring the event path where the
	// swap trails the access that triggered it.
	ffSwaps []ffSwap
}

// ffSwap is one deferred functional swap request.
type ffSwap struct {
	group int64
	slot  int
}

// shiftOf returns log2(v) when v is a positive power of two, else -1
// (selecting the divide fallback in the translation fast path).
func shiftOf(v int64) int {
	if v <= 0 || v&(v-1) != 0 {
		return -1
	}
	return bits.TrailingZeros64(uint64(v))
}

// xlat is the precomputed translation arithmetic of a Layout. Every
// divisor the per-access path needs is expressed as a shift/mask when it
// is a power of two (the configurations in use all are); the -1 sentinel
// falls back to the general divide so exotic layouts stay correct.
type xlat struct {
	blockShift int
	blockMask  int64
	blockBytes int64
	groupShift int
	groupMask  int64
	groups     int64
	chanShift  int
	chanMask   int64
	channels   int64
	regShift   int // blocksPerPage shift (group -> page index)
	regPow2    bool
	regMask    int64
	regions    int64
	bpp        int64
	gpc        int64 // groups per channel
}

func newXlat(l Layout) xlat {
	bpp := int64(l.BlocksPerPage())
	return xlat{
		blockShift: shiftOf(l.BlockBytes),
		blockMask:  l.BlockBytes - 1,
		blockBytes: l.BlockBytes,
		groupShift: shiftOf(l.Groups),
		groupMask:  l.Groups - 1,
		groups:     l.Groups,
		chanShift:  shiftOf(int64(l.Channels)),
		chanMask:   int64(l.Channels) - 1,
		channels:   int64(l.Channels),
		regShift:   shiftOf(bpp),
		regPow2:    shiftOf(int64(l.Regions)) >= 0,
		regMask:    int64(l.Regions) - 1,
		regions:    int64(l.Regions),
		bpp:        bpp,
		gpc:        l.GroupsPerChannel(),
	}
}

func (x *xlat) block(addr int64) int64 {
	if x.blockShift >= 0 {
		return addr >> uint(x.blockShift)
	}
	return addr / x.blockBytes
}

func (x *xlat) blockOffset(addr int64) int64 {
	if x.blockShift >= 0 {
		return addr & x.blockMask
	}
	return addr % x.blockBytes
}

func (x *xlat) group(block int64) int64 {
	if x.groupShift >= 0 {
		return block & x.groupMask
	}
	return block % x.groups
}

func (x *xlat) slot(block int64) int {
	if x.groupShift >= 0 {
		return int(block >> uint(x.groupShift))
	}
	return int(block / x.groups)
}

func (x *xlat) channel(group int64) int {
	if x.chanShift >= 0 {
		return int(group & x.chanMask)
	}
	return int(group % x.channels)
}

func (x *xlat) localGroup(group int64) int64 {
	if x.chanShift >= 0 {
		return group >> uint(x.chanShift)
	}
	return group / x.channels
}

func (x *xlat) region(group int64) int {
	page := group
	if x.regShift >= 0 {
		page >>= uint(x.regShift)
	} else {
		page /= x.bpp
	}
	if x.regPow2 {
		return int(page & x.regMask)
	}
	return int(page % x.regions)
}

// locationOf mirrors Layout.LocationOf on the precomputed constants.
func (x *xlat) locationOf(group int64, loc int) Location {
	lg := x.localGroup(group)
	if loc == 0 {
		return Location{Module: mem.M1, ByteAddr: lg * x.blockBytes}
	}
	idx := int64(loc-1)*x.gpc + lg
	return Location{Module: mem.M2, ByteAddr: idx * x.blockBytes}
}

// geoX is a Geometry with its decomposition divisors pre-resolved.
type geoX struct {
	rowShift  int
	rowBytes  int64
	bankShift int
	bankMask  int64
	banks     int64
}

func newGeoX(g mem.Geometry) geoX {
	return geoX{
		rowShift:  shiftOf(g.RowBytes),
		rowBytes:  g.RowBytes,
		bankShift: shiftOf(int64(g.Banks)),
		bankMask:  int64(g.Banks) - 1,
		banks:     int64(g.Banks),
	}
}

func (x *geoX) decompose(addr int64) (bank int, row int64) {
	var rowIdx int64
	if x.rowShift >= 0 {
		rowIdx = addr >> uint(x.rowShift)
	} else {
		rowIdx = addr / x.rowBytes
	}
	if x.bankShift >= 0 {
		return int(rowIdx & x.bankMask), rowIdx >> uint(x.bankShift)
	}
	return int(rowIdx % x.banks), rowIdx / x.banks
}

// NewController wires the controller to its channels and event scheduler.
func NewController(cfg ControllerConfig, chans []*mem.Channel, alloc *Allocator, policy Policy, sched event.Scheduler) (*Controller, error) {
	l := cfg.Layout
	if len(chans) != l.Channels {
		return nil, fmt.Errorf("hybrid: %d channels configured, %d provided", l.Channels, len(chans))
	}
	if cfg.STCEntries <= 0 || cfg.STCEntries%l.Channels != 0 {
		return nil, fmt.Errorf("hybrid: STC entries %d not divisible across %d channels", cfg.STCEntries, l.Channels)
	}
	if l.Slots() > MaxSlots {
		return nil, fmt.Errorf("hybrid: %d locations per group exceed the hardware bound %d", l.Slots(), MaxSlots)
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = DefaultRetryMax
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = DefaultRetryBackoff
	}
	c := &Controller{
		cfg:       cfg,
		layout:    l,
		sched:     sched,
		chans:     chans,
		alloc:     alloc,
		policy:    policy,
		slots:     int64(l.Slots()),
		perm:      make([]uint8, l.Groups*int64(l.Slots())),
		qac:       make([]uint8, l.Groups*int64(l.Slots())),
		m1:        make([]uint8, l.Groups),
		swapping:  make([]bool, l.Groups),
		pendingST: make(map[int64][]*accessOp),
		Cores:     make([]CoreStats, cfg.NumCores),
		ffNow:     -1,
	}
	for i := 0; i < cfg.NumCores; i++ {
		c.readHist = append(c.readHist, stats.NewHistogram(256, 0, 64))
	}
	// Identity initial mapping: slot s sits at location s, so slot 0 (the
	// first ninth of the OS address space per group) starts in M1.
	for g := int64(0); g < l.Groups; g++ {
		for s := int64(0); s < c.slots; s++ {
			c.perm[g*c.slots+s] = uint8(s)
		}
	}
	for ch := 0; ch < l.Channels; ch++ {
		stc, err := NewSTC(cfg.STCEntries/l.Channels, cfg.STCWays, int64(l.Channels))
		if err != nil {
			return nil, err
		}
		c.stcs = append(c.stcs, stc)
	}
	c.xl = newXlat(l)
	for _, ch := range chans {
		chCfg := ch.Config()
		c.geo = append(c.geo, [2]geoX{
			mem.M1: newGeoX(chCfg.M1Geom),
			mem.M2: newGeoX(chCfg.M2Geom),
		})
	}
	return c, nil
}

// Layout returns the controller's layout.
func (c *Controller) Layout() Layout { return c.layout }

// SetFaultInjector arms the controller with a fault injector (nil
// disarms): QAC values moving through the Swap-group Table may corrupt.
func (c *Controller) SetFaultInjector(inj *fault.Injector) { c.inj = inj }

// Policy returns the plugged migration policy.
func (c *Controller) Policy() Policy { return c.policy }

// Reset returns the controller to its just-built state for a new run of
// the same shape under a fresh policy: identity block mapping, cleared
// QACs and M1 residency, empty STCs, zeroed per-core statistics and
// latency histograms, fault injector disarmed. The freelists and the
// precomputed translation tables are kept — that reuse is the point.
// Waiter slices still parked in pendingST (possible after an aborted run)
// are banked back into the recycling pool; the access records they held
// are dropped along with the event calendar that owned them.
func (c *Controller) Reset(policy Policy) {
	for g := int64(0); g < c.layout.Groups; g++ {
		for s := int64(0); s < c.slots; s++ {
			c.perm[g*c.slots+s] = uint8(s)
		}
	}
	clear(c.qac)
	clear(c.m1)
	clear(c.swapping)
	for g, waiters := range c.pendingST {
		c.putWaiters(waiters)
		delete(c.pendingST, g)
	}
	clear(c.Cores)
	c.STReads, c.STWrites, c.SwapsDone = 0, 0, 0
	c.Resilience = stats.Resilience{}
	for _, h := range c.readHist {
		h.Reset()
	}
	for _, s := range c.stcs {
		s.Reset()
	}
	c.policy = policy
	c.inj = nil
	c.ffNow = -1
	c.ffSwaps = c.ffSwaps[:0]
}

// Channels returns the controller's channels.
func (c *Controller) Channels() []*mem.Channel { return c.chans }

// STCs returns the per-channel Swap-group Table Caches.
func (c *Controller) STCs() []*STC { return c.stcs }

// STCHitRate returns the aggregate STC hit rate.
func (c *Controller) STCHitRate() float64 {
	var h, m int64
	for _, s := range c.stcs {
		h += s.Hits
		m += s.Misses
	}
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// permAt returns the location of (group, slot).
func (c *Controller) permAt(group int64, slot int) int {
	return int(c.perm[group*c.slots+int64(slot)])
}

// qacAt returns the persisted QAC array of a group.
func (c *Controller) qacAt(group int64) [MaxSlots]uint8 {
	var out [MaxSlots]uint8
	copy(out[:], c.qac[group*c.slots:group*c.slots+c.slots])
	return out
}

// M1Slot implements PolicyContext.
func (c *Controller) M1Slot(group int64) int { return int(c.m1[group]) }

// LocationIndex returns the current location index of block (group, slot):
// 0 means the block resides in M1. Exposed for tests and instrumentation.
func (c *Controller) LocationIndex(group int64, slot int) int { return c.permAt(group, slot) }

// ReadLatencyQuantile returns the approximate q-quantile of a core's read
// latency distribution, in cycles.
func (c *Controller) ReadLatencyQuantile(core int, q float64) float64 {
	return c.readHist[core].Quantile(q)
}

// Owner implements PolicyContext.
func (c *Controller) Owner(group int64, slot int) int { return c.alloc.Owner(group, slot) }

// SwapLatency implements PolicyContext.
func (c *Controller) SwapLatency() int64 { return c.chans[0].Config().SwapLatency() }

// ReadLatencyGap implements PolicyContext: the M2-M1 unloaded 64-B read
// latency difference (123.75 ns with Table 8 timings).
func (c *Controller) ReadLatencyGap() int64 {
	cfg := c.chans[0].Config()
	return cfg.M2Timing.ReadMissLatency() - cfg.M1Timing.ReadMissLatency()
}

// accessOp is the pooled per-access record of one demand access moving
// through the controller. It replaces the chain of closures the previous
// Submit/serve allocated per access: the embedded Request is what the
// channel queues, the record is the request's completion sink (mem.Doner)
// and its own retry timer (event.Handler), so a steady-state access
// allocates nothing.
type accessOp struct {
	c        *Controller
	core     int
	group    int64
	slot     int
	chIdx    int
	origAddr int64
	write    bool
	submitAt int64
	attempt  int
	done     event.Handler // handler-based completion (zero-alloc path)
	token    int64
	onDone   func(now, latency int64) // closure-based completion (compat)
	req      mem.Request
}

// newOp checks an access record out of the freelist.
func (c *Controller) newOp(core int, origAddr int64, write bool) *accessOp {
	var op *accessOp
	if n := len(c.opFree); n > 0 {
		op = c.opFree[n-1]
		c.opFree = c.opFree[:n-1]
	} else {
		op = new(accessOp)
	}
	block := c.xl.block(origAddr)
	op.c = c
	op.core = core
	op.group = c.xl.group(block)
	op.slot = c.xl.slot(block)
	op.chIdx = c.xl.channel(op.group)
	op.origAddr = origAddr
	op.write = write
	op.submitAt = c.sched.Now()
	op.attempt = 0
	return op
}

// releaseOp returns a completed record to the freelist, dropping payload
// references so they do not outlive the access.
func (c *Controller) releaseOp(op *accessOp) {
	*op = accessOp{}
	c.opFree = append(c.opFree, op)
}

// RequestDone implements mem.Doner: the access's data burst completed.
// Transient NVM failures are retried with bounded exponential backoff; the
// observed latency then includes every failed attempt. Past the retry
// budget the burst is dropped — counted, and completed so the pipeline
// does not wedge (the simulated data is synthetic anyway).
func (op *accessOp) RequestDone(now int64, r *mem.Request) {
	c := op.c
	if r.Faulted && op.attempt < c.cfg.RetryMax {
		op.attempt++
		c.Resilience.Retries++
		c.sched.Schedule(now+c.cfg.RetryBackoff<<(op.attempt-1), op, 0, nil)
		return
	}
	if r.Faulted {
		c.Resilience.Drops++
	}
	if !op.write {
		cs := &c.Cores[op.core]
		cs.ReadLat += now - op.submitAt
		cs.ReadCount++
		c.readHist[op.core].Add(float64(now - op.submitAt))
	}
	latency := now - op.submitAt
	done, token, onDone := op.done, op.token, op.onDone
	c.releaseOp(op)
	if done != nil {
		done.HandleEvent(now, token, nil)
	} else if onDone != nil {
		onDone(now, latency)
	}
}

// HandleEvent implements event.Handler for the retry backoff timer: the
// transiently-failed burst is re-issued to the channel.
func (op *accessOp) HandleEvent(int64, int64, any) {
	op.req.Faulted = false
	op.c.chans[op.chIdx].Enqueue(&op.req)
}

// stFillOp is the pooled record of one Swap-group Table line fill (the M1
// read an STC miss issues). first is the access that triggered the miss;
// coalesced followers wait in pendingST.
type stFillOp struct {
	c     *Controller
	first *accessOp
	req   mem.Request
}

// RequestDone implements mem.Doner: the ST line arrived, fill the STC and
// drain the waiters.
func (f *stFillOp) RequestDone(int64, *mem.Request) {
	c, first := f.c, f.first
	*f = stFillOp{}
	c.stFree = append(c.stFree, f)
	c.fillGroup(first)
}

// stWriteOp is the pooled record of one dirty Swap-group Table writeback;
// its only completion duty is returning itself to the freelist.
type stWriteOp struct {
	c   *Controller
	req mem.Request
}

// RequestDone implements mem.Doner.
func (w *stWriteOp) RequestDone(int64, *mem.Request) {
	*w = stWriteOp{c: w.c}
	w.c.stwFree = append(w.c.stwFree, w)
}

// takeWaiters checks a pendingST waiter slice out of the recycling pool
// (nil when none is banked — map presence is what marks the group busy).
func (c *Controller) takeWaiters() []*accessOp {
	if n := len(c.cbFree); n > 0 {
		s := c.cbFree[n-1]
		c.cbFree = c.cbFree[:n-1]
		return s
	}
	return nil
}

// putWaiters banks a drained waiter slice's capacity for reuse.
func (c *Controller) putWaiters(s []*accessOp) {
	if cap(s) == 0 {
		return
	}
	for i := range s {
		s[i] = nil
	}
	c.cbFree = append(c.cbFree, s[:0])
}

// Submit admits one 64-B demand access at the original physical address.
// onDone (optional) fires when the data burst completes, with the total
// latency from submission. This is the closure-based compatibility
// surface; hot paths use SubmitHandler.
func (c *Controller) Submit(core int, origAddr int64, write bool, onDone func(now, latency int64)) {
	op := c.newOp(core, origAddr, write)
	op.onDone = onDone
	c.submit(op)
}

// SubmitHandler is the zero-allocation variant of Submit: completion is
// delivered as done.HandleEvent(now, token, nil) on a pre-bound handler
// instead of a freshly-allocated closure.
func (c *Controller) SubmitHandler(core int, origAddr int64, write bool, done event.Handler, token int64) {
	op := c.newOp(core, origAddr, write)
	op.done = done
	op.token = token
	c.submit(op)
}

func (c *Controller) submit(op *accessOp) {
	stc := c.stcs[op.chIdx]
	if e := stc.Lookup(op.group); e != nil {
		c.Cores[op.core].STCHits++
		c.serve(op, e)
		return
	}
	c.Cores[op.core].STCMisses++
	// Coalesce concurrent misses to the same group (MSHR-style).
	if waiters, busy := c.pendingST[op.group]; busy {
		c.pendingST[op.group] = append(waiters, op)
		return
	}
	c.pendingST[op.group] = c.takeWaiters()
	if !c.cfg.ModelSTTraffic {
		c.fillGroup(op)
		return
	}
	c.STReads++
	var f *stFillOp
	if n := len(c.stFree); n > 0 {
		f = c.stFree[n-1]
		c.stFree = c.stFree[:n-1]
	} else {
		f = new(stFillOp)
	}
	f.c = c
	f.first = op
	bank, row := c.geo[op.chIdx][mem.M1].decompose(c.layout.STLineAddr(op.group))
	f.req = mem.Request{Module: mem.M1, Bank: bank, Row: row, Core: -1, Done: f}
	c.chans[op.chIdx].Enqueue(&f.req)
}

// fillGroup installs a group's ST line into the STC and serves the access
// that missed plus every coalesced waiter.
func (c *Controller) fillGroup(first *accessOp) {
	group, chIdx := first.group, first.chIdx
	stc := c.stcs[chIdx]
	qac := c.qacAt(group)
	if c.inj.Fire(fault.QACCorruption) {
		// ST metadata corrupted on the fill path: one QAC value of this
		// entry arrives scrambled (possibly out of range — the monitoring
		// layer's sanity checks are the defense).
		s := c.inj.Intn(int(c.slots))
		qac[s] = c.inj.CorruptByte(qac[s])
	}
	if ev := stc.Insert(group, qac); ev != nil {
		c.handleEviction(chIdx, ev)
	}
	c.serve(first, stc.Peek(group))
	waiters := c.pendingST[group]
	delete(c.pendingST, group)
	for _, w := range waiters {
		c.serve(w, stc.Peek(group))
	}
	c.putWaiters(waiters)
}

// serve translates and issues the demand access, updates counters, and
// consults the migration policy.
func (c *Controller) serve(op *accessOp, e *STCEntry) {
	loc := c.permAt(op.group, op.slot)
	weight := 1
	if op.write {
		weight = c.policy.WriteWeight()
	}
	e.Bump(op.slot, weight)

	region := c.xl.region(op.group)
	private := c.alloc.IsPrivate(op.core, region)
	fromM1 := loc == 0
	cs := &c.Cores[op.core]
	cs.Served++
	if fromM1 {
		cs.ServedM1++
	}
	if op.write {
		cs.Writes++
	} else {
		cs.Reads++
	}
	c.policy.OnServed(op.core, region, private, fromM1)
	c.policy.OnAccess(AccessInfo{
		Now:   c.sched.Now(),
		Core:  op.core,
		Group: op.group,
		Slot:  op.slot,
		Loc:   loc,
		Write: op.write,
		Entry: e,
	}, c)

	location := c.xl.locationOf(op.group, loc)
	offset := c.xl.blockOffset(op.origAddr)
	bank, row := c.geo[op.chIdx][location.Module].decompose(location.ByteAddr + offset)
	op.req = mem.Request{Module: location.Module, Bank: bank, Row: row, IsWrite: op.write, Core: op.core, Done: op}
	c.chans[op.chIdx].Enqueue(&op.req)
}

// handleEviction persists QAC updates, feeds MDM statistics, and issues
// the dirty ST writeback. During a fast-forward span (ffNow >= 0) the
// writeback is charged functionally instead of enqueued. ev is the STC's
// own record: it is consumed here, before any further Insert or FlushAll
// on that STC can reuse it.
func (c *Controller) handleEviction(chIdx int, ev *STCEviction) {
	for _, b := range ev.Blocks {
		qE := QuantizeCount(b.Count)
		if c.inj.Fire(fault.QACCorruption) {
			// ST metadata corrupted on the writeback path: the persisted
			// QAC and the statistics update both see the scrambled value.
			qE = c.inj.CorruptByte(qE)
		}
		c.qac[ev.Group*c.slots+int64(b.Slot)] = qE
		owner := c.alloc.Owner(ev.Group, b.Slot)
		if owner >= 0 {
			c.policy.OnSTCEvict(owner, b.QInsert, qE, b.Count)
		}
	}
	if ev.Dirty && c.cfg.ModelSTTraffic {
		c.STWrites++
		bank, row := c.geo[chIdx][mem.M1].decompose(c.layout.STLineAddr(ev.Group))
		if c.ffNow >= 0 {
			c.chans[chIdx].FunctionalAccess(mem.M1, bank, row, true, c.ffNow)
			return
		}
		var w *stWriteOp
		if n := len(c.stwFree); n > 0 {
			w = c.stwFree[n-1]
			c.stwFree = c.stwFree[:n-1]
		} else {
			w = &stWriteOp{c: c}
		}
		w.req = mem.Request{Module: mem.M1, Bank: bank, Row: row, IsWrite: true, Core: -1, Done: w}
		c.chans[chIdx].Enqueue(&w.req)
	}
}

// FunctionalAccess serves one demand access entirely without events — the
// fast-forward path of the sampled execution mode. The access runs the
// same semantic pipeline as Submit: STC lookup (miss → ST line fill charge
// + install + eviction), QAC bump, per-core counters, policy OnServed /
// OnAccess, translation through the live permutation, and a channel charge
// at the translated location — so every piece of state that carries
// history (STC contents, QACs, policy counters, swap-group residency,
// wear) keeps warming exactly as it would under the cycle model. Only the
// timing is approximate: the returned latency is the channel's closed-form
// occupancy estimate, and swaps requested by the policy commit
// synchronously after the access. Fault injection for NVM transients and
// stalls does not run here (those faults fire only inside detailed
// windows); ST-metadata faults still fire whenever ST lines move.
func (c *Controller) FunctionalAccess(core int, origAddr int64, write bool, now int64) int64 {
	c.ffNow = now
	block := c.xl.block(origAddr)
	group := c.xl.group(block)
	slot := c.xl.slot(block)
	chIdx := c.xl.channel(group)
	stc := c.stcs[chIdx]

	var fillLat int64
	e := stc.Lookup(group)
	if e != nil {
		c.Cores[core].STCHits++
	} else {
		c.Cores[core].STCMisses++
		if c.cfg.ModelSTTraffic {
			c.STReads++
			bank, row := c.geo[chIdx][mem.M1].decompose(c.layout.STLineAddr(group))
			fillLat = c.chans[chIdx].FunctionalAccess(mem.M1, bank, row, false, now)
		}
		qac := c.qacAt(group)
		if ev := stc.Insert(group, qac); ev != nil {
			c.handleEviction(chIdx, ev)
		}
		e = stc.Peek(group)
	}

	loc := c.permAt(group, slot)
	weight := 1
	if write {
		weight = c.policy.WriteWeight()
	}
	e.Bump(slot, weight)

	region := c.xl.region(group)
	private := c.alloc.IsPrivate(core, region)
	fromM1 := loc == 0
	cs := &c.Cores[core]
	cs.Served++
	if fromM1 {
		cs.ServedM1++
	}
	if write {
		cs.Writes++
	} else {
		cs.Reads++
	}
	c.policy.OnServed(core, region, private, fromM1)
	c.policy.OnAccess(AccessInfo{
		Now:   now,
		Core:  core,
		Group: group,
		Slot:  slot,
		Loc:   loc,
		Write: write,
		Entry: e,
	}, c)

	location := c.xl.locationOf(group, loc)
	offset := c.xl.blockOffset(origAddr)
	bank, row := c.geo[chIdx][location.Module].decompose(location.ByteAddr + offset)
	// The channel charge warms occupancy, wear and event counts; its
	// latency estimate is returned to the caller but deliberately kept out
	// of the per-core read-latency statistics, which report only
	// cycle-accurate samples from detailed windows.
	lat := fillLat + c.chans[chIdx].FunctionalAccess(location.Module, bank, row, write, now+fillLat)
	if len(c.ffSwaps) > 0 {
		c.drainFFSwaps(now)
	}
	c.ffNow = -1
	return lat
}

// drainFFSwaps commits every swap the policy requested during the current
// FunctionalAccess, with the channel charged functionally.
func (c *Controller) drainFFSwaps(now int64) {
	for i := 0; i < len(c.ffSwaps); i++ {
		s := c.ffSwaps[i]
		chIdx := c.layout.Channel(s.group)
		c.chans[chIdx].FunctionalSwap(c.swapLocation(chIdx, s.group, 0),
			c.swapLocation(chIdx, s.group, c.permAt(s.group, s.slot)), now)
		c.commitSwap(s.group, s.slot)
	}
	c.ffSwaps = c.ffSwaps[:0]
}

// swapLocation resolves location loc of group to the bank and row a swap
// touches on channel chIdx.
func (c *Controller) swapLocation(chIdx int, group int64, loc int) mem.SwapLocation {
	l := c.xl.locationOf(group, loc)
	bank, row := c.geo[chIdx][l.Module].decompose(l.ByteAddr)
	return mem.SwapLocation{Module: l.Module, Bank: bank, Row: row}
}

// commitSwap completes the swap of block (group, slot) with the group's M1
// resident: the promoted block moves to location 0 and the demoted block
// to the promoted block's old location; then the swap counters, the STC
// entry and the policy learn of it.
func (c *Controller) commitSwap(group int64, slot int) {
	loc := c.permAt(group, slot)
	m1Slot := int(c.m1[group])
	c.perm[group*c.slots+int64(slot)] = 0
	c.perm[group*c.slots+int64(m1Slot)] = uint8(loc)
	c.m1[group] = uint8(slot)
	c.swapping[group] = false
	c.SwapsDone++
	c.stcs[c.layout.Channel(group)].MarkDirty(group)

	region := c.layout.Region(group)
	private := c.alloc.IsAnyPrivate(region)
	ownerM1 := c.alloc.Owner(group, m1Slot)
	ownerM2 := c.alloc.Owner(group, slot)
	if ownerM2 >= 0 && ownerM2 < len(c.Cores) {
		c.Cores[ownerM2].Swaps++
	}
	c.policy.OnSwapDone(region, private, ownerM1, ownerM2)
}

// HandleEvent implements event.Handler: a swap ScheduleSwap started on a
// channel completed. The token is the promoted block's index,
// group*slots + slot.
func (c *Controller) HandleEvent(_ int64, token int64, _ any) {
	c.commitSwap(token/c.slots, int(token%c.slots))
}

// Quiesced reports whether the controller holds no in-flight state — no
// coalesced ST misses waiting on fills and no queued or in-flight channel
// requests. After the event calendar drains this always holds; exposed so
// the sampled run loop can assert the fast-forward precondition.
func (c *Controller) Quiesced() bool {
	if len(c.pendingST) != 0 {
		return false
	}
	for _, ch := range c.chans {
		if !ch.Quiesced() {
			return false
		}
	}
	return true
}

// ScheduleSwap implements PolicyContext: swap block (group, slot) with the
// group's M1 resident. The channel is blocked for the swap duration; the
// mapping is updated when the swap completes.
func (c *Controller) ScheduleSwap(group int64, slot int) bool {
	if c.swapping[group] {
		return false
	}
	loc := c.permAt(group, slot)
	if loc == 0 {
		return false
	}
	c.swapping[group] = true
	if c.ffNow >= 0 {
		// Fast-forward span: defer to drainFFSwaps, which commits the swap
		// functionally right after the access that requested it.
		c.ffSwaps = append(c.ffSwaps, ffSwap{group: group, slot: slot})
		return true
	}
	chIdx := c.layout.Channel(group)
	c.chans[chIdx].Swap(c.swapLocation(chIdx, group, 0), c.swapLocation(chIdx, group, loc),
		c, group*c.slots+int64(slot))
	return true
}

// RegisterTelemetry registers the controller's signals with a per-epoch
// sampler: per-program served/M1-served/swap counts, STC hit behaviour,
// Swap-group Table traffic, and the NVM retry/drop resilience state.
func (c *Controller) RegisterTelemetry(s *telemetry.Sampler) {
	for i := range c.Cores {
		i := i
		s.Counter(fmt.Sprintf("p%d.served", i), func() int64 { return c.Cores[i].Served })
		s.Counter(fmt.Sprintf("p%d.served_m1", i), func() int64 { return c.Cores[i].ServedM1 })
		s.Counter(fmt.Sprintf("p%d.swaps", i), func() int64 { return c.Cores[i].Swaps })
	}
	s.Counter("stc.hits", func() int64 {
		var h int64
		for _, stc := range c.stcs {
			h += stc.Hits
		}
		return h
	})
	s.Counter("stc.misses", func() int64 {
		var m int64
		for _, stc := range c.stcs {
			m += stc.Misses
		}
		return m
	})
	s.Gauge("stc.hit_rate", func(int64) float64 { return c.STCHitRate() })
	s.Counter("st.reads", func() int64 { return c.STReads })
	s.Counter("st.writes", func() int64 { return c.STWrites })
	s.Counter("swaps.done", func() int64 { return c.SwapsDone })
	s.Counter("resil.retries", func() int64 { return c.Resilience.Retries })
	s.Counter("resil.drops", func() int64 { return c.Resilience.Drops })
}

// FlushSTCs drains all STC entries (end of simulation) so the final QAC
// updates and MDM statistics are accounted for.
func (c *Controller) FlushSTCs() {
	for chIdx, stc := range c.stcs {
		stc.FlushAll(func(ev *STCEviction) { c.handleEviction(chIdx, ev) })
	}
}

// Counts sums the channel event counters.
func (c *Controller) Counts() mem.EventCounts {
	var total mem.EventCounts
	for _, ch := range c.chans {
		total.Add(ch.Counts)
	}
	return total
}

var _ PolicyContext = (*Controller)(nil)
