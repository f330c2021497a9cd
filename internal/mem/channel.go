package mem

import (
	"fmt"
	"math"
	"math/bits"

	"profess/internal/event"
	"profess/internal/fault"
	"profess/internal/telemetry"
)

// ChannelConfig describes one memory channel: an M1 module and an M2 module
// sharing a 64-bit data bus (the Intel Purley-style arrangement of §2.2).
type ChannelConfig struct {
	M1Timing Timing
	M2Timing Timing
	M1Geom   Geometry
	M2Geom   Geometry
	// RowHitCap is FR-FCFS-Cap's limit on consecutive row-buffer hits a
	// bank may enjoy before losing scheduling priority (Table 8: 4).
	RowHitCap int
	// BlockBytes is the migration block size (Table 8: 2 KB); it sets the
	// number of 64-B bursts a swap moves per block.
	BlockBytes int64
}

// DefaultChannelConfig returns a channel with Table 8 timings and the given
// per-channel module capacities.
func DefaultChannelConfig(m1Capacity, m2Capacity int64) ChannelConfig {
	return ChannelConfig{
		M1Timing:   DefaultM1Timing(),
		M2Timing:   DefaultM2Timing(),
		M1Geom:     GeometryForCapacity(m1Capacity),
		M2Geom:     GeometryForCapacity(m2Capacity),
		RowHitCap:  4,
		BlockBytes: 2 << 10,
	}
}

// Timing returns the timing parameters for the given partition.
func (c ChannelConfig) Timing(k Kind) Timing {
	if k == M1 {
		return c.M1Timing
	}
	return c.M2Timing
}

// Geom returns the geometry for the given partition.
func (c ChannelConfig) Geom(k Kind) Geometry {
	if k == M1 {
		return c.M1Geom
	}
	return c.M2Geom
}

// SwapLatency returns the analytic latency of one fast swap (§4.1): read
// both 2-KB blocks into the swap buffers, then write them back to the
// opposite modules. Read latencies partially overlap; the shared data bus
// serialises the bursts; the M1 write overlaps M2's long write recovery.
// With Table 8 values this is 796.25 ns (2548 CPU cycles), matching the
// paper's analytic number.
func (c ChannelConfig) SwapLatency() int64 {
	n := c.BlockBytes / 64 // bursts per block
	t1, t2 := c.M1Timing, c.M2Timing
	m1ReadDone := t1.TRP + t1.TRCD + t1.CL + n*t1.Burst
	m2DataStart := t2.TRP + t2.TRCD + t2.CL
	if m1ReadDone > m2DataStart {
		m2DataStart = m1ReadDone
	}
	m2ReadDone := m2DataStart + n*t2.Burst
	// Write phase: the 32 bursts to M2 go first, then M2's write recovery,
	// which hides both the M1 write bursts and M1's recovery.
	return m2ReadDone + n*t2.Burst + t2.TWR
}

// qent is one waiting request in its bank's queue, with the keys pick
// compares kept inline so the scan walks contiguous memory instead of
// chasing a *Request per element.
type qent struct {
	r   *Request
	seq int64 // channel-wide enqueue order: age across banks
	row int64
}

// maxBanks bounds the banks per partition: one bit each in Channel.ready.
const maxBanks = 64

type bank struct {
	openRow            int64 // -1 when closed
	busyUntil          int64 // earliest next column/activate command
	writeRecoveryUntil int64 // earliest precharge after the last write
	hitStreak          int
	inflight           bool
	refreshSeen        int64 // last refresh window applied to this bank
	// [refClearAt, refNextAt) spans the part of the bank's current refresh
	// window where an access needs no refresh bookkeeping at all — the
	// common case, reduced to two compares instead of a 64-bit division.
	refClearAt int64
	refNextAt  int64
	// queue holds the bank's waiting requests in age order.
	queue []qent
}

// Channel models one memory channel: two module bank arrays, a shared data
// bus, an FR-FCFS-Cap scheduler and swap blocking. It is not safe for
// concurrent use; the discrete-event engine serialises all calls.
type Channel struct {
	cfg   ChannelConfig
	sched event.Scheduler
	inj   *fault.Injector

	banks  [2][]bank
	timing [2]Timing // per-kind timings, resolved once at build
	// ready marks, per partition, the banks that have waiting requests
	// and nothing in flight: the only banks pick has to look at.
	ready        [2]uint64
	queued       int // requests waiting in the bank queues
	busFreeAt    int64
	blockedUntil int64 // swaps block the whole channel
	nextSeq      int64
	refCounted   [2]int64 // refresh windows accounted per partition

	// Counts tallies served events for energy and figure-of-merit use.
	Counts EventCounts
	// BusBusyCycles accumulates data-bus occupancy (demand bursts only).
	BusBusyCycles int64
	// m2RowWrites tallies write bursts per M2 row (bank-major) for wear
	// and lifetime reporting; see wear.go.
	m2RowWrites []int64
	// QueueDepthSamples support average-queue-depth reporting.
	queueDepthSum int64
	queueSamples  int64
}

// NewChannel builds a channel bound to the given event scheduler.
func NewChannel(cfg ChannelConfig, sched event.Scheduler) *Channel {
	if cfg.RowHitCap <= 0 {
		cfg.RowHitCap = 4
	}
	ch := &Channel{cfg: cfg, sched: sched}
	ch.timing = [2]Timing{cfg.Timing(Kind(0)), cfg.Timing(Kind(1))}
	for k := 0; k < 2; k++ {
		g := ch.cfg.Geom(Kind(k))
		if g.Banks > maxBanks {
			panic(fmt.Sprintf("mem: %v has %d banks, the scheduler supports at most %d", Kind(k), g.Banks, maxBanks))
		}
		ch.banks[k] = make([]bank, g.Banks)
		for i := range ch.banks[k] {
			ch.banks[k][i].openRow = -1
		}
	}
	g2 := ch.cfg.M2Geom
	ch.m2RowWrites = make([]int64, int64(g2.Banks)*g2.RowsPerBank)
	return ch
}

// Config returns the channel's configuration.
func (ch *Channel) Config() ChannelConfig { return ch.cfg }

// Reset returns the channel to its just-built state: banks closed and
// idle, bus free, queue empty, every counter zeroed, fault injector
// disarmed. Queued *Request references are dropped (the owning scheduler
// is reset alongside), and backing arrays are kept for reuse.
func (ch *Channel) Reset() {
	for k := 0; k < 2; k++ {
		for i := range ch.banks[k] {
			b := &ch.banks[k][i]
			clear(b.queue)
			*b = bank{openRow: -1, queue: b.queue[:0]}
		}
	}
	ch.ready = [2]uint64{}
	ch.queued = 0
	ch.busFreeAt = 0
	ch.blockedUntil = 0
	ch.nextSeq = 0
	ch.refCounted = [2]int64{}
	ch.Counts = EventCounts{}
	ch.BusBusyCycles = 0
	clear(ch.m2RowWrites)
	ch.queueDepthSum, ch.queueSamples = 0, 0
	ch.inj = nil
}

// SetFaultInjector arms the channel with a fault injector (nil disarms).
// The channel draws NVM transient failures per M2 demand burst and stall
// episodes per enqueue.
func (ch *Channel) SetFaultInjector(inj *fault.Injector) { ch.inj = inj }

// QueueLen returns the number of requests waiting (not yet issued to banks).
func (ch *Channel) QueueLen() int { return ch.queued }

// AvgQueueDepth returns the mean queue depth sampled at every enqueue.
func (ch *Channel) AvgQueueDepth() float64 {
	if ch.queueSamples == 0 {
		return 0
	}
	return float64(ch.queueDepthSum) / float64(ch.queueSamples)
}

// RegisterTelemetry registers the channel's signals under the given name
// prefix with a per-epoch sampler: instantaneous queue occupancy,
// data-bus busy cycles and per-partition demand traffic.
func (ch *Channel) RegisterTelemetry(s *telemetry.Sampler, prefix string) {
	s.Gauge(prefix+".queue", func(int64) float64 { return float64(ch.queued) })
	s.Counter(prefix+".bus_busy", func() int64 { return ch.BusBusyCycles })
	s.Counter(prefix+".m1_demand", func() int64 {
		return ch.Counts.Reads[M1] + ch.Counts.Writes[M1]
	})
	s.Counter(prefix+".m2_demand", func() int64 {
		return ch.Counts.Reads[M2] + ch.Counts.Writes[M2]
	})
	s.Counter(prefix+".swaps", func() int64 { return ch.Counts.Swaps })
	s.Counter(prefix+".m2_wear_writes", func() int64 {
		return ch.Counts.Writes[M2] + ch.Counts.SwapWrites[M2]
	})
}

// Channel event kinds for the typed scheduling path.
const (
	chEvComplete int64 = iota // p = *Request whose data burst completed
	chEvDispatch              // retry dispatch after a swap block clears
)

// HandleEvent implements event.Handler: the channel receives its own burst
// completions and deferred dispatch retries as typed events, so the hot
// path schedules no closures.
func (ch *Channel) HandleEvent(now int64, i int64, p any) {
	switch i {
	case chEvComplete:
		r := p.(*Request)
		b := &ch.banks[r.Module][r.Bank]
		b.inflight = false
		if len(b.queue) > 0 {
			ch.ready[r.Module] |= 1 << uint(r.Bank)
		}
		if r.Done != nil {
			r.Done.RequestDone(now, r)
		}
		ch.tryDispatch(now)
	case chEvDispatch:
		ch.tryDispatch(now)
	}
}

// Enqueue admits a request to the channel at the current time and attempts
// to dispatch. The request's Done, if set, fires when its data burst
// completes.
func (ch *Channel) Enqueue(r *Request) {
	now := ch.sched.Now()
	r.Arrival = now
	ch.nextSeq++
	b := &ch.banks[r.Module][r.Bank]
	b.queue = append(b.queue, qent{r: r, seq: ch.nextSeq, row: r.Row})
	if !b.inflight {
		ch.ready[r.Module] |= 1 << uint(r.Bank)
	}
	ch.queued++
	ch.queueDepthSum += int64(ch.queued)
	ch.queueSamples++
	if ch.inj.Fire(fault.ChannelStall) {
		// A stall episode wedges the scheduler: nothing dispatches until
		// it clears. In-flight bursts complete normally.
		end := now + ch.inj.Plan().EffectiveStallCycles()
		if end > ch.blockedUntil {
			ch.blockedUntil = end
		}
	}
	ch.tryDispatch(now)
}

// tryDispatch issues every schedulable request per FR-FCFS-Cap: prefer the
// oldest row-buffer-hitting request whose bank streak is under the cap;
// otherwise the oldest request overall. A bank holds at most one in-flight
// request so bank-level parallelism is preserved while the shared bus
// serialises data bursts.
func (ch *Channel) tryDispatch(now int64) {
	if now < ch.blockedUntil {
		// The channel is blocked by a swap; retry when it unblocks.
		ch.sched.Schedule(ch.blockedUntil, ch, chEvDispatch, nil)
		return
	}
	for ch.ready != [2]uint64{} {
		b, pos := ch.pick()
		q := b.queue
		r := q[pos].r
		n := len(q) - 1
		copy(q[pos:], q[pos+1:])
		q[n] = qent{} // drop the stale *Request reference
		b.queue = q[:n]
		ch.queued--
		ch.sched.Schedule(ch.issue(now, r), ch, chEvComplete, r)
	}
}

// pick returns the bank and queue position of the request to issue next;
// callers ensure some bank is ready. Only ready banks compete: each offers
// its oldest row hit while its streak is under the cap, and its oldest
// request; the oldest offered hit wins, else the oldest request. Age
// across banks is the channel-wide enqueue order, so this is exactly the
// request a scan of all waiting requests in age order would pick.
func (ch *Channel) pick() (*bank, int) {
	var hitB, oldB *bank
	hitPos := 0
	hitSeq, oldSeq := int64(math.MaxInt64), int64(math.MaxInt64)
	cap := ch.cfg.RowHitCap
	for k := range ch.ready {
		for m := ch.ready[k]; m != 0; m &= m - 1 {
			b := &ch.banks[k][bits.TrailingZeros64(m)]
			if b.hitStreak < cap {
				for pos := range b.queue {
					e := &b.queue[pos]
					if e.seq >= hitSeq {
						break // the queue is in age order: no older hit follows
					}
					if e.row == b.openRow {
						hitB, hitPos, hitSeq = b, pos, e.seq
						break
					}
				}
			}
			if s := b.queue[0].seq; s < oldSeq {
				oldB, oldSeq = b, s
			}
		}
	}
	if hitB != nil {
		return hitB, hitPos
	}
	return oldB, 0
}

// refresh applies the refresh-window bookkeeping shared by the event-driven
// and functional paths: a command starting inside a window's TRFC stall is
// pushed past it, and any refresh since the bank's last use closes its rows
// and is counted (once per channel, via refCounted). The per-bank
// [refClearAt, refNextAt) memo marks the span of the bank's current window
// where none of that can apply, so the common repeat access costs two
// compares instead of a division; whenever refreshSeen was set to win the
// refCounted update ran in the same block, so the fast path can never skip
// a counter increment.
func (ch *Channel) refresh(k Kind, t *Timing, b *bank, start int64) int64 {
	if t.TREFI <= 0 {
		return start
	}
	if start >= b.refClearAt && start < b.refNextAt {
		return start
	}
	win := start / t.TREFI
	if rEnd := win*t.TREFI + t.TRFC; start < rEnd && win > 0 {
		start = rEnd
	}
	if win > b.refreshSeen {
		b.refreshSeen = win
		b.openRow = -1
		b.hitStreak = 0
	}
	if win > ch.refCounted[k] {
		ch.Counts.Refreshes[k] += win - ch.refCounted[k]
		ch.refCounted[k] = win
	}
	b.refNextAt = (win + 1) * t.TREFI
	if win > 0 {
		b.refClearAt = win*t.TREFI + t.TRFC
	} else {
		b.refClearAt = 0
	}
	return start
}

// issue performs the timing computation for one request leaving its bank
// queue at now and returns the cycle its data burst completes.
func (ch *Channel) issue(now int64, r *Request) int64 {
	done := ch.burst(r.Module, r.Bank, r.Row, r.IsWrite, now)
	ch.banks[r.Module][r.Bank].inflight = true
	ch.ready[r.Module] &^= 1 << uint(r.Bank)
	// NVM transients: an M2 demand burst may fail after paying its full
	// timing; the submitter sees Faulted and decides whether to retry.
	if r.Module == M2 && r.Core >= 0 {
		if r.IsWrite {
			r.Faulted = ch.inj.Fire(fault.NVMWriteTransient)
		} else {
			r.Faulted = ch.inj.Fire(fault.NVMReadTransient)
		}
	}
	return done
}

// burst books one 64-B burst to a row of bank bankIdx in partition k,
// starting no earlier than start or the bank's own busy horizon, and
// returns the cycle its data burst completes. It is the bank timing both
// the event-driven path (issue) and the functional path (FunctionalAccess)
// charge: refresh, row hit or precharge + activate, CL, the shared bus,
// write recovery, the event counts and M2 wear.
func (ch *Channel) burst(k Kind, bankIdx int, row int64, write bool, start int64) int64 {
	t := &ch.timing[k]
	b := &ch.banks[k][bankIdx]
	if b.busyUntil > start {
		start = b.busyUntil
	}
	// Refresh: landing inside a refresh window stalls past it; any
	// refresh since the bank's last use closed its rows.
	start = ch.refresh(k, t, b, start)
	if b.openRow == row {
		ch.Counts.RowHits[k]++
		b.hitStreak++
	} else {
		ch.Counts.RowMisses[k]++
		if b.openRow >= 0 {
			// Precharge the open row; respect write recovery.
			if b.writeRecoveryUntil > start {
				start = b.writeRecoveryUntil
			}
			start += t.TRP
			ch.Counts.Precharges[k]++
		}
		start += t.TRCD
		ch.Counts.Activates[k]++
		b.openRow = row
		b.hitStreak = 0
	}
	// Column command -> data on the bus. Writes use CL as CWL.
	dataAt := start + t.CL
	if dataAt < ch.busFreeAt {
		dataAt = ch.busFreeAt
	}
	done := dataAt + t.Burst
	ch.busFreeAt = done
	ch.BusBusyCycles += t.Burst
	b.busyUntil = done
	if write {
		b.writeRecoveryUntil = done + t.TWR
		ch.Counts.Writes[k]++
		if k == M2 {
			ch.noteM2Write(bankIdx, row, 1)
		}
	} else {
		ch.Counts.Reads[k]++
	}
	return done
}

// FunctionalAccess serves one 64-B access without the event-driven
// scheduler: the fast-forward path of the sampled execution mode. It
// charges the same burst as issue(), but no completion event is scheduled
// and the FR-FCFS queue is bypassed: requests are charged in arrival order
// against the bank and bus occupancy the channel carries at `now`, which
// is the closed-form latency estimate: the unloaded timing plus the
// (bounded) residual backlog. Two things differ from issue(): the charge
// starts no earlier than the swap-blocking horizon, which issue() never
// runs inside, and the backlog it leaves behind is clamped (below).
// Because it reads and extends the same busFreeAt/busyUntil state the
// detailed mode uses, occupancy carries seamlessly across the
// detailed/fast-forward boundary in both directions; the backlog bound is
// what keeps that hand-off honest. Returns the access latency in cycles.
// Fault injection does not apply (faults fire only in detailed windows).
func (ch *Channel) FunctionalAccess(k Kind, bankIdx int, row int64, write bool, now int64) int64 {
	start := now
	if ch.blockedUntil > start {
		start = ch.blockedUntil
	}
	done := ch.burst(k, bankIdx, row, write, start)
	// Bound the backlog. Functional arrivals are paced by measured IPC,
	// not by completions, so nothing throttles them when they momentarily
	// exceed the channel's service rate — without a bound the occupancy
	// horizons would drift arbitrarily far ahead of the functional clock
	// and poison the next detailed window with a phantom queue the real
	// machine never builds (the cores' outstanding-request limit throttles
	// it). One worst-case service beyond `now` is the most demand backlog a
	// functional charge may leave behind.
	//
	// Swap blocking is different: it is real, seconds-scale channel
	// unavailability the detailed machine also builds (a swap blocks the
	// whole channel for SwapLatency and nothing about a core throttles it),
	// so the demand clamp must never cut into the swap horizon — erasing it
	// makes fast-forward spans nearly swap-free and the detailed windows
	// absorb the deferred blocking as phantom extra contention. The swap
	// horizon has its own bound in ffClampSwapHorizon.
	t := &ch.timing[k]
	b := &ch.banks[k][bankIdx]
	lead := now + t.TRP + t.TRCD + t.CL + t.Burst + t.TWR
	if ch.blockedUntil > lead {
		lead = ch.blockedUntil
	}
	if ch.busFreeAt > lead {
		ch.busFreeAt = lead
	}
	if b.busyUntil > lead {
		b.busyUntil = lead
	}
	if b.writeRecoveryUntil > lead {
		b.writeRecoveryUntil = lead
	}
	return done - now
}

// ffSwapLeads bounds how far the swap-blocking horizon may run ahead of
// the functional clock, in whole swap latencies: the real machine's
// negative feedback (a blocked channel stalls cores, fewer accesses
// trigger fewer swaps) caps the swap queue at about this depth, and the
// paced functional arrivals lack that feedback.
const ffSwapLeads = 2

// ffClampSwapHorizon applies the swap-horizon bound after a functional
// swap charge.
func (ch *Channel) ffClampSwapHorizon(now int64) {
	lead := now + ffSwapLeads*ch.cfg.SwapLatency()
	if ch.blockedUntil > lead {
		ch.blockedUntil = lead
	}
	if ch.busFreeAt > lead {
		ch.busFreeAt = lead
	}
}

// FunctionalSwap performs one block swap functionally at time `now`: the
// same counts, wear tallies and bank perturbation as Swap, with the
// blocking horizon folded into the occupancy state instead of an event.
func (ch *Channel) FunctionalSwap(m1Loc, m2Loc SwapLocation, now int64) {
	ch.chargeSwap(m1Loc, m2Loc, now)
	ch.ffClampSwapHorizon(now)
}

// Quiesced reports whether the channel holds no queued or in-flight
// requests — the precondition for entering a fast-forward span.
func (ch *Channel) Quiesced() bool {
	if ch.queued != 0 {
		return false
	}
	for k := 0; k < 2; k++ {
		for i := range ch.banks[k] {
			if ch.banks[k][i].inflight {
				return false
			}
		}
	}
	return true
}

// SwapLocation names one 2-KB block's physical placement for a swap.
type SwapLocation struct {
	Module Kind
	Bank   int
	Row    int64
}

// Swap blocks the channel for one block swap between the given M1 and M2
// locations and counts the component traffic. When the swap completes,
// done (if non-nil) receives HandleEvent(now, token, nil) and then the
// channel dispatches the requests that queued behind it, in one event.
// It returns the completion time. Per §4.1 the channel is blocked for the
// whole swap and row-buffer state of the involved banks is perturbed (we
// close their rows).
func (ch *Channel) Swap(m1Loc, m2Loc SwapLocation, done event.Handler, token int64) int64 {
	end := ch.chargeSwap(m1Loc, m2Loc, ch.sched.Now())
	ch.sched.Schedule(end, (*swapEnd)(ch), token, done)
	return end
}

// chargeSwap books one block swap starting no earlier than now and returns
// its completion time: the channel and bus are blocked until then, the
// component traffic and M2 wear are counted, and both banks' rows close.
func (ch *Channel) chargeSwap(m1Loc, m2Loc SwapLocation, now int64) int64 {
	start := now
	if ch.busFreeAt > start {
		start = ch.busFreeAt
	}
	if ch.blockedUntil > start {
		start = ch.blockedUntil
	}
	end := start + ch.cfg.SwapLatency()
	ch.blockedUntil = end
	ch.busFreeAt = end
	ch.Counts.Swaps++
	ch.Counts.SwapBusy += end - start

	n := ch.cfg.BlockBytes / 64
	ch.Counts.SwapReads[M1] += n
	ch.Counts.SwapReads[M2] += n
	ch.Counts.SwapWrites[M1] += n
	ch.Counts.SwapWrites[M2] += n
	ch.noteM2Write(m2Loc.Bank, m2Loc.Row, n)
	// One activation per involved row on each side (block = quarter row at
	// Table 8 sizes, but a swap touches each block's row once per phase).
	ch.Counts.Activates[M1]++
	ch.Counts.Activates[M2]++

	for _, loc := range [2]SwapLocation{m1Loc, m2Loc} {
		b := &ch.banks[loc.Module][loc.Bank]
		b.openRow = -1
		b.hitStreak = 0
		if b.busyUntil < end {
			b.busyUntil = end
		}
	}
	return end
}

// swapEnd is a Channel receiving its swap completions: i carries the
// submitter's token and p its completion handler. Being the channel
// itself under another method set, it costs no allocation to schedule.
type swapEnd Channel

// HandleEvent implements event.Handler.
func (s *swapEnd) HandleEvent(now int64, token int64, p any) {
	if done, ok := p.(event.Handler); ok {
		done.HandleEvent(now, token, nil)
	}
	(*Channel)(s).tryDispatch(now)
}

// String summarises the channel state.
func (ch *Channel) String() string {
	return fmt.Sprintf("channel{queue=%d busFree=%d blocked=%d swaps=%d}",
		ch.queued, ch.busFreeAt, ch.blockedUntil, ch.Counts.Swaps)
}
