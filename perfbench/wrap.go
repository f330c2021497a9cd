package main

import (
	"time"

	"profess/internal/fault"
	"profess/internal/hybrid"
	"profess/internal/stats"
	"profess/internal/telemetry"
	"profess/internal/trace"
)

// timeEvery is the boundary-timing sample rate: the wrappers count every
// call but time only one in timeEvery, so the clock reads stay a small
// share of a call that costs tens of nanoseconds.
const timeEvery = 64

// boundary tallies one caller-supplied interface: calls counted, a fixed
// 1-in-timeEvery sample of them timed.
type boundary struct {
	calls   int64
	timed   int64
	timedNS int64
}

// add folds another tally in (one per Source instance).
func (b *boundary) add(o boundary) {
	b.calls += o.calls
	b.timed += o.timed
	b.timedNS += o.timedNS
}

// nsPerCall is the mean timed cost of a call minus the cost of timing an
// empty call, clamped at zero.
func (b boundary) nsPerCall(emptyNS float64) float64 {
	if b.timed == 0 {
		return 0
	}
	return max(float64(b.timedNS)/float64(b.timed)-emptyNS, 0)
}

// timingCost measures what the wrappers' timing adds to one call: the
// mean clock-read pair around an empty call.
func timingCost() float64 {
	const n = 1 << 16
	var total int64
	sink := 0
	for i := 0; i < n; i++ {
		t := time.Now()
		sink += emptyCall(i)
		total += int64(time.Since(t))
	}
	emptySink = sink
	return float64(total) / n
}

// emptySink keeps the timed empty calls from being optimised away.
var emptySink int

//go:noinline
func emptyCall(i int) int { return i & 1 }

// countingSource wraps a program's reference stream (ProgramSpec.Source)
// and tallies Next calls. One instance serves one core, so its tally is
// single-goroutine state even on a sharded fleet.
type countingSource struct {
	src trace.Source
	b   boundary
}

func (s *countingSource) Next() trace.Ref {
	s.b.calls++
	if s.b.calls%timeEvery != 0 {
		return s.src.Next()
	}
	t := time.Now()
	r := s.src.Next()
	s.b.timedNS += int64(time.Since(t))
	s.b.timed++
	return r
}

func (s *countingSource) Reset()               { s.src.Reset() }
func (s *countingSource) Footprint() int64     { return s.src.Footprint() }
func (s *countingSource) Params() trace.Params { return s.src.Params() }

// countingPolicy wraps a migration policy and tallies its per-access
// hooks. It forwards the optional interfaces the simulator probes for, so
// a wrapped policy behaves exactly like the bare one.
type countingPolicy struct {
	p hybrid.Policy
	b boundary
}

// tick counts one hook call and reports whether to time it.
func (c *countingPolicy) tick() bool {
	c.b.calls++
	return c.b.calls%timeEvery == 0
}

func (c *countingPolicy) done(t time.Time) {
	c.b.timedNS += int64(time.Since(t))
	c.b.timed++
}

func (c *countingPolicy) Name() string     { return c.p.Name() }
func (c *countingPolicy) WriteWeight() int { return c.p.WriteWeight() }

func (c *countingPolicy) OnAccess(info hybrid.AccessInfo, ctl hybrid.PolicyContext) {
	if !c.tick() {
		c.p.OnAccess(info, ctl)
		return
	}
	t := time.Now()
	c.p.OnAccess(info, ctl)
	c.done(t)
}

func (c *countingPolicy) OnServed(core, region int, private, fromM1 bool) {
	if !c.tick() {
		c.p.OnServed(core, region, private, fromM1)
		return
	}
	t := time.Now()
	c.p.OnServed(core, region, private, fromM1)
	c.done(t)
}

func (c *countingPolicy) OnSTCEvict(core int, qI, qE uint8, count uint32) {
	if !c.tick() {
		c.p.OnSTCEvict(core, qI, qE, count)
		return
	}
	t := time.Now()
	c.p.OnSTCEvict(core, qI, qE, count)
	c.done(t)
}

func (c *countingPolicy) OnSwapDone(region int, private bool, ownerM1, ownerM2 int) {
	if !c.tick() {
		c.p.OnSwapDone(region, private, ownerM1, ownerM2)
		return
	}
	t := time.Now()
	c.p.OnSwapDone(region, private, ownerM1, ownerM2)
	c.done(t)
}

// The simulator probes a policy for these three optional interfaces. The
// wrapper always has them and forwards to the inner policy when it has
// them too; when it does not, the calls are no-ops with the same effect
// as the probe failing (a zero tally, an ignored injector or sampler).

func (c *countingPolicy) ResilienceStats() stats.Resilience {
	if rp, ok := c.p.(interface{ ResilienceStats() stats.Resilience }); ok {
		return rp.ResilienceStats()
	}
	return stats.Resilience{}
}

func (c *countingPolicy) SetFaultInjector(inj *fault.Injector) {
	if fp, ok := c.p.(interface{ SetFaultInjector(*fault.Injector) }); ok {
		fp.SetFaultInjector(inj)
	}
}

func (c *countingPolicy) RegisterTelemetry(s *telemetry.Sampler) {
	if tp, ok := c.p.(interface{ RegisterTelemetry(*telemetry.Sampler) }); ok {
		tp.RegisterTelemetry(s)
	}
}
