package cpu

import (
	"testing"

	"profess/internal/event"
	"profess/internal/trace"
)

// fakeMemory serves every access after a fixed latency and records issue
// times.
type fakeMemory struct {
	sched    *event.Queue
	latency  int64
	issues   []int64
	inflight int
	maxSeen  int
}

func (f *fakeMemory) Access(core int, addr int64, write bool, done event.Handler, token int64) {
	f.issues = append(f.issues, f.sched.Now())
	f.inflight++
	if f.inflight > f.maxSeen {
		f.maxSeen = f.inflight
	}
	f.sched.Schedule(f.sched.Now()+f.latency, f, token, done)
}

// HandleEvent completes one access: p is the access's completion handler.
func (f *fakeMemory) HandleEvent(now int64, token int64, p any) {
	f.inflight--
	p.(event.Handler).HandleEvent(now, token, nil)
}

func genParams(pattern trace.Pattern, gap int32, dep float64) trace.Params {
	return trace.Params{
		Name: "t", Footprint: 1 << 20, Pattern: pattern,
		GapMean: gap, Streams: 4, DepFrac: dep, HotProb: 0.5, HotFrac: 0.2,
		Seed: 5,
	}
}

// identity vmap covering the footprint.
func vmapFor(fp, page int64) []int64 {
	m := make([]int64, fp/page)
	for i := range m {
		m[i] = int64(i)
	}
	return m
}

func buildCore(t *testing.T, p trace.Params, budget int64, mem Memory, q *event.Queue, cfg Config) *Core {
	t.Helper()
	g, err := trace.NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(0, cfg, g, vmapFor(p.Footprint, 4096), 4096, budget, mem, q)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCoreValidation(t *testing.T) {
	q := &event.Queue{}
	fm := &fakeMemory{sched: q, latency: 10}
	g, err := trace.NewGenerator(genParams(trace.Stream, 20, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(0, DefaultConfig(), g, vmapFor(1<<20, 4096), 4096, 0, fm, q); err == nil {
		t.Error("zero budget should fail")
	}
	if _, err := New(0, DefaultConfig(), g, []int64{0}, 4096, 1000, fm, q); err == nil {
		t.Error("undersized vmap should fail")
	}
}

func TestCoreRunsToCompletion(t *testing.T) {
	q := &event.Queue{}
	fm := &fakeMemory{sched: q, latency: 100}
	c := buildCore(t, genParams(trace.Stream, 20, 0), 10_000, fm, q, DefaultConfig())
	done := int64(-1)
	c.Start(func(now int64) { done = now })
	q.RunUntil(func() bool { return done >= 0 })
	c.Stop()
	if done <= 0 {
		t.Fatal("core never finished")
	}
	if c.Instructions() < 10_000 {
		t.Errorf("instructions = %d, want >= budget", c.Instructions())
	}
	if c.FirstRunCycles != done {
		t.Errorf("FirstRunCycles = %d, want %d", c.FirstRunCycles, done)
	}
}

func TestDependentStreamSerialises(t *testing.T) {
	run := func(dep float64) int64 {
		q := &event.Queue{}
		fm := &fakeMemory{sched: q, latency: 500}
		p := genParams(trace.PointerChase, 10, dep)
		p.LinesPerTouch = 1
		c := buildCore(t, p, 5_000, fm, q, DefaultConfig())
		var done int64 = -1
		c.Start(func(now int64) { done = now })
		q.RunUntil(func() bool { return done >= 0 })
		c.Stop()
		return done
	}
	independent := run(0)
	dependent := run(1)
	// Fully dependent chains cannot overlap the 500-cycle latencies; they
	// must be dramatically slower than the independent version.
	if dependent < independent*2 {
		t.Errorf("dependent run (%d) should be much slower than independent (%d)", dependent, independent)
	}
}

func TestMLPWindowBounded(t *testing.T) {
	q := &event.Queue{}
	fm := &fakeMemory{sched: q, latency: 10_000} // force queueing
	cfg := DefaultConfig()
	cfg.MaxOutstanding = 4
	c := buildCore(t, genParams(trace.Stream, 20, 0), 20_000, fm, q, cfg)
	var done int64 = -1
	c.Start(func(now int64) { done = now })
	q.RunUntil(func() bool { return done >= 0 })
	c.Stop()
	if fm.maxSeen > 4 {
		t.Errorf("outstanding reached %d, cap 4", fm.maxSeen)
	}
	if fm.maxSeen < 4 {
		t.Errorf("window underused: max outstanding %d", fm.maxSeen)
	}
}

func TestDerivedMLP(t *testing.T) {
	q := &event.Queue{}
	fm := &fakeMemory{sched: q, latency: 10}
	// ROB 256, gap 20 -> 256/20 = 12 outstanding.
	c := buildCore(t, genParams(trace.Stream, 20, 0), 1000, fm, q, DefaultConfig())
	if c.MaxOutstanding() != 12 {
		t.Errorf("derived MLP = %d, want 12", c.MaxOutstanding())
	}
	// Tiny gaps clamp at 16.
	c2 := buildCore(t, genParams(trace.Stream, 2, 0), 1000, fm, q, DefaultConfig())
	if c2.MaxOutstanding() != 16 {
		t.Errorf("clamped MLP = %d, want 16", c2.MaxOutstanding())
	}
}

func TestRepeatsAfterBudget(t *testing.T) {
	q := &event.Queue{}
	fm := &fakeMemory{sched: q, latency: 50}
	c := buildCore(t, genParams(trace.Stream, 20, 0), 2_000, fm, q, DefaultConfig())
	var first int64 = -1
	c.Start(func(now int64) { first = now })
	// Run well past the first completion: the core must keep repeating.
	q.RunUntil(func() bool { return c.Repeats >= 3 })
	c.Stop()
	if first < 0 || c.Repeats < 3 {
		t.Fatalf("first=%d repeats=%d", first, c.Repeats)
	}
	if c.Instructions() < 3*2000 {
		t.Errorf("instructions = %d across repeats", c.Instructions())
	}
}

func TestStopFreezesCore(t *testing.T) {
	q := &event.Queue{}
	fm := &fakeMemory{sched: q, latency: 50}
	c := buildCore(t, genParams(trace.Stream, 20, 0), 1<<40, fm, q, DefaultConfig())
	c.Start(nil)
	for i := 0; i < 100; i++ {
		q.Step()
	}
	c.Stop()
	issued := len(fm.issues)
	q.Drain()
	if len(fm.issues) > issued {
		t.Errorf("core kept issuing after Stop: %d -> %d", issued, len(fm.issues))
	}
	if !c.Stopped() {
		t.Error("Stopped() should report true")
	}
}

func TestComputeGapPacesIssue(t *testing.T) {
	// With huge gaps and instant memory, issue times are spaced by
	// gap/width cycles.
	q := &event.Queue{}
	fm := &fakeMemory{sched: q, latency: 1}
	p := genParams(trace.Stream, 400, 0)
	c := buildCore(t, p, 4_000, fm, q, DefaultConfig())
	var done int64 = -1
	c.Start(func(now int64) { done = now })
	q.RunUntil(func() bool { return done >= 0 })
	c.Stop()
	if len(fm.issues) < 3 {
		t.Fatal("too few issues")
	}
	gap := fm.issues[2] - fm.issues[1]
	// ~400 instructions at width 4 = ~100 cycles between issues.
	if gap < 50 || gap > 160 {
		t.Errorf("issue spacing = %d cycles, want ~100", gap)
	}
}
