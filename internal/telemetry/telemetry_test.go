package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"profess/internal/event"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Every: 0}); err == nil {
		t.Error("zero epoch length must be rejected")
	}
	if _, err := New(Config{Every: 10, Capacity: -1}); err == nil {
		t.Error("negative capacity must be rejected")
	}
	s, err := New(Config{Every: 10})
	if err != nil {
		t.Fatal(err)
	}
	if s.Every() != 10 {
		t.Errorf("Every() = %d, want 10", s.Every())
	}
}

func TestNilSamplerIsNoOp(t *testing.T) {
	var s *Sampler
	s.Gauge("g", func(int64) float64 { return 1 })
	s.Counter("c", func() int64 { return 1 })
	s.Start(&event.Queue{})
	s.Finish(100)
	if s.Len() != 0 || s.Records() != nil || s.Names() != nil || s.Every() != 0 {
		t.Error("nil sampler must report empty state")
	}
	if _, ok := s.Last(); ok {
		t.Error("nil sampler has no last record")
	}
	if err := s.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Error(err)
	}
	if err := s.WriteCSV(&bytes.Buffer{}); err != nil {
		t.Error(err)
	}
}

// workFunc adapts a plain function to event.Handler for tests.
type workFunc func(now int64)

func (f workFunc) HandleEvent(now int64, _ int64, _ any) { f(now) }

// TestSamplingOnCalendar drives a sampler from a real event queue and
// checks epochs, counter deltas and gauge stamps.
func TestSamplingOnCalendar(t *testing.T) {
	q := &event.Queue{}
	s, err := New(Config{Every: 100})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	s.Counter("served", func() int64 { return total })
	s.Gauge("now", func(now int64) float64 { return float64(now) })

	// Simulated work: 1 unit served every 10 cycles for 450 cycles.
	var work workFunc
	work = func(now int64) {
		total++
		if now < 450 {
			q.Schedule(now+10, work, 0, nil)
		}
	}
	q.Schedule(10, work, 0, nil)
	s.Start(q)
	// The tick re-arms itself forever (the sim loop stops by predicate,
	// not queue exhaustion), so stop once the workload is done.
	q.RunUntil(func() bool { return q.Now() >= 450 })
	s.Finish(q.Now())

	recs := s.Records()
	if len(recs) != 5 { // epochs at 100..400 plus the Finish tail at 450
		t.Fatalf("got %d records, want 5", len(recs))
	}
	// The tick's insertion order gives it the lower sequence number, so at
	// a shared cycle the sample runs before the work event: the first
	// epoch sees 9 completed units, later full epochs 10.
	wantDeltas := []float64{9, 10, 10, 10, 6}
	for i, r := range recs[:4] {
		if r.Cycle != int64(100*(i+1)) {
			t.Errorf("record %d at cycle %d, want %d", i, r.Cycle, 100*(i+1))
		}
		if r.Values[0] != wantDeltas[i] {
			t.Errorf("epoch %d served delta %v, want %v", i, r.Values[0], wantDeltas[i])
		}
		if r.Values[1] != float64(r.Cycle) {
			t.Errorf("epoch %d gauge %v, want %v", i, r.Values[1], r.Cycle)
		}
	}
	if tail := recs[4]; tail.Cycle != 450 || tail.Values[0] != 6 {
		t.Errorf("tail record %+v, want cycle 450 with delta 6", tail)
	}
	if last, ok := s.Last(); !ok || last.Epoch != 4 {
		t.Errorf("Last() = %+v, %v", last, ok)
	}
	// Finish at an already-sampled cycle must not duplicate.
	s.Finish(450)
	if s.Len() != 5 {
		t.Errorf("duplicate Finish grew the ring to %d", s.Len())
	}
	if got := s.Value("served"); len(got) != 5 || got[0] != 9 {
		t.Errorf("Value(served) = %v", got)
	}
	if s.Value("missing") != nil {
		t.Error("unknown probe must yield nil")
	}
}

func TestRingEviction(t *testing.T) {
	s, err := New(Config{Every: 10, Capacity: 3})
	if err != nil {
		t.Fatal(err)
	}
	s.Gauge("x", func(now int64) float64 { return float64(now) })
	for c := int64(10); c <= 50; c += 10 {
		s.sample(c)
	}
	if s.Dropped != 2 {
		t.Errorf("Dropped = %d, want 2", s.Dropped)
	}
	recs := s.Records()
	if len(recs) != 3 || recs[0].Cycle != 30 || recs[2].Cycle != 50 {
		t.Errorf("ring holds %+v, want cycles 30..50", recs)
	}
	if recs[0].Epoch != 2 {
		t.Errorf("oldest epoch %d, want 2", recs[0].Epoch)
	}
}

func TestExportFormats(t *testing.T) {
	s, err := New(Config{Every: 10})
	if err != nil {
		t.Fatal(err)
	}
	v := []float64{1.5, 2.5}
	i := 0
	s.Gauge("a.b", func(int64) float64 { x := v[i]; return x })
	s.Counter("c", func() int64 { return int64(10 * (i + 1)) })
	s.sample(10)
	i = 1
	s.sample(20)

	var jl bytes.Buffer
	if err := s.WriteJSONL(&jl); err != nil {
		t.Fatal(err)
	}
	wantJL := `{"epoch":0,"cycle":10,"a.b":1.5,"c":10}` + "\n" +
		`{"epoch":1,"cycle":20,"a.b":2.5,"c":10}` + "\n"
	if jl.String() != wantJL {
		t.Errorf("JSONL:\n%s\nwant:\n%s", jl.String(), wantJL)
	}

	var csv bytes.Buffer
	if err := s.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(csv.String(), "\n"), "\n")
	if len(lines) != 3 || lines[0] != "epoch,cycle,a.b,c" || lines[1] != "0,10,1.5,10" {
		t.Errorf("CSV:\n%s", csv.String())
	}
}

func TestRegisterAfterStartPanics(t *testing.T) {
	s, err := New(Config{Every: 10})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(&event.Queue{})
	defer func() {
		if recover() == nil {
			t.Error("registration after Start must panic")
		}
	}()
	s.Gauge("late", func(int64) float64 { return 0 })
}

func TestManifestJSON(t *testing.T) {
	m := NewManifest()
	m.Scheme = "mdm"
	m.Seed = 7
	m.EpochCycles = 100
	m.Extra = map[string]string{"trace": "x.pftr"}
	var b bytes.Buffer
	if err := m.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{`"scheme": "mdm"`, `"seed": 7`, `"epoch_cycles": 100`, `"trace": "x.pftr"`} {
		if !strings.Contains(out, want) {
			t.Errorf("manifest missing %s:\n%s", want, out)
		}
	}
}
