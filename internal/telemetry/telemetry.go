// Package telemetry is the per-epoch sampling subsystem of the simulator:
// a cycle-domain Sampler that, every N CPU cycles, snapshots a registered
// set of gauges and counters — slowdown factors, swap accept/reject
// counts, exp_cnt tables, STC hit rates, channel queue occupancy,
// resilience state — into an in-memory ring of epoch records, exportable
// as JSONL and CSV with a run manifest written alongside.
//
// The sampler piggybacks on the discrete-event calendar: it schedules one
// tick per epoch and never mutates simulated state, so an enabled sampler
// leaves the simulation's Result bit-identical to a telemetry-off run,
// and a disabled (nil) sampler costs nothing at all — the hot path of the
// simulator contains no telemetry code, only the end-of-run flush is
// guarded by a single pointer check. Every method is nil-safe.
//
// Probe registration must complete before Start; the probe set then fixes
// the record schema (names in registration order).
package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"

	"profess/internal/event"
)

// GaugeFunc reports an instantaneous value at the sampled cycle.
type GaugeFunc func(now int64) float64

// CounterFunc reports a cumulative, monotonically non-decreasing count;
// the sampler records the per-epoch delta.
type CounterFunc func() int64

// Config sizes a Sampler.
type Config struct {
	// Every is the epoch length in CPU cycles (must be positive).
	Every int64
	// Capacity bounds the in-memory epoch ring (DefaultCapacity when 0).
	// When the ring is full the oldest epoch is evicted and counted in
	// Dropped.
	Capacity int
}

// DefaultCapacity is the epoch-ring bound applied when Config.Capacity is
// zero: at the default professim epoch of 10K cycles this holds the last
// ~160M cycles of history in a few MB.
const DefaultCapacity = 16384

// probe is one registered signal.
type probe struct {
	name    string
	gauge   GaugeFunc
	counter CounterFunc
	prev    int64 // last cumulative value (counters only)
}

// Record is one epoch's snapshot. Values align with the sampler's Names.
type Record struct {
	Epoch int64
	Cycle int64
	// Values holds gauges as sampled and counters as per-epoch deltas.
	Values []float64
}

// Sampler collects epoch records. The zero value is not usable; build one
// with New. A nil *Sampler is a valid no-op on every method.
type Sampler struct {
	every    int64
	capacity int
	probes   []probe
	started  bool
	sched    event.Scheduler // set at Start; re-arms the epoch tick

	epoch     int64
	lastCycle int64

	ring  []Record
	head  int // index of the oldest record
	count int

	// Dropped counts epochs evicted from the full ring.
	Dropped int64
}

// New builds a sampler with the given epoch length and ring capacity.
func New(cfg Config) (*Sampler, error) {
	if cfg.Every <= 0 {
		return nil, fmt.Errorf("telemetry: epoch length %d must be positive", cfg.Every)
	}
	if cfg.Capacity < 0 {
		return nil, fmt.Errorf("telemetry: negative ring capacity %d", cfg.Capacity)
	}
	if cfg.Capacity == 0 {
		cfg.Capacity = DefaultCapacity
	}
	return &Sampler{every: cfg.Every, capacity: cfg.Capacity}, nil
}

// Every returns the epoch length in cycles (0 for a nil sampler).
func (s *Sampler) Every() int64 {
	if s == nil {
		return 0
	}
	return s.every
}

// Gauge registers an instantaneous probe under the given name.
func (s *Sampler) Gauge(name string, fn GaugeFunc) {
	if s == nil || fn == nil {
		return
	}
	s.register(probe{name: name, gauge: fn})
}

// Counter registers a cumulative probe; records carry its per-epoch delta.
func (s *Sampler) Counter(name string, fn CounterFunc) {
	if s == nil || fn == nil {
		return
	}
	s.register(probe{name: name, counter: fn})
}

// register appends a probe, enforcing the schema freeze at Start.
func (s *Sampler) register(p probe) {
	if s.started {
		panic("telemetry: probe registered after Start froze the schema")
	}
	s.probes = append(s.probes, p)
}

// Names returns the probe names in registration order (the record schema).
func (s *Sampler) Names() []string {
	if s == nil {
		return nil
	}
	out := make([]string, len(s.probes))
	for i := range s.probes {
		out[i] = s.probes[i].name
	}
	return out
}

// Start schedules the epoch ticks on the event calendar. The tick callback
// only reads probes and re-arms itself, so simulated behaviour is
// unaffected; once the run's stop condition is reached, pending ticks are
// simply abandoned with the rest of the calendar.
func (s *Sampler) Start(sched event.Scheduler) {
	if s == nil || s.started {
		return
	}
	s.started = true
	s.sched = sched
	sched.Schedule(sched.Now()+s.every, s, 0, nil)
}

// HandleEvent implements event.Handler: one epoch tick — sample and re-arm.
func (s *Sampler) HandleEvent(now int64, _ int64, _ any) {
	s.sample(now)
	s.sched.Schedule(now+s.every, s, 0, nil)
}

// Finish takes a final partial-epoch snapshot at the given cycle, so runs
// shorter than one epoch still record one sample and the tail of a run is
// never lost. It is a no-op when the last tick already sampled this cycle.
func (s *Sampler) Finish(now int64) {
	if s == nil || now <= s.lastCycle {
		return
	}
	s.sample(now)
}

// sample snapshots every probe into one epoch record.
func (s *Sampler) sample(now int64) {
	vals := make([]float64, len(s.probes))
	for i := range s.probes {
		p := &s.probes[i]
		if p.counter != nil {
			v := p.counter()
			vals[i] = float64(v - p.prev)
			p.prev = v
		} else {
			vals[i] = p.gauge(now)
		}
	}
	s.push(Record{Epoch: s.epoch, Cycle: now, Values: vals})
	s.epoch++
	s.lastCycle = now
}

// push appends to the ring, evicting the oldest record when full.
func (s *Sampler) push(r Record) {
	if s.count < s.capacity {
		s.ring = append(s.ring, r)
		s.count++
		return
	}
	s.ring[s.head] = r
	s.head = (s.head + 1) % s.capacity
	s.Dropped++
}

// Len returns the number of retained epoch records.
func (s *Sampler) Len() int {
	if s == nil {
		return 0
	}
	return s.count
}

// Records returns the retained epochs, oldest first.
func (s *Sampler) Records() []Record {
	if s == nil || s.count == 0 {
		return nil
	}
	out := make([]Record, 0, s.count)
	for i := 0; i < s.count; i++ {
		out = append(out, s.ring[(s.head+i)%s.count])
	}
	return out
}

// Last returns the most recent record (false when none was taken).
func (s *Sampler) Last() (Record, bool) {
	if s == nil || s.count == 0 {
		return Record{}, false
	}
	return s.ring[(s.head+s.count-1)%s.count], true
}

// Value extracts a named probe's series across the retained epochs.
func (s *Sampler) Value(name string) []float64 {
	if s == nil {
		return nil
	}
	idx := -1
	for i := range s.probes {
		if s.probes[i].name == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil
	}
	recs := s.Records()
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = r.Values[idx]
	}
	return out
}

// formatValue renders a float for JSONL: shortest exact decimal, with the
// non-JSON specials mapped to null.
func formatValue(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "null"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteJSONL writes one JSON object per retained epoch: epoch, cycle, and
// every probe keyed by its registered name, in registration order. The
// encoding is deterministic, so two identical runs produce byte-identical
// output — the property the golden-trace regression tests pin down.
func (s *Sampler) WriteJSONL(w io.Writer) error {
	if s == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, r := range s.Records() {
		bw.WriteString(`{"epoch":`)
		bw.WriteString(strconv.FormatInt(r.Epoch, 10))
		bw.WriteString(`,"cycle":`)
		bw.WriteString(strconv.FormatInt(r.Cycle, 10))
		for i, v := range r.Values {
			bw.WriteByte(',')
			bw.WriteString(strconv.Quote(s.probes[i].name))
			bw.WriteByte(':')
			bw.WriteString(formatValue(v))
		}
		if _, err := bw.WriteString("}\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteCSV writes a header (epoch, cycle, probe names) and one row per
// retained epoch. Specials render as NaN/±Inf, which most tooling accepts.
func (s *Sampler) WriteCSV(w io.Writer) error {
	if s == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	bw.WriteString("epoch,cycle")
	for i := range s.probes {
		bw.WriteByte(',')
		bw.WriteString(s.probes[i].name)
	}
	bw.WriteByte('\n')
	for _, r := range s.Records() {
		bw.WriteString(strconv.FormatInt(r.Epoch, 10))
		bw.WriteByte(',')
		bw.WriteString(strconv.FormatInt(r.Cycle, 10))
		for _, v := range r.Values {
			bw.WriteByte(',')
			bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
