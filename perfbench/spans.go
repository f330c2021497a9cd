package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call the benchmark made into the simulator, or one
// sweep cell rebuilt from the sweep journal. Times are nanoseconds since
// the tracer started; Parent 0 means a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Self is the span's duration minus the part of it its children
	// cover, filled in when the spans are written.
	Self int64 `json:"self_ns"`
}

// tracer keeps spans in memory. A nil tracer records nothing, so the
// untraced passes call the same code with no cost beyond a nil check.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span IDs; the top is the parent of the next span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span nested under the innermost open one and returns its
// ID for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: t.now()})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = t.now()
	if n := len(t.open); n > 0 && t.open[n-1] == id {
		t.open = t.open[:n-1]
	}
}

// add records an already-finished span (a sweep cell from the journal)
// under parent, converting wall-clock UnixNano stamps to the tracer's
// time base.
func (t *tracer) add(parent int, name string, startUnix, endUnix int64) {
	if t == nil {
		return
	}
	base := t.t0.UnixNano()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: startUnix - base, End: endUnix - base})
}

// durations returns the durations of every span with the given name, in
// recording order.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// fillSelf computes each span's self time: its duration minus the union
// of its children's intervals clipped to it. Children of one parent are
// sequential in the benchmark's own spans but may overlap for journal
// cells of a multi-worker sweep, hence the union.
func (t *tracer) fillSelf() {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		covered := int64(0)
		cur := s.Start
		// Children are recorded in start order, which is what the sweep
		// over cur needs.
		for _, c := range children[s.ID] {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		s.Self = (s.End - s.Start) - covered
	}
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	t.fillSelf()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
