package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"
)

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			n += i * i
		}
	}
	return n
}

// TestProfileDecodeAndAttribute profiles a busy loop in this package and
// checks the decoder finds its samples and charges them to the
// benchmark's own layer.
func TestProfileDecodeAndAttribute(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	emptySink = spin(400 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.attribute()
	if err != nil {
		t.Fatal(err)
	}
	if a.totalNS < int64(100*time.Millisecond) {
		t.Fatalf("profile holds %v of CPU time, want most of 400ms", time.Duration(a.totalNS))
	}
	if share := float64(a.selfNS[layerBench]) / float64(a.totalNS); share < 0.5 {
		t.Fatalf("busy loop got %.0f%% of samples: %v", 100*share, a.selfNS)
	}
	if a.namedShare() < minNamedShare {
		t.Fatalf("named share %.3f below %.2f: %v", a.namedShare(), minNamedShare, a.selfNS)
	}
}

func TestDecodeProfileRejectsTruncated(t *testing.T) {
	// Field 6 (string table), length-delimited, claiming 10 bytes of 2.
	if _, err := decodeProfile([]byte{0x32, 0x0a, 'a', 'b'}); err == nil {
		t.Fatal("truncated message decoded without error")
	}
}

func TestFrameLayer(t *testing.T) {
	for _, tc := range []struct {
		name, file, want string
		library          bool
	}{
		{"profess/internal/mem.(*Channel).pick", "/src/internal/mem/channel.go", "mem", false},
		{"profess/internal/sim.(*System).runSampled.func1", "/src/internal/sim/run_sample.go", "sim", false},
		{"profess/internal/event.(*ShardGroup).Run", "/src/internal/event/shard.go", layerShard, false},
		{"profess/internal/sim.runClustered.func2", "/src/internal/sim/cluster.go", layerShard, false},
		{"profess.(*SweepPlan).ExecuteOpts", "/src/sweep.go", layerRoot, false},
		{"main.(*countingSource).Next", "/src/perfbench/wrap.go", layerBench, false},
		{"runtime.mallocgc", goSrc + "runtime/malloc.go", layerRuntime, false},
		{"runtime.goexit", goSrc + "runtime/asm_amd64.s", layerRuntime, false},
		{"runtime.memmove", goSrc + "runtime/memmove_amd64.s", "", true},
		{"internal/runtime/maps.(*Map).getWithKey", goSrc + "internal/runtime/maps/map.go", "", true},
		{"encoding/json.(*encodeState).marshal", goSrc + "encoding/json/encode.go", "", true},
		// No layer: an unresolved function, a runtime name outside the
		// standard library, and a module that is not this one.
		{"", goSrc + "runtime/proc.go", "", false},
		{"runtime.main", "/elsewhere/proc.go", "", false},
		{"example.com/profess/internal/mem.(*Channel).pick", "/src/internal/mem/channel.go", "", false},
		{"example.com/profess/internal/event.(*ShardGroup).Run", "/src/internal/event/shard.go", "", false},
	} {
		layer, library := frameLayer(pbFunction{name: tc.name, file: tc.file})
		if layer != tc.want || library != tc.library {
			t.Errorf("frameLayer(%q, %q) = %q, %v; want %q, %v", tc.name, tc.file, layer, library, tc.want, tc.library)
		}
	}
}

// simProfile is a profile of one simulator stack under the benchmark's
// main goroutine, with a library leaf on half its time.
func simProfile(simFuncs ...string) *cpuProfile {
	p := &cpuProfile{
		sampleTypes: []string{"samples/count", "cpu/nanoseconds"},
		funcs: map[uint64]pbFunction{
			1: {name: "encoding/json.Marshal", file: goSrc + "encoding/json/encode.go"},
			4: {name: "main.run", file: "/src/perfbench/main.go"},
			5: {name: "runtime.main", file: goSrc + "runtime/proc.go"},
			6: {name: "runtime.goexit", file: goSrc + "runtime/asm_amd64.s"},
		},
		locs: map[uint64][]uint64{1: {1}, 2: {2}, 3: {3}, 4: {4}, 5: {5}, 6: {6}},
		samples: []pbSample{
			{locs: []uint64{1, 2, 3, 4, 5, 6}, values: []int64{1, 10}},
			{locs: []uint64{2, 3, 4, 5, 6}, values: []int64{1, 10}},
		},
	}
	for i, name := range simFuncs {
		p.funcs[uint64(2+i)] = pbFunction{name: name, file: "/src/internal/x.go"}
	}
	return p
}

// TestAttributeNamedShare checks that the named-share gate passes a
// profile of this module's simulator and fails one whose simulator frames
// are unresolved or come from another module path, although the benchmark
// and the runtime still sit at the root of every stack.
func TestAttributeNamedShare(t *testing.T) {
	cache, run := "profess/internal/cache.(*Cache).Access", "profess/internal/sim.(*System).Run"
	unsymbolized := simProfile(cache, run)
	delete(unsymbolized.locs, 2)
	for _, tc := range []struct {
		what  string
		p     *cpuProfile
		share float64
	}{
		{"resolved", simProfile(cache, run), 1},
		{"unresolved function ids", simProfile(), 0},
		{"unsymbolized location", unsymbolized, 0},
		{"foreign module path", simProfile("example.com/"+cache, "example.com/"+run), 0},
	} {
		a, err := tc.p.attribute()
		if err != nil {
			t.Fatal(err)
		}
		if got := a.namedShare(); got != tc.share {
			t.Errorf("%s: named share %.2f, want %.2f: %v", tc.what, got, tc.share, a.selfNS)
		}
	}
}

// TestAttributeDefersLibraryFrames checks that a library leaf frame is
// charged to its nearest named caller and that inclusive probes count a
// sample once.
func TestAttributeDefersLibraryFrames(t *testing.T) {
	p := &cpuProfile{
		sampleTypes: []string{"samples/count", "cpu/nanoseconds"},
		funcs: map[uint64]pbFunction{
			1: {name: "encoding/json.Marshal", file: goSrc + "encoding/json/encode.go"},
			2: {name: "profess/internal/sim.(*System).reset"},
			3: {name: "profess/internal/sim.(*System).fastForward"},
			4: {name: "profess/internal/cache.(*Cache).Access"},
		},
		locs: map[uint64][]uint64{1: {1}, 2: {2}, 3: {4, 3}},
		samples: []pbSample{
			{locs: []uint64{1, 2}, values: []int64{1, 10}},
			{locs: []uint64{3}, values: []int64{1, 5}},
		},
	}
	a, err := p.attribute()
	if err != nil {
		t.Fatal(err)
	}
	if a.totalNS != 15 || a.selfNS["sim"] != 10 || a.selfNS["cache"] != 5 {
		t.Fatalf("attribution %+v", a)
	}
	if a.inclNS[inclusiveFuncs[0]] != 5 || a.inclNS[inclusiveFuncs[1]] != 10 {
		t.Fatalf("inclusive %+v", a.inclNS)
	}
}

func TestJournalSpansAndLeaseGaps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	lines := []string{
		`{"key":"a","status":"claimed","owner":"w1","t":100}`,
		`{"key":"a","status":"done","owner":"w1","t":300}`,
		`{"key":"b","status":"claimed","owner":"w1","t":310}`,
		`{"key":"b","status":"failed","owner":"w1","t":400}`,
		`{"key":"b","status":"claimed","owner":"w1","t":450}`,
		`{"key":"b","status":"done","owner":"w1","t":500}`,
		`{"key":"c","status":"claimed","owner":"w2","t":320}`,
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	spans, err := journalSpans(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 3 || spans[0].done-spans[0].claimed != 200 || spans[2].done-spans[2].claimed != 50 {
		t.Fatalf("spans %+v", spans)
	}
	gaps := leaseGaps(spans)
	if len(gaps) != 2 || gaps[0] != 10 || gaps[1] != 50 {
		t.Fatalf("gaps %v", gaps)
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := &tracer{}
	tr.spans = []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Parent: 2, Name: "c", Start: 15, End: 20},
	}
	tr.fillSelf()
	want := []int64{50, 25, 30, 5}
	for i, s := range tr.spans {
		if s.Self != want[i] {
			t.Errorf("span %s self %d, want %d", s.Name, s.Self, want[i])
		}
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("ignored"))
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if m := median(xs); m != 2.5 {
		t.Fatalf("median %v", m)
	}
	if q := quantile(xs, 0.95); q < 3.8 || q > 3.9 {
		t.Fatalf("p95 %v", q)
	}
	if xs[0] != 4 {
		t.Fatal("quantile sorted its input in place")
	}
}

func TestVariantOf(t *testing.T) {
	for seed, want := range map[int64]int{0: 0, 1: 1, 2: 0, 7: 1, -1: 1} {
		if got := variantOf(seed); got != want {
			t.Errorf("variantOf(%d) = %d, want %d", seed, got, want)
		}
	}
}

// TestMetricNamesMatch keeps BENCHMARK.json's metric lists and the
// metrics the benchmark prints in step.
func TestMetricNamesMatch(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, listed []struct{ Name, Unit string }, printed map[string]string) {
		got := map[string]string{}
		for _, m := range listed {
			got[m.Name] = m.Unit
		}
		var diff []string
		for n, u := range printed {
			if got[n] != u {
				diff = append(diff, n+" ("+u+") not listed")
			}
		}
		for n := range got {
			if _, ok := printed[n]; !ok {
				diff = append(diff, n+" listed but not printed")
			}
		}
		sort.Strings(diff)
		if len(diff) > 0 {
			t.Errorf("%s: %s", what, strings.Join(diff, "; "))
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestHostSeconds checks that the host time is the median over the
// successful repetitions only.
func TestHostSeconds(t *testing.T) {
	s := time.Second
	outs := []*outcome{{wall: 3 * s}, {wall: 2 * s}, {wall: 4 * s}, {wall: s, failed: 1}, {wall: 5 * s}}
	if got, ok := hostSeconds(outs); got != 3.5 || len(ok) != 4 {
		t.Errorf("%v s from %d, want 3.5 s from 4", got, len(ok))
	}
	if got, ok := hostSeconds(outs[3:4]); !math.IsNaN(got) || ok != nil {
		t.Errorf("no successful repetition: %v s from %v", got, ok)
	}
}

func TestHostProbe(t *testing.T) {
	p, err := newHostProbe()
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	p.sampleAfter(0)
	if len(p.samples) != 1 || p.samples[0] <= 0 {
		t.Fatalf("one sample wanted, got %v", p.samples)
	}
	start := time.Now()
	p.sampleAfter(4 * time.Second)
	if took := time.Since(start); took < time.Duration(probeShare*float64(4*time.Second)) {
		t.Errorf("probe sampled for %v, want at least %v", took, probeShare*4)
	}
	if got, want := p.slowdown(), median(p.samples)/probeNominal.Seconds(); got != want || got <= 0 {
		t.Errorf("slowdown %v, want %v", got, want)
	}
}
