package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"reflect"
	"runtime"
	"strings"
)

// The CPU profile is decoded here rather than through a pprof library so
// the benchmark adds no module dependency. Only the profile.proto fields
// attribution needs are read: sample types and values, each sample's
// location stack, each location's (possibly inlined) lines, and each
// function's name and file.

type pbFunction struct {
	name, file string
}

type pbSample struct {
	locs   []uint64 // leaf first
	values []int64
}

// cpuProfile is the decoded subset of one pprof CPU profile.
type cpuProfile struct {
	sampleTypes []string // "type/unit" per value index
	samples     []pbSample
	locs        map[uint64][]uint64 // function ids, innermost inlined line first
	funcs       map[uint64]pbFunction
}

// decodeProfile parses a gzipped (or raw) profile.proto message.
func decodeProfile(data []byte) (*cpuProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	p := &cpuProfile{locs: map[uint64][]uint64{}, funcs: map[uint64]pbFunction{}}
	var strtab []string
	type rawFunc struct{ id, name, file uint64 }
	var funcs []rawFunc
	var typeIdx [][2]uint64
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]uint64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = v
				}
				return nil
			}); err != nil {
				return err
			}
			typeIdx = append(typeIdx, t)
		case 2: // sample
			var s pbSample
			if err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendPacked(&s.locs, w, v, b)
				case 2:
					var vals []uint64
					if err := appendPacked(&vals, w, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line: its function id
					var fn uint64
					if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fn = v
						}
						return nil
					}); err != nil {
						return err
					}
					fns = append(fns, fn)
				}
				return nil
			}); err != nil {
				return err
			}
			p.locs[id] = fns
		case 5: // function
			var f rawFunc
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					f.id = v
				case 2:
					f.name = v
				case 4:
					f.file = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcs = append(funcs, f)
		case 6: // string_table
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strtab)) {
			return strtab[i]
		}
		return ""
	}
	for _, f := range funcs {
		p.funcs[f.id] = pbFunction{name: str(f.name), file: str(f.file)}
	}
	for _, t := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(t[0])+"/"+str(t[1]))
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and wire type and either its varint/fixed value or its
// length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			for i := 7; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			for i := 3; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field in either encoding: one
// value per field (wire 0) or packed into one length-delimited field.
func appendPacked(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// Layer names beyond the simulator's own modules.
const (
	layerRuntime = "runtime" // the Go runtime: scheduler, allocator, GC
	layerShard   = "shard"   // the epoch-barrier engine: event/shard.go + sim/cluster.go
	layerBench   = "bench"   // the benchmark's own code: boundary wrappers, checks, temp directories
	layerRoot    = "profess" // the root package: planner, run cache, disk cache
)

// languageHelpers are runtime entry points the compiler calls for
// ordinary language operations (copies, clears, comparisons, map and
// string operations). Their time belongs to the calling layer; the
// runtime layer keeps allocation, garbage collection and scheduling.
var languageHelpers = []string{
	"runtime.memmove", "runtime.duffcopy", "runtime.duffzero", "runtime.memclrNoHeapPointers",
	"runtime.memequal", "runtime.memhash", "runtime.aeshash", "runtime.strhash", "runtime.nilinterhash",
	"runtime.map", "internal/runtime/maps.", "internal/bytealg.", "runtime.cmpstring",
	"runtime.concatstring", "runtime.slicebytetostring", "runtime.efaceeq", "runtime.ifaceeq",
	"runtime.typeAssert", "runtime.assertE2I", "runtime.convT", "runtime.panicIndex", "runtime.panicBounds",
}

// goSrc is the standard library's source directory (GOROOT/src/) as this
// binary's function files spell it, taken from the runtime's own file.
var goSrc = func() string {
	f := runtime.FuncForPC(reflect.ValueOf(runtime.GC).Pointer())
	file, _ := f.FileLine(f.Entry())
	return path.Dir(path.Dir(file)) + "/"
}()

// frameLayer names the layer one frame belongs to. library reports a
// standard-library frame outside the runtime, or one of the runtime's
// language helpers: its time belongs to the nearest calling layer. Any
// other frame with no layer (an unresolved function, or code outside the
// simulator, the benchmark and the standard library) returns "" and
// claims the sample for no layer.
func frameLayer(fn pbFunction) (layer string, library bool) {
	name := fn.name
	if name != "" && strings.HasPrefix(fn.file, goSrc) {
		for _, h := range languageHelpers {
			if strings.HasPrefix(name, h) {
				return "", true
			}
		}
		if strings.HasPrefix(name, "runtime.") || strings.HasPrefix(name, "runtime/") ||
			strings.HasPrefix(name, "internal/runtime/") {
			return layerRuntime, false
		}
		return "", true
	}
	switch {
	case strings.HasPrefix(name, "profess/internal/"):
		if strings.HasSuffix(fn.file, "/internal/event/shard.go") || strings.HasSuffix(fn.file, "/internal/sim/cluster.go") {
			return layerShard, false
		}
		rest := strings.TrimPrefix(name, "profess/internal/")
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i], false
		}
		return rest, false
	case strings.HasPrefix(name, "profess."):
		return layerRoot, false
	case strings.HasPrefix(name, "main."), strings.HasPrefix(name, "profess/perfbench."):
		// The benchmark binary's package is "main"; its test binary
		// names it by import path.
		return layerBench, false
	}
	return "", false
}

// attribution is profile time split by layer.
type attribution struct {
	totalNS int64
	selfNS  map[string]int64 // by layer; "" holds samples no layer claims
	// inclNS is inclusive time under the named functions.
	inclNS map[string]int64
}

// Inclusive probes: functions whose whole subtree is one per-layer metric.
var inclusiveFuncs = []string{
	"profess/internal/sim.(*System).fastForward",
	"profess/internal/sim.(*System).reset",
}

// attribute charges each sample's CPU time to the layer of its innermost
// frame that is not library code, or to no layer when that frame belongs
// to none or is unsymbolized, and to every inclusive probe on its stack.
func (p *cpuProfile) attribute() (attribution, error) {
	vi := -1
	for i, t := range p.sampleTypes {
		if t == "cpu/nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return attribution{}, fmt.Errorf("profile: no cpu/nanoseconds sample type in %v", p.sampleTypes)
	}
	a := attribution{selfNS: map[string]int64{}, inclNS: map[string]int64{}}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		ns := s.values[vi]
		a.totalNS += ns
		layer, found := "", false
		seen := map[string]bool{}
		for _, loc := range s.locs {
			fns := p.locs[loc]
			if len(fns) == 0 {
				found = true // an unsymbolized frame
			}
			for _, id := range fns {
				fn := p.funcs[id]
				if !found {
					var library bool
					layer, library = frameLayer(fn)
					found = !library
				}
				for _, inc := range inclusiveFuncs {
					if fn.name == inc && !seen[inc] {
						seen[inc] = true
						a.inclNS[inc] += ns
					}
				}
			}
		}
		a.selfNS[layer] += ns
	}
	return a, nil
}

// namedShare is the fraction of profile time attributed to some layer.
func (a attribution) namedShare() float64 {
	if a.totalNS == 0 {
		return 0
	}
	return 1 - float64(a.selfNS[""])/float64(a.totalNS)
}
