package main

import (
	"bufio"
	"errors"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); NaN for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) from
// /proc/self/status, in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) == 0 {
			break
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errNoVmHWM
}

var errNoVmHWM = errors.New("perfbench: no VmHWM line in /proc/self/status")

// runtimeSnapshot holds the runtime/metrics counters the runtime layer is
// measured from.
type runtimeSnapshot struct {
	gcCPU, totalCPU, idleCPU float64 // seconds
	allocBytes               uint64
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSnapshot {
	samples := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	f := func(i int) float64 {
		if samples[i].Value.Kind() == metrics.KindFloat64 {
			return samples[i].Value.Float64()
		}
		return 0
	}
	var alloc uint64
	if samples[3].Value.Kind() == metrics.KindUint64 {
		alloc = samples[3].Value.Uint64()
	}
	return runtimeSnapshot{gcCPU: f(0), totalCPU: f(1), idleCPU: f(2), allocBytes: alloc}
}

// gcShare is the garbage collector's share of the CPU time the process
// used (available minus idle) between two snapshots.
func gcShare(a, b runtimeSnapshot) float64 {
	busy := (b.totalCPU - a.totalCPU) - (b.idleCPU - a.idleCPU)
	if busy <= 0 {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / busy
}
