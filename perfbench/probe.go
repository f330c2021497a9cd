package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared: its speed moves by a third
// and more over minutes as other tenants load the memory system, and a
// run is too short to outlast such a period. So between repetitions the
// benchmark times a probe, a fixed memory-bound loop that is part of the
// benchmark and never changes with the simulator, and reports host times
// scaled to a host on which the probe's median sample takes probeNominal.
// NOTES.md has the measurements behind this.
const (
	probeBytes   = 64 << 20
	probeReads   = 2 << 20
	probeStreams = 3
	probeNominal = 50 * time.Millisecond
	// probeShare is the time the probe takes after a repetition, as a
	// share of that repetition's time.
	probeShare = 0.05
)

// hostProbe owns the probe's table, mapped outside the Go heap so that it
// neither moves the collector's heap goal nor is scanned, and the probe
// samples of one run.
type hostProbe struct {
	mem     []byte
	table   []uint64
	samples []float64 // seconds
	sink    uint64
}

func newHostProbe() (*hostProbe, error) {
	mem, err := syscall.Mmap(-1, 0, probeBytes, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, err
	}
	p := &hostProbe{mem: mem, table: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), probeBytes/8)}
	for i := range p.table {
		p.table[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	return p, nil
}

func (p *hostProbe) close() error { return syscall.Munmap(p.mem) }

// sample times one pass of the probe: probeReads independent random reads
// of the table, then probeStreams sequential reads of all of it.
func (p *hostProbe) sample() {
	start := time.Now()
	var sum uint64
	h := p.sink | 1
	const shift = 64 - 23 // the table holds 1<<23 words
	for i := 0; i < probeReads; i++ {
		h = h*6364136223846793005 + 1442695040888963407
		sum += p.table[h>>shift]
	}
	for range probeStreams {
		for _, v := range p.table {
			sum += v
		}
	}
	p.sink = sum
	p.samples = append(p.samples, time.Since(start).Seconds())
}

// sampleAfter samples the probe at least once, and until it has taken
// probeShare of the time d the preceding work took.
func (p *hostProbe) sampleAfter(d time.Duration) {
	budget := time.Duration(probeShare * float64(d))
	for start := time.Now(); ; {
		p.sample()
		if time.Since(start) >= budget {
			return
		}
	}
}

// slowdown is how much slower than nominal the host ran in this run: the
// median probe sample over probeNominal.
func (p *hostProbe) slowdown() float64 {
	return median(p.samples) / probeNominal.Seconds()
}
