// Package energy models the off-chip memory system's power, supporting the
// paper's energy-efficiency figure of merit: requests served per second
// per watt (§4.3). Absolute numbers depend on device datasheets the paper
// does not disclose (it reads power from DRAMSim2); this model uses
// representative per-event energies for DDR4 DRAM and a 3D-XPoint-class
// NVM with strongly asymmetric write cost, which is what shapes the
// relative efficiency across migration schemes (swap traffic and M1/M2
// mix).
package energy

import (
	"profess/internal/mem"
)

// Model holds per-event energies in nanojoules and background power in
// watts, per partition kind.
type Model struct {
	// ActivateNJ is the energy of one activate+precharge pair.
	ActivateNJ [2]float64
	// ReadNJ / WriteNJ are per-64-B-burst energies.
	ReadNJ  [2]float64
	WriteNJ [2]float64
	// RefreshNJ is the energy of one rank refresh window (M2: none).
	RefreshNJ [2]float64
	// BackgroundW is standby power per channel per partition.
	BackgroundW [2]float64
}

// Default returns the representative model: DRAM with symmetric burst
// energy; NVM with pricier array reads and ~4x write energy, but lower
// standby power (non-volatile arrays need no refresh, §4.1).
func Default() Model {
	m := Model{}
	m.ActivateNJ[mem.M1] = 2.0
	m.ReadNJ[mem.M1] = 1.6
	m.WriteNJ[mem.M1] = 1.6
	m.RefreshNJ[mem.M1] = 15
	m.BackgroundW[mem.M1] = 0.25

	m.ActivateNJ[mem.M2] = 4.0
	m.ReadNJ[mem.M2] = 2.0
	m.WriteNJ[mem.M2] = 8.0
	m.BackgroundW[mem.M2] = 0.10
	return m
}

// Report is the energy accounting of one simulation.
type Report struct {
	DynamicJ    float64 // dynamic energy, joules
	BackgroundJ float64 // standby energy, joules
	Seconds     float64 // simulated wall time
	Requests    int64   // demand accesses served
}

// TotalJ returns total energy in joules.
func (r Report) TotalJ() float64 { return r.DynamicJ + r.BackgroundJ }

// Watts returns average power.
func (r Report) Watts() float64 {
	if r.Seconds <= 0 {
		return 0
	}
	return r.TotalJ() / r.Seconds
}

// Efficiency returns the paper's figure of merit: requests per second per
// watt, which reduces to requests per joule.
func (r Report) Efficiency() float64 {
	if r.TotalJ() <= 0 {
		return 0
	}
	return float64(r.Requests) / r.TotalJ()
}

// Evaluate folds channel event counts and elapsed cycles into a Report.
// channels is the number of channels contributing background power.
func (m Model) Evaluate(counts mem.EventCounts, cycles int64, channels int) Report {
	// float64(...) rounds each product so that arm64 cannot fuse it into
	// the sum (`make fma-check`).
	var dyn float64 // nanojoules
	for k := 0; k < 2; k++ {
		dyn += float64(float64(counts.Activates[k]) * m.ActivateNJ[k])
		dyn += float64(float64(counts.Reads[k]+counts.SwapReads[k]) * m.ReadNJ[k])
		dyn += float64(float64(counts.Writes[k]+counts.SwapWrites[k]) * m.WriteNJ[k])
		dyn += float64(float64(counts.Refreshes[k]) * m.RefreshNJ[k])
	}
	secs := float64(cycles) / (mem.CyclesPerNs * 1e9)
	bgW := (m.BackgroundW[mem.M1] + m.BackgroundW[mem.M2]) * float64(channels)
	return Report{
		DynamicJ:    dyn * 1e-9,
		BackgroundJ: bgW * secs,
		Seconds:     secs,
		Requests:    counts.DemandAccesses(),
	}
}
