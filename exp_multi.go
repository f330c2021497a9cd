package profess

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"profess/internal/par"
	"profess/internal/stats"
)

// MultiProgramCell is one (workload, scheme) outcome.
type MultiProgramCell struct {
	Workload        string
	Scheme          Scheme
	WeightedSpeedup float64
	MaxSlowdown     float64
	EnergyEff       float64
	SwapFraction    float64
	AvgReadLat      float64
	// LifetimeSeconds projects M2 device lifetime from the cell's write
	// wear, bounded by its hottest row (see sim.NVMWear).
	LifetimeSeconds float64
	Slowdowns       []float64
	Programs        []string
	// Resilience tallies the cell's fault injection and degradation
	// (zero for a fault-free run).
	Resilience Resilience
}

// MultiProgramReport regenerates the multiprogram evaluation: Figs. 10-15
// (MDM and ProFess vs PoM on max slowdown, weighted speedup and energy
// efficiency) and the per-program slowdown details of Figs. 2 and 16.
type MultiProgramReport struct {
	Schemes []Scheme
	Cells   []MultiProgramCell
}

// RunMultiProgram runs every workload of the options under every given
// scheme. Each distinct (program, scheme) stand-alone baseline runs once,
// before the mixes, and every cell reads its slowdowns from that table.
// A failed cell leaves the others standing: the report holds every
// completed cell alongside the joined error.
func RunMultiProgram(schemes []Scheme, opts ExpOptions) (*MultiProgramReport, error) {
	cfg := opts.multiConfig()
	wls := opts.workloads()

	type baseJob struct {
		prog   string
		scheme Scheme
	}
	seen := map[baseJob]bool{}
	var baseJobs []baseJob
	for _, wn := range wls {
		w, err := workloadByName(wn)
		if err != nil {
			return nil, err
		}
		for _, p := range w.Programs {
			for _, s := range schemes {
				j := baseJob{p, s}
				if !seen[j] {
					seen[j] = true
					baseJobs = append(baseJobs, j)
				}
			}
		}
	}
	ipcs := make([]float64, len(baseJobs))
	err := par.For(opts.ctx(), len(baseJobs), opts.Parallelism, func(i int) (err error) {
		ipcs[i], err = aloneIPC(opts.ctx(), baseJobs[i].prog, baseJobs[i].scheme, cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	alone := map[Scheme]map[string]float64{}
	for i, j := range baseJobs {
		if alone[j.scheme] == nil {
			alone[j.scheme] = map[string]float64{}
		}
		alone[j.scheme][j.prog] = ipcs[i]
	}

	type job struct {
		wl     string
		scheme Scheme
	}
	var jobs []job
	for _, wn := range wls {
		for _, s := range schemes {
			jobs = append(jobs, job{wn, s})
		}
	}
	cells := make([]MultiProgramCell, len(jobs))
	err = par.For(opts.ctx(), len(jobs), opts.Parallelism, func(i int) error {
		res, err := RunMixContext(opts.ctx(), jobs[i].wl, jobs[i].scheme, cfg)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", jobs[i].wl, jobs[i].scheme, err)
		}
		wr := newWorkloadResult(jobs[i].wl, jobs[i].scheme, res, alone[jobs[i].scheme])
		var lat, n float64
		var programs []string
		for _, c := range res.PerCore {
			lat += float64(c.AvgReadLat * float64(c.Served))
			n += float64(c.Served)
			programs = append(programs, c.Program)
		}
		if n > 0 {
			lat /= n
		}
		cells[i] = MultiProgramCell{
			Workload:        jobs[i].wl,
			Scheme:          jobs[i].scheme,
			WeightedSpeedup: wr.WeightedSpeedup,
			MaxSlowdown:     wr.MaxSlowdown,
			EnergyEff:       res.EnergyEff,
			SwapFraction:    res.SwapFraction,
			AvgReadLat:      lat,
			LifetimeSeconds: res.NVM.LifetimeSeconds,
			Slowdowns:       wr.Slowdowns,
			Programs:        programs,
			Resilience:      res.Resilience,
		}
		return nil
	})
	return &MultiProgramReport{Schemes: schemes, Cells: cells}, err
}

// workloadByName resolves through the public Workloads view.
func workloadByName(name string) (Workload, error) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("profess: unknown workload %q", name)
}

// Cell looks up (workload, scheme).
func (r *MultiProgramReport) Cell(wl string, s Scheme) (MultiProgramCell, bool) {
	for _, c := range r.Cells {
		if c.Workload == wl && c.Scheme == s {
			return c, true
		}
	}
	return MultiProgramCell{}, false
}

// NormalisedSeries returns, per workload, the ratio of a metric under
// scheme num over scheme den — the Figs. 10-15 presentation. metric is one
// of "ws", "maxsdn", "energy", "swapfrac", "readlat".
func (r *MultiProgramReport) NormalisedSeries(num, den Scheme, metric string) map[string]float64 {
	get := func(c MultiProgramCell) float64 {
		switch metric {
		case "ws":
			return c.WeightedSpeedup
		case "maxsdn":
			return c.MaxSlowdown
		case "energy":
			return c.EnergyEff
		case "swapfrac":
			return c.SwapFraction
		case "readlat":
			return c.AvgReadLat
		}
		return 0
	}
	out := map[string]float64{}
	for _, c := range r.Cells {
		if c.Scheme != num {
			continue
		}
		if d, ok := r.Cell(c.Workload, den); ok {
			out[c.Workload] = Ratio(get(c), get(d))
		}
	}
	return out
}

// sortedKeys returns map keys in sorted order.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// GeoMeanSeries summarises a normalised series.
func GeoMeanSeries(m map[string]float64) float64 {
	var xs []float64
	for _, k := range sortedKeys(m) {
		if m[k] > 0 {
			xs = append(xs, m[k])
		}
	}
	return stats.GeoMean(xs)
}

// String renders the full multiprogram table plus the normalised
// summaries of Figs. 10-15.
func (r *MultiProgramReport) String() string {
	var b strings.Builder
	t := stats.NewTable("workload", "scheme", "WS", "max sdn", "energy eff", "swap frac", "read lat", "M2 life")
	for _, c := range r.Cells {
		t.AddRowf(c.Workload, string(c.Scheme), c.WeightedSpeedup, c.MaxSlowdown, c.EnergyEff, c.SwapFraction, c.AvgReadLat, secsShort(c.LifetimeSeconds))
	}
	b.WriteString(t.String())
	for _, s := range r.Schemes {
		if s == SchemePoM {
			continue
		}
		for _, m := range []struct{ metric, label string }{
			{"maxsdn", "max slowdown"},
			{"ws", "weighted speedup"},
			{"energy", "energy efficiency"},
			{"swapfrac", "swap fraction"},
		} {
			series := r.NormalisedSeries(s, SchemePoM, m.metric)
			if len(series) == 0 {
				continue
			}
			fmt.Fprintf(&b, "\n%s %s normalised to PoM (gmean %.3f):\n", s, m.label, GeoMeanSeries(series))
			for _, wl := range sortedKeys(series) {
				fmt.Fprintf(&b, "  %-5s %.3f\n", wl, series[wl])
			}
		}
	}
	return b.String()
}

// SlowdownDetailString renders the Figs. 2/16 per-program slowdown detail
// for the given workloads.
func (r *MultiProgramReport) SlowdownDetailString(workloads []string) string {
	var b strings.Builder
	t := stats.NewTable("workload", "program", "scheme", "slowdown")
	for _, wl := range workloads {
		for _, s := range r.Schemes {
			c, ok := r.Cell(wl, s)
			if !ok {
				continue
			}
			for i, sdn := range c.Slowdowns {
				t.AddRowf(wl, c.Programs[i], string(s), sdn)
			}
		}
	}
	b.WriteString(t.String())
	return b.String()
}

// AMMATReport regenerates the §2.5 MemPod-vs-PoM observation: average
// main-memory access time (proxied by the mean demand read latency) in
// the single- and multi-program systems.
type AMMATReport struct {
	SingleRatio map[string]float64 // per program: MemPod / PoM read latency
	MultiRatio  map[string]float64 // per workload: MemPod / PoM read latency
}

// RunMemPodComparison measures the AMMAT of MemPod normalised to PoM.
func RunMemPodComparison(opts ExpOptions) (*AMMATReport, error) {
	rep := &AMMATReport{SingleRatio: map[string]float64{}, MultiRatio: map[string]float64{}}

	single, err := RunSinglePrograms([]Scheme{SchemePoM, SchemeMemPod}, opts)
	if err != nil {
		return nil, err
	}
	rep.SingleRatio = single.Ratios(SchemeMemPod, SchemePoM, "readlat")

	cfg := opts.multiConfig()
	wls := opts.workloads()
	type cellKey struct {
		wl     string
		scheme Scheme
	}
	lat := make(map[cellKey]float64)
	var mu sync.Mutex
	var jobs []cellKey
	for _, wl := range wls {
		jobs = append(jobs, cellKey{wl, SchemePoM}, cellKey{wl, SchemeMemPod})
	}
	err = par.For(opts.ctx(), len(jobs), opts.Parallelism, func(i int) error {
		res, err := RunMixContext(opts.ctx(), jobs[i].wl, jobs[i].scheme, cfg)
		if err != nil {
			return err
		}
		var sum, n float64
		for _, c := range res.PerCore {
			sum += float64(c.AvgReadLat * float64(c.Served))
			n += float64(c.Served)
		}
		mu.Lock()
		if n > 0 {
			lat[jobs[i]] = sum / n
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, wl := range wls {
		rep.MultiRatio[wl] = Ratio(lat[cellKey{wl, SchemeMemPod}], lat[cellKey{wl, SchemePoM}])
	}
	return rep, nil
}

// String renders the AMMAT ratios.
func (r *AMMATReport) String() string {
	var b strings.Builder
	var xs []float64
	b.WriteString("MemPod AMMAT normalised to PoM (single-program):\n")
	for _, p := range sortedKeys(r.SingleRatio) {
		fmt.Fprintf(&b, "  %-12s %.3f\n", p, r.SingleRatio[p])
		xs = append(xs, r.SingleRatio[p])
	}
	fmt.Fprintf(&b, "  gmean %.3f\n", stats.GeoMean(xs))
	xs = xs[:0]
	b.WriteString("MemPod AMMAT normalised to PoM (multi-program):\n")
	for _, w := range sortedKeys(r.MultiRatio) {
		fmt.Fprintf(&b, "  %-5s %.3f\n", w, r.MultiRatio[w])
		xs = append(xs, r.MultiRatio[w])
	}
	fmt.Fprintf(&b, "  gmean %.3f\n", stats.GeoMean(xs))
	return b.String()
}
