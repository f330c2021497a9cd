package profess

import (
	"fmt"
	"strings"

	"profess/internal/core"
	"profess/internal/par"
	"profess/internal/sim"
	"profess/internal/stats"
)

// SingleProgramRow is one program's outcome under one scheme in the
// single-core system (§5.1).
type SingleProgramRow struct {
	Program    string
	Scheme     Scheme
	IPC        float64
	M1Fraction float64
	STCHitRate float64
	AvgReadLat float64
	Swaps      int64
	// LifetimeSeconds projects M2 device lifetime from the run's write
	// wear, bounded by its hottest row (see sim.NVMWear).
	LifetimeSeconds float64
}

// SingleProgramReport regenerates Figs. 5-7: per-program IPC, M1-served
// fraction and STC hit rate for PoM and MDM in the single-core system.
type SingleProgramReport struct {
	Rows []SingleProgramRow
}

// RunSinglePrograms runs every program of the options under the given
// schemes in the single-core system.
func RunSinglePrograms(schemes []Scheme, opts ExpOptions) (*SingleProgramReport, error) {
	cfg := opts.singleConfig()
	progs := opts.programs()

	type job struct {
		prog   string
		scheme Scheme
	}
	var jobs []job
	for _, p := range progs {
		for _, s := range schemes {
			jobs = append(jobs, job{p, s})
		}
	}
	rows := make([]SingleProgramRow, len(jobs))
	err := par.For(opts.ctx(), len(jobs), opts.Parallelism, func(i int) error {
		res, err := RunProgramContext(opts.ctx(), jobs[i].prog, jobs[i].scheme, cfg)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", jobs[i].prog, jobs[i].scheme, err)
		}
		c := res.PerCore[0]
		rows[i] = SingleProgramRow{
			Program:         jobs[i].prog,
			Scheme:          jobs[i].scheme,
			IPC:             c.IPC,
			M1Fraction:      c.M1Fraction,
			STCHitRate:      c.STCHitRate,
			AvgReadLat:      c.AvgReadLat,
			Swaps:           c.Swaps,
			LifetimeSeconds: res.NVM.LifetimeSeconds,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &SingleProgramReport{Rows: rows}, nil
}

// row looks up the report entry for (program, scheme).
func (r *SingleProgramReport) row(prog string, s Scheme) (SingleProgramRow, bool) {
	for _, row := range r.Rows {
		if row.Program == prog && row.Scheme == s {
			return row, true
		}
	}
	return SingleProgramRow{}, false
}

// Ratios returns the per-program metric ratios of num over den (the
// "normalised to PoM" presentation of Figs. 5 and 6). metric selects the
// value: "ipc", "m1frac", "readlat".
func (r *SingleProgramReport) Ratios(num, den Scheme, metric string) map[string]float64 {
	out := map[string]float64{}
	for _, row := range r.Rows {
		if row.Scheme != num {
			continue
		}
		d, ok := r.row(row.Program, den)
		if !ok {
			continue
		}
		var v float64
		switch metric {
		case "ipc":
			v = Ratio(row.IPC, d.IPC)
		case "m1frac":
			v = Ratio(row.M1Fraction, d.M1Fraction)
		case "readlat":
			v = Ratio(row.AvgReadLat, d.AvgReadLat)
		}
		out[row.Program] = v
	}
	return out
}

// String renders the Fig. 5/6/7 tables.
func (r *SingleProgramReport) String() string {
	var b strings.Builder
	t := stats.NewTable("program", "scheme", "IPC", "M1 frac", "STC hit", "read lat", "swaps", "M2 life")
	for _, row := range r.Rows {
		t.AddRowf(row.Program, string(row.Scheme), row.IPC, row.M1Fraction, row.STCHitRate, row.AvgReadLat, row.Swaps, secsShort(row.LifetimeSeconds))
	}
	b.WriteString(t.String())

	ipcs := r.Ratios(SchemeMDM, SchemePoM, "ipc")
	if len(ipcs) > 0 {
		var xs []float64
		b.WriteString("\nFig. 5 — MDM IPC normalised to PoM:\n")
		for _, row := range r.Rows {
			if row.Scheme != SchemeMDM {
				continue
			}
			if v, ok := ipcs[row.Program]; ok {
				fmt.Fprintf(&b, "  %-12s %.3f\n", row.Program, v)
				xs = append(xs, v)
			}
		}
		b.WriteString("  " + summarise("summary", xs) + "\n")
	}
	return b.String()
}

// STCSensitivityRow is one (program, STC entries) measurement for
// Figs. 8/9.
type STCSensitivityRow struct {
	Program    string
	STCEntries int
	IPC        float64
	STCHitRate float64
}

// STCSensitivityReport regenerates Figs. 8 and 9: MDM's sensitivity to the
// STC size (half / default / double).
type STCSensitivityReport struct {
	Default int
	Rows    []STCSensitivityRow
}

// RunSTCSensitivity measures MDM at the three STC sizes of Fig. 8.
func RunSTCSensitivity(opts ExpOptions) (*STCSensitivityReport, error) {
	cfg := opts.singleConfig()
	progs := opts.programs()
	sizes := []int{cfg.STCEntries / 2, cfg.STCEntries, cfg.STCEntries * 2}

	type job struct {
		prog string
		size int
	}
	var jobs []job
	for _, p := range progs {
		for _, s := range sizes {
			jobs = append(jobs, job{p, s})
		}
	}
	rows := make([]STCSensitivityRow, len(jobs))
	err := par.For(opts.ctx(), len(jobs), opts.Parallelism, func(i int) error {
		c := cfg
		c.STCEntries = jobs[i].size
		res, err := RunProgramContext(opts.ctx(), jobs[i].prog, SchemeMDM, c)
		if err != nil {
			return fmt.Errorf("%s/stc=%d: %w", jobs[i].prog, jobs[i].size, err)
		}
		rows[i] = STCSensitivityRow{
			Program:    jobs[i].prog,
			STCEntries: jobs[i].size,
			IPC:        res.PerCore[0].IPC,
			STCHitRate: res.PerCore[0].STCHitRate,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &STCSensitivityReport{Default: cfg.STCEntries, Rows: rows}, nil
}

// String renders IPC normalised to the default STC size plus hit rates.
func (r *STCSensitivityReport) String() string {
	base := map[string]float64{}
	for _, row := range r.Rows {
		if row.STCEntries == r.Default {
			base[row.Program] = row.IPC
		}
	}
	t := stats.NewTable("program", "STC entries", "IPC", "IPC vs default", "STC hit")
	for _, row := range r.Rows {
		t.AddRowf(row.Program, row.STCEntries, row.IPC, Ratio(row.IPC, base[row.Program]), row.STCHitRate)
	}
	return t.String()
}

// SamplingAccuracyCell is one Table 4 cell triple for a (program, M_samp).
type SamplingAccuracyCell struct {
	Program      string
	MSamp        int64
	MeanSigmaReq float64 // mean per-period region spread, %
	SigmaRawSFA  float64 // std dev of raw SF_A estimates, %
	SigmaAvgSFA  float64 // std dev of smoothed SF_A estimates, %
	MeanRawSFA   float64
	Periods      int
}

// SamplingAccuracyReport regenerates Table 4.
type SamplingAccuracyReport struct {
	Cells []SamplingAccuracyCell
}

// RunSamplingAccuracy runs the Table 4 study: selected programs alone with
// RSM probing at three sampling-period durations (the paper's 64K/128K/
// 256K requests, scaled with the system). It drives probe-instrumented
// ProFess policies through the System directly, so its runs bypass the
// run cache and the experiment is not plannable.
func RunSamplingAccuracy(opts ExpOptions) (*SamplingAccuracyReport, error) {
	if planning() {
		return nil, ErrNotPlannable
	}
	cfg := opts.singleConfig()
	progs := opts.Programs
	if len(progs) == 0 {
		progs = []string{"bwaves", "milc", "omnetpp"}
	}
	base := int64(float64(128_000) * cfg.Scale)
	if base < 2048 {
		base = 2048
	}
	msamps := []int64{base / 2, base, base * 2}

	type job struct {
		prog  string
		msamp int64
	}
	var jobs []job
	for _, p := range progs {
		for _, m := range msamps {
			jobs = append(jobs, job{p, m})
		}
	}
	cells := make([]SamplingAccuracyCell, len(jobs))
	err := par.For(opts.ctx(), len(jobs), opts.Parallelism, func(i int) error {
		spec, err := sim.SpecForProgram(jobs[i].prog, cfg.Scale)
		if err != nil {
			return err
		}
		pcfg := core.DefaultProFessConfig(1, cfg.Scale)
		pcfg.RSM.SamplingRequests = jobs[i].msamp
		pcfg.RSM.Probe = true
		pcfg.RSM.Regions = cfg.Regions
		policy, err := core.NewProFess(pcfg)
		if err != nil {
			return err
		}
		sys, err := sim.NewSystem(cfg, []ProgramSpec{spec}, policy)
		if err != nil {
			return err
		}
		if _, err := sys.RunContext(opts.ctx()); err != nil {
			return err
		}
		sigmaReq, raw, avg := policy.RSM().ProbeSeries(0)
		cells[i] = SamplingAccuracyCell{
			Program:      jobs[i].prog,
			MSamp:        jobs[i].msamp,
			MeanSigmaReq: stats.Mean(sigmaReq),
			SigmaRawSFA:  stats.StdDev(raw) * 100,
			SigmaAvgSFA:  stats.StdDev(avg) * 100,
			MeanRawSFA:   stats.Mean(raw),
			Periods:      len(raw),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &SamplingAccuracyReport{Cells: cells}, nil
}

// String renders the Table 4 layout.
func (r *SamplingAccuracyReport) String() string {
	t := stats.NewTable("program", "M_samp", "mean sigma_req %", "sigma raw SF_A %", "sigma avg SF_A %", "mean raw SF_A", "periods")
	for _, c := range r.Cells {
		t.AddRowf(c.Program, c.MSamp, c.MeanSigmaReq, c.SigmaRawSFA, c.SigmaAvgSFA, c.MeanRawSFA, c.Periods)
	}
	return t.String()
}

// SensitivityReport holds a one-dimensional MDM-vs-PoM sweep (the §5.2
// t_WR_M2 and M1:M2-ratio studies).
type SensitivityReport struct {
	Axis   string
	Points []SensitivityPoint
}

// SensitivityPoint is the geometric-mean MDM/PoM IPC ratio at one setting.
type SensitivityPoint struct {
	Setting      string
	GeoMeanRatio float64
	PerProgram   map[string]float64
}

// RunTWRSensitivity sweeps M2's write-recovery latency (x0.5, x1, x2) and
// reports MDM's IPC improvement over PoM at each point (§5.2).
func RunTWRSensitivity(opts ExpOptions) (*SensitivityReport, error) {
	rep := &SensitivityReport{Axis: "t_WR_M2 factor"}
	for _, f := range []float64{0.5, 1, 2} {
		o := opts
		cfgMod := func(c Config) Config { c.M2TWRFactor = f; return c }
		pt, err := mdmVsPoMPoint(fmt.Sprintf("x%.1f", f), o, cfgMod)
		if err != nil {
			return nil, err
		}
		rep.Points = append(rep.Points, pt)
	}
	return rep, nil
}

// RunRatioSensitivity sweeps the M1:M2 capacity ratio (1:4, 1:8, 1:16)
// with M2 capacity fixed, reporting MDM over PoM (§5.2). Programs whose
// footprints fit entirely in the enlarged M1 are excluded from the 1:4
// geometric mean, as the paper excludes leslie3d, libquantum and zeusmp.
func RunRatioSensitivity(opts ExpOptions) (*SensitivityReport, error) {
	rep := &SensitivityReport{Axis: "M1:M2 ratio"}
	for _, n := range []int{4, 8, 16} {
		o := opts
		cfgMod := func(c Config) Config { return c.WithM1Ratio(n) }
		pt, err := mdmVsPoMPoint(fmt.Sprintf("1:%d", n), o, cfgMod)
		if err != nil {
			return nil, err
		}
		rep.Points = append(rep.Points, pt)
	}
	return rep, nil
}

// mdmVsPoMPoint measures the per-program MDM/PoM IPC ratios for one
// modified configuration.
func mdmVsPoMPoint(name string, opts ExpOptions, mod func(Config) Config) (SensitivityPoint, error) {
	cfg := mod(opts.singleConfig())
	progs := opts.programs()
	per := make(map[string]float64, len(progs))
	pomIPC := map[string]float64{}
	mdmIPC := map[string]float64{}

	type job struct {
		prog   string
		scheme Scheme
	}
	// Skip programs whose footprint does not fit the (possibly shrunken)
	// visible capacity — the 1:16 point drops the total capacity below the
	// largest Table 9 footprints, and the OS also reserves private-region
	// frames it cannot hand to this program.
	visible := cfg.M1Capacity * int64(1+cfg.M2Slots)
	var jobs []job
	for _, p := range progs {
		spec, err := sim.SpecForProgram(p, cfg.Scale)
		if err != nil {
			return SensitivityPoint{}, err
		}
		if spec.Params.Footprint > visible*9/10 {
			continue
		}
		jobs = append(jobs, job{p, SchemePoM}, job{p, SchemeMDM})
	}
	ipcs := make([]float64, len(jobs))
	err := par.For(opts.ctx(), len(jobs), opts.Parallelism, func(i int) error {
		res, err := RunProgramContext(opts.ctx(), jobs[i].prog, jobs[i].scheme, cfg)
		if err != nil {
			return err
		}
		ipcs[i] = res.PerCore[0].IPC
		return nil
	})
	if err != nil {
		return SensitivityPoint{}, err
	}
	for i, j := range jobs {
		if j.scheme == SchemePoM {
			pomIPC[j.prog] = ipcs[i]
		} else {
			mdmIPC[j.prog] = ipcs[i]
		}
	}
	var ratios []float64
	for _, p := range progs {
		r := Ratio(mdmIPC[p], pomIPC[p])
		per[p] = r
		if r > 0 {
			ratios = append(ratios, r)
		}
	}
	return SensitivityPoint{Setting: name, GeoMeanRatio: stats.GeoMean(ratios), PerProgram: per}, nil
}

// String renders the sweep.
func (r *SensitivityReport) String() string {
	t := stats.NewTable(r.Axis, "gmean MDM/PoM IPC")
	for _, p := range r.Points {
		t.AddRowf(p.Setting, p.GeoMeanRatio)
	}
	return t.String()
}
