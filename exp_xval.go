package profess

import (
	"fmt"
	"math"
	"strings"

	"profess/internal/analytic"
	"profess/internal/par"
	"profess/internal/sim"
	"profess/internal/stats"
)

// Cross-validation of the analytic fast tier (internal/analytic) against
// the cycle model: both predict the same cells — every Table 9 program
// under each scheme in the single-core system — and the report compares
// IPC, M1-served fraction and NVM lifetime point by point. The committed
// error envelope (testdata/xval_envelope.json, enforced by xval_test.go)
// pins how far apart the two tiers are allowed to drift; the scatter CSV
// is the figure showing where the analytic screen can be trusted.

// XValRow is one (program, scheme) point of the comparison.
type XValRow struct {
	Program string
	Scheme  Scheme

	CycleIPC    float64
	AnalyticIPC float64
	// IPCError is the signed relative error (analytic-cycle)/cycle.
	IPCError float64

	CycleM1Frac    float64
	AnalyticM1Frac float64
	// M1FracError is the absolute difference (fractions live in [0, 1]).
	M1FracError float64

	// Lifetimes are leveling-aware projections in seconds; the cycle
	// value comes from the per-row wear tallies, the analytic one from
	// the model's write-stream skew estimate.
	CycleLifetime    float64
	AnalyticLifetime float64
}

// XValReport aggregates the cross-validation matrix.
type XValReport struct {
	Rows []XValRow
	// Error summary across all rows.
	MeanAbsIPCError    float64
	MaxAbsIPCError     float64
	MeanAbsM1FracError float64
	MaxAbsM1FracError  float64
}

// RunCrossValidation runs every program of the options (default: all ten
// Table 9 generators, libquantum included — the analytic tier must get
// the degenerate fits-in-M1 case right, it is what pruning exploits)
// under the given schemes in the single-core system, through both tiers.
func RunCrossValidation(schemes []Scheme, opts ExpOptions) (*XValReport, error) {
	cfg := opts.singleConfig()
	progs := opts.Programs
	if len(progs) == 0 {
		for _, p := range Programs() {
			progs = append(progs, p.Name)
		}
	}
	model := analytic.Default()

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
	rows := make([]XValRow, len(jobs))
	err := par.For(opts.ctx(), len(jobs), opts.Parallelism, func(i int) error {
		spec, err := sim.SpecForProgram(jobs[i].prog, cfg.Scale)
		if err != nil {
			return err
		}
		res, err := RunSpecsContext(opts.ctx(), []ProgramSpec{spec}, jobs[i].scheme, cfg)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", jobs[i].prog, jobs[i].scheme, err)
		}
		est, err := model.Estimate(cfg, []ProgramSpec{spec}, jobs[i].scheme)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", jobs[i].prog, jobs[i].scheme, err)
		}
		c := res.PerCore[0]
		row := XValRow{
			Program:          jobs[i].prog,
			Scheme:           jobs[i].scheme,
			CycleIPC:         c.IPC,
			AnalyticIPC:      est.Programs[0].IPC,
			CycleM1Frac:      c.M1Fraction,
			AnalyticM1Frac:   est.Programs[0].M1Fraction,
			CycleLifetime:    res.NVM.LifetimeSeconds,
			AnalyticLifetime: est.NVM.LifetimeSeconds,
		}
		if row.CycleIPC > 0 {
			row.IPCError = (row.AnalyticIPC - row.CycleIPC) / row.CycleIPC
		}
		row.M1FracError = math.Abs(row.AnalyticM1Frac - row.CycleM1Frac)
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep := &XValReport{Rows: rows}
	for _, r := range rows {
		e := math.Abs(r.IPCError)
		rep.MeanAbsIPCError += e
		if e > rep.MaxAbsIPCError {
			rep.MaxAbsIPCError = e
		}
		rep.MeanAbsM1FracError += r.M1FracError
		if r.M1FracError > rep.MaxAbsM1FracError {
			rep.MaxAbsM1FracError = r.M1FracError
		}
	}
	if n := float64(len(rows)); n > 0 {
		rep.MeanAbsIPCError /= n
		rep.MeanAbsM1FracError /= n
	}
	return rep, nil
}

// String renders the comparison table plus the error summary.
func (r *XValReport) String() string {
	var b strings.Builder
	t := stats.NewTable("program", "scheme", "cycle IPC", "analytic IPC", "err %", "cycle M1", "analytic M1", "life (cyc)", "life (ana)")
	for _, row := range r.Rows {
		t.AddRowf(row.Program, string(row.Scheme), row.CycleIPC, row.AnalyticIPC,
			100*row.IPCError, row.CycleM1Frac, row.AnalyticM1Frac,
			secsShort(row.CycleLifetime), secsShort(row.AnalyticLifetime))
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\nIPC error: mean |e|=%.1f%% max |e|=%.1f%%   M1-fraction error: mean=%.3f max=%.3f\n",
		100*r.MeanAbsIPCError, 100*r.MaxAbsIPCError, r.MeanAbsM1FracError, r.MaxAbsM1FracError)
	return b.String()
}

// CSV renders the scatter data: one row per (program, scheme).
func (r *XValReport) CSV() string {
	var b strings.Builder
	b.WriteString(csvRow("program", "scheme", "cycle_ipc", "analytic_ipc", "ipc_rel_error",
		"cycle_m1_fraction", "analytic_m1_fraction", "cycle_lifetime_s", "analytic_lifetime_s") + "\n")
	for _, row := range r.Rows {
		b.WriteString(csvRow(row.Program, string(row.Scheme), f3(row.CycleIPC), f3(row.AnalyticIPC),
			f3(row.IPCError), f3(row.CycleM1Frac), f3(row.AnalyticM1Frac),
			fmt.Sprintf("%.4g", row.CycleLifetime), fmt.Sprintf("%.4g", row.AnalyticLifetime)) + "\n")
	}
	return b.String()
}

// secsShort renders a lifetime in engineer-friendly units.
func secsShort(s float64) string {
	switch {
	case s <= 0:
		return "-"
	case s < 60:
		return fmt.Sprintf("%.3gs", s)
	case s < 86400:
		return fmt.Sprintf("%.3gh", s/3600)
	default:
		return fmt.Sprintf("%.3gy", s/(365.25*86400))
	}
}
