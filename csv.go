package profess

import (
	"fmt"
	"strings"
)

// CSVer is implemented by experiment reports that can render themselves as
// CSV for downstream plotting; cmd/professbench exposes it via -csv.
type CSVer interface {
	CSV() string
}

// csvRow joins cells with commas, quoting any cell containing a comma.
func csvRow(cells ...string) string {
	for i, c := range cells {
		if strings.ContainsAny(c, ",\"\n") {
			cells[i] = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
		}
	}
	return strings.Join(cells, ",")
}

func f3(v float64) string { return fmt.Sprintf("%.4f", v) }

// fg formats wide-range positive quantities (e.g. lifetimes in seconds)
// without the fixed-point precision loss of f3.
func fg(v float64) string { return fmt.Sprintf("%.6g", v) }

// CSV renders the Fig. 5-7 data: one row per (program, scheme).
func (r *SingleProgramReport) CSV() string {
	var b strings.Builder
	b.WriteString(csvRow("program", "scheme", "ipc", "m1_fraction", "stc_hit_rate", "avg_read_latency_cycles", "swaps", "nvm_lifetime_s") + "\n")
	for _, row := range r.Rows {
		b.WriteString(csvRow(row.Program, string(row.Scheme), f3(row.IPC), f3(row.M1Fraction),
			f3(row.STCHitRate), f3(row.AvgReadLat), fmt.Sprint(row.Swaps), fg(row.LifetimeSeconds)) + "\n")
	}
	return b.String()
}

// CSV renders the Fig. 8/9 data: one row per (program, STC entries).
func (r *STCSensitivityReport) CSV() string {
	var b strings.Builder
	b.WriteString(csvRow("program", "stc_entries", "ipc", "stc_hit_rate") + "\n")
	for _, row := range r.Rows {
		b.WriteString(csvRow(row.Program, fmt.Sprint(row.STCEntries), f3(row.IPC), f3(row.STCHitRate)) + "\n")
	}
	return b.String()
}

// CSV renders the Table 4 data.
func (r *SamplingAccuracyReport) CSV() string {
	var b strings.Builder
	b.WriteString(csvRow("program", "m_samp", "mean_sigma_req_pct", "sigma_raw_sfa_pct", "sigma_avg_sfa_pct", "mean_raw_sfa", "periods") + "\n")
	for _, c := range r.Cells {
		b.WriteString(csvRow(c.Program, fmt.Sprint(c.MSamp), f3(c.MeanSigmaReq), f3(c.SigmaRawSFA),
			f3(c.SigmaAvgSFA), f3(c.MeanRawSFA), fmt.Sprint(c.Periods)) + "\n")
	}
	return b.String()
}

// CSV renders a sensitivity sweep.
func (r *SensitivityReport) CSV() string {
	var b strings.Builder
	b.WriteString(csvRow("setting", "gmean_mdm_over_pom_ipc") + "\n")
	for _, p := range r.Points {
		b.WriteString(csvRow(p.Setting, f3(p.GeoMeanRatio)) + "\n")
	}
	return b.String()
}

// CSV renders the Figs. 10-15 data: one row per (workload, scheme), with
// per-program slowdowns flattened into separate rows at the end.
func (r *MultiProgramReport) CSV() string {
	var b strings.Builder
	b.WriteString(csvRow("workload", "scheme", "weighted_speedup", "max_slowdown",
		"energy_efficiency_req_per_joule", "swap_fraction", "avg_read_latency_cycles", "nvm_lifetime_s") + "\n")
	for _, c := range r.Cells {
		b.WriteString(csvRow(c.Workload, string(c.Scheme), f3(c.WeightedSpeedup), f3(c.MaxSlowdown),
			fmt.Sprintf("%.0f", c.EnergyEff), f3(c.SwapFraction), f3(c.AvgReadLat), fg(c.LifetimeSeconds)) + "\n")
	}
	b.WriteString("\n" + csvRow("workload", "scheme", "program", "slowdown") + "\n")
	for _, c := range r.Cells {
		for i, sdn := range c.Slowdowns {
			b.WriteString(csvRow(c.Workload, string(c.Scheme), c.Programs[i], f3(sdn)) + "\n")
		}
	}
	return b.String()
}

// CSV renders the MemPod AMMAT comparison.
func (r *AMMATReport) CSV() string {
	var b strings.Builder
	b.WriteString(csvRow("kind", "name", "ammat_mempod_over_pom") + "\n")
	for _, k := range sortedKeys(r.SingleRatio) {
		b.WriteString(csvRow("single", k, f3(r.SingleRatio[k])) + "\n")
	}
	for _, k := range sortedKeys(r.MultiRatio) {
		b.WriteString(csvRow("multi", k, f3(r.MultiRatio[k])) + "\n")
	}
	return b.String()
}
