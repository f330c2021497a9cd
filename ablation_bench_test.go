// Ablation benchmarks for the design choices DESIGN.md calls out. These
// go beyond the paper's own evaluation: they quantify what each piece of
// ProFess contributes on this substrate.
package profess

import (
	"testing"

	"profess/internal/core"
)

// ablationCfg is the quad-core system at bench budget.
func ablationCfg() Config {
	cfg := MultiCoreConfig(PaperScale)
	cfg.Instructions = 400_000
	return cfg
}

// runProFessVariant measures a ProFess configuration on w09 and returns
// (maxSlowdown, weightedSpeedup, swapFraction).
func runProFessVariant(b *testing.B, mod func(*core.ProFessConfig)) (float64, float64, float64) {
	b.Helper()
	cfg := ablationCfg()
	pcfg := core.DefaultProFessConfig(4, cfg.Scale)
	if mod != nil {
		mod(&pcfg)
	}
	policy, err := core.NewProFess(pcfg)
	if err != nil {
		b.Fatal(err)
	}
	wr, err := RunWorkloadWithPolicy("w09", policy, SchemeProFess, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return wr.MaxSlowdown, wr.WeightedSpeedup, wr.Result.SwapFraction
}

// BenchmarkAblation_FullProFess is the reference point for the ablations.
func BenchmarkAblation_FullProFess(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ResetRunCache()
		sdn, ws, swaps := runProFessVariant(b, nil)
		b.ReportMetric(sdn, "maxSdn-w09")
		b.ReportMetric(ws, "WS-w09")
		b.ReportMetric(swaps, "swapFrac-w09")
	}
}

// BenchmarkAblation_NoSFB removes the swap-based slowdown factor: Table 7
// degenerates to SF_A-only comparisons.
func BenchmarkAblation_NoSFB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ResetRunCache()
		sdn, ws, _ := runProFessVariant(b, func(c *core.ProFessConfig) { c.DisableSFB = true })
		b.ReportMetric(sdn, "maxSdn-w09")
		b.ReportMetric(ws, "WS-w09")
	}
}

// BenchmarkAblation_NoCase3 removes the §3.3 mixed-signal protection case.
func BenchmarkAblation_NoCase3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ResetRunCache()
		sdn, ws, _ := runProFessVariant(b, func(c *core.ProFessConfig) { c.DisableCase3 = true })
		b.ReportMetric(sdn, "maxSdn-w09")
		b.ReportMetric(ws, "WS-w09")
	}
}

// BenchmarkAblation_Threshold doubles the Table 7 similarity threshold
// (1/32 -> 1/16), making the guidance fire less often.
func BenchmarkAblation_Threshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ResetRunCache()
		sdn, ws, _ := runProFessVariant(b, func(c *core.ProFessConfig) {
			c.Threshold = 1.0 / 16
			c.ProductThreshold = 1.0 / 8
		})
		b.ReportMetric(sdn, "maxSdn-w09")
		b.ReportMetric(ws, "WS-w09")
	}
}

// BenchmarkAblation_MinBenefit sweeps MDM's min_benefit (the paper uses
// K = 8; the sweep shows the cost-balance sensitivity).
func BenchmarkAblation_MinBenefit(b *testing.B) {
	cfg := SingleCoreConfig(PaperScale)
	cfg.Instructions = 400_000
	spec, err := SpecFor("lbm", cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		ResetRunCache()
		for _, k := range []float64{4, 8, 16} {
			mcfg := core.DefaultMDMConfig(1)
			mcfg.MinBenefit = k
			policy, err := core.NewMDM(mcfg)
			if err != nil {
				b.Fatal(err)
			}
			res, err := RunWithPolicy([]ProgramSpec{spec}, policy, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.PerCore[0].IPC, "IPC-lbm-K"+itoa(int(k)))
		}
	}
}

// BenchmarkAblation_STTraffic quantifies the cost of modelling the
// Swap-group Table in M1 (STC miss fills and dirty writebacks) — the
// organizational overhead §2.2 motivates keeping small via the STC.
func BenchmarkAblation_STTraffic(b *testing.B) {
	cfg := SingleCoreConfig(PaperScale)
	cfg.Instructions = 400_000
	spec, err := SpecFor("milc", cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		ResetRunCache()
		for _, model := range []bool{true, false} {
			c := cfg
			c.ModelSTTraffic = model
			res, err := RunSpecs([]ProgramSpec{spec}, SchemeProFess, c)
			if err != nil {
				b.Fatal(err)
			}
			name := "IPC-milc-noSTtraffic"
			if model {
				name = "IPC-milc-STtraffic"
			}
			b.ReportMetric(res.PerCore[0].IPC, name)
		}
	}
}

// BenchmarkOracle compares MDM against the profile-guided static-placement
// upper bound: how much of the one-shot-placement benefit do MDM's
// probabilistic predictions capture?
func BenchmarkOracle(b *testing.B) {
	cfg := SingleCoreConfig(PaperScale)
	cfg.Instructions = 400_000
	for i := 0; i < b.N; i++ {
		ResetRunCache()
		for _, prog := range []string{"lbm", "soplex"} {
			spec, err := SpecFor(prog, cfg)
			if err != nil {
				b.Fatal(err)
			}
			oracle, err := RunOracle(spec, cfg)
			if err != nil {
				b.Fatal(err)
			}
			mdm, err := RunSpecs([]ProgramSpec{spec}, SchemeMDM, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(Ratio(mdm.PerCore[0].IPC, oracle.PerCore[0].IPC), "IPC-MDM/oracle-"+prog)
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
