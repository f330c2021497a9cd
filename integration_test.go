package profess

import (
	"math"
	"testing"
)

// TestFairnessShape verifies the paper's headline claim at test scale:
// across contended workloads, ProFess improves fairness (reduces the max
// slowdown) relative to PoM without losing weighted speedup, and it cuts
// the swap fraction (§5.4 reports -24% swaps on average).
func TestFairnessShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := MultiCoreConfig(PaperScale)
	cfg.Instructions = 400_000

	wls := []string{"w09", "w19"}
	var sdnRatios, wsRatios, swapRatios []float64
	for _, wl := range wls {
		pom, err := RunWorkload(wl, SchemePoM, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := RunWorkload(wl, SchemeProFess, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: maxSdn pom=%.3f profess=%.3f | WS pom=%.3f profess=%.3f | swapFrac pom=%.4f profess=%.4f",
			wl, pom.MaxSlowdown, pf.MaxSlowdown, pom.WeightedSpeedup, pf.WeightedSpeedup,
			pom.Result.SwapFraction, pf.Result.SwapFraction)
		sdnRatios = append(sdnRatios, pf.MaxSlowdown/pom.MaxSlowdown)
		wsRatios = append(wsRatios, pf.WeightedSpeedup/pom.WeightedSpeedup)
		if pom.Result.SwapFraction > 0 {
			swapRatios = append(swapRatios, pf.Result.SwapFraction/pom.Result.SwapFraction)
		}
	}
	gmean := func(xs []float64) float64 {
		p := 1.0
		for _, x := range xs {
			p *= x
		}
		return math.Pow(p, 1/float64(len(xs)))
	}
	if g := gmean(sdnRatios); g > 1.02 {
		t.Errorf("ProFess max-slowdown ratio vs PoM = %.3f, want <= ~1 (paper: 0.85)", g)
	}
	if g := gmean(wsRatios); g < 0.98 {
		t.Errorf("ProFess weighted-speedup ratio vs PoM = %.3f, want >= ~1 (paper: 1.12)", g)
	}
}

// TestMDMvsProFessFairness verifies the RSM contribution specifically:
// guided MDM (ProFess) should not be less fair than raw MDM overall.
func TestMDMvsProFessFairness(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := MultiCoreConfig(PaperScale)
	cfg.Instructions = 400_000
	var ratios []float64
	for _, wl := range []string{"w09", "w15"} {
		mdm, err := RunWorkload(wl, SchemeMDM, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := RunWorkload(wl, SchemeProFess, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: maxSdn mdm=%.3f profess=%.3f", wl, mdm.MaxSlowdown, pf.MaxSlowdown)
		ratios = append(ratios, pf.MaxSlowdown/mdm.MaxSlowdown)
	}
	p := 1.0
	for _, r := range ratios {
		p *= r
	}
	if g := math.Pow(p, 1/float64(len(ratios))); g > 1.05 {
		t.Errorf("ProFess should not be meaningfully less fair than MDM: ratio %.3f", g)
	}
}

// TestFig13ProFessFairerThanMDM pins the paper's central result at the
// archived budget (1.5M instructions per program, professbench_all.txt):
// over all 19 Table 10 mixes at full fidelity, ProFess's gmean max
// slowdown normalised to PoM (Fig. 13) is below MDM's (Fig. 10). The
// archive records 0.757 against 0.781, with ProFess fairer in 15 of 19
// mixes. The tolerance is zero: runs are deterministic, so there is no
// noise to allow for, and a tie fails. A tie is what a sweep reports when
// it renders each ProFess cell from its MDM cell.
func TestFig13ProFessFairerThanMDM(t *testing.T) {
	if testing.Short() {
		t.Skip("57 multi-program cells plus their baselines at 1.5M instructions")
	}
	rep, err := RunMultiProgram([]Scheme{SchemePoM, SchemeMDM, SchemeProFess}, ExpOptions{Instructions: 1_500_000})
	if err != nil {
		t.Fatal(err)
	}
	mdm := rep.NormalisedSeries(SchemeMDM, SchemePoM, "maxsdn")
	pf := rep.NormalisedSeries(SchemeProFess, SchemePoM, "maxsdn")
	if n := len(Workloads()); len(mdm) != n || len(pf) != n {
		t.Fatalf("normalised series cover %d (MDM) and %d (ProFess) mixes, want %d", len(mdm), len(pf), n)
	}
	fairer := 0
	for wl, r := range pf {
		if r < mdm[wl] {
			fairer++
		}
	}
	gm, gp := GeoMeanSeries(mdm), GeoMeanSeries(pf)
	t.Logf("gmean max slowdown normalised to PoM: MDM %.3f, ProFess %.3f; ProFess fairer in %d of %d mixes", gm, gp, fairer, len(pf))
	if !(gp < gm) {
		t.Errorf("ProFess gmean max slowdown vs PoM = %.3f, MDM = %.3f; Fig. 13 must be below Fig. 10", gp, gm)
	}
}
