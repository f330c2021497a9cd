package profess

import (
	"strings"
	"testing"
)

func TestSingleProgramCSV(t *testing.T) {
	rep := &SingleProgramReport{Rows: []SingleProgramRow{
		{Program: "lbm", Scheme: SchemePoM, IPC: 0.1, M1Fraction: 0.7, STCHitRate: 0.9, AvgReadLat: 800, Swaps: 42},
		{Program: "lbm", Scheme: SchemeMDM, IPC: 0.2, M1Fraction: 0.9, STCHitRate: 0.9, AvgReadLat: 600, Swaps: 17},
	}}
	csv := rep.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[0], "program,scheme,ipc") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "lbm,pom,0.1000") {
		t.Errorf("row = %q", lines[1])
	}
	if !strings.Contains(lines[2], "mdm") || !strings.Contains(lines[2], "17") {
		t.Errorf("row = %q", lines[2])
	}
}

func TestMultiProgramCSV(t *testing.T) {
	rep := &MultiProgramReport{
		Schemes: []Scheme{SchemePoM},
		Cells: []MultiProgramCell{{
			Workload: "w09", Scheme: SchemePoM,
			WeightedSpeedup: 1.2, MaxSlowdown: 3.4, EnergyEff: 5e7, SwapFraction: 0.01,
			Slowdowns: []float64{3.4, 2.0}, Programs: []string{"mcf", "lbm"},
		}},
	}
	csv := rep.CSV()
	if !strings.Contains(csv, "w09,pom,1.2000,3.4000") {
		t.Errorf("summary row missing:\n%s", csv)
	}
	if !strings.Contains(csv, "w09,pom,mcf,3.4000") {
		t.Errorf("slowdown row missing:\n%s", csv)
	}
	if !strings.Contains(csv, "w09,pom,lbm,2.0000") {
		t.Errorf("slowdown row missing:\n%s", csv)
	}
}

func TestSamplingAndSensitivityCSV(t *testing.T) {
	sa := &SamplingAccuracyReport{Cells: []SamplingAccuracyCell{
		{Program: "milc", MSamp: 4096, MeanSigmaReq: 40, SigmaRawSFA: 50, SigmaAvgSFA: 5, MeanRawSFA: 1.2, Periods: 10},
	}}
	if !strings.Contains(sa.CSV(), "milc,4096,40.0000") {
		t.Errorf("sampling CSV:\n%s", sa.CSV())
	}
	sr := &SensitivityReport{Axis: "x", Points: []SensitivityPoint{{Setting: "1:4", GeoMeanRatio: 1.1}}}
	if !strings.Contains(sr.CSV(), "1:4,1.1000") {
		t.Errorf("sensitivity CSV:\n%s", sr.CSV())
	}
	st := &STCSensitivityReport{Default: 128, Rows: []STCSensitivityRow{{Program: "mcf", STCEntries: 64, IPC: 0.1, STCHitRate: 0.5}}}
	if !strings.Contains(st.CSV(), "mcf,64,0.1000,0.5000") {
		t.Errorf("stc CSV:\n%s", st.CSV())
	}
	am := &AMMATReport{SingleRatio: map[string]float64{"lbm": 1.2}, MultiRatio: map[string]float64{"w09": 1.1}}
	csv := am.CSV()
	if !strings.Contains(csv, "single,lbm,1.2000") || !strings.Contains(csv, "multi,w09,1.1000") {
		t.Errorf("ammat CSV:\n%s", csv)
	}
}

func TestCSVQuoting(t *testing.T) {
	got := csvRow(`plain`, `has,comma`, `has"quote`)
	want := `plain,"has,comma","has""quote"`
	if got != want {
		t.Errorf("csvRow = %q, want %q", got, want)
	}
}

// TestReportsImplementCSVer pins the CSV surface used by professbench.
func TestReportsImplementCSVer(t *testing.T) {
	for _, v := range []interface{}{
		&SingleProgramReport{},
		&STCSensitivityReport{},
		&SamplingAccuracyReport{},
		&SensitivityReport{},
		&MultiProgramReport{},
		&AMMATReport{},
	} {
		if _, ok := v.(CSVer); !ok {
			t.Errorf("%T does not implement CSVer", v)
		}
	}
}
