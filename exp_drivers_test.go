package profess

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"profess/internal/par"
)

// tinyExp keeps driver smoke tests fast: two programs, one workload,
// small budget.
func tinyExp() ExpOptions {
	return ExpOptions{
		Instructions: 150_000,
		Programs:     []string{"lbm", "soplex"},
		Workloads:    []string{"w02"},
	}
}

func TestRunSinglePrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	rep, err := RunSinglePrograms([]Scheme{SchemePoM, SchemeMDM}, tinyExp())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d, want 2 programs x 2 schemes", len(rep.Rows))
	}
	for _, r := range rep.Rows {
		if r.IPC <= 0 {
			t.Errorf("%s/%s: IPC %v", r.Program, r.Scheme, r.IPC)
		}
	}
	ratios := rep.Ratios(SchemeMDM, SchemePoM, "ipc")
	if len(ratios) != 2 {
		t.Errorf("ratios = %v", ratios)
	}
	if _, ok := rep.row("lbm", SchemeMDM); !ok {
		t.Error("row lookup failed")
	}
	if s := rep.String(); !strings.Contains(s, "lbm") || !strings.Contains(s, "Fig. 5") {
		t.Error("String output incomplete")
	}
	// Unknown metric yields zeros.
	for _, v := range rep.Ratios(SchemeMDM, SchemePoM, "bogus") {
		if v != 0 {
			t.Error("bogus metric should be zero")
		}
	}
}

func TestRunSTCSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	rep, err := RunSTCSensitivity(tinyExp())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 6 {
		t.Fatalf("rows = %d, want 2 programs x 3 sizes", len(rep.Rows))
	}
	sizes := map[int]bool{}
	for _, r := range rep.Rows {
		sizes[r.STCEntries] = true
		if r.STCHitRate <= 0 || r.STCHitRate > 1 {
			t.Errorf("hit rate %v", r.STCHitRate)
		}
	}
	if !sizes[rep.Default] || !sizes[rep.Default/2] || !sizes[rep.Default*2] {
		t.Errorf("sizes = %v around default %d", sizes, rep.Default)
	}
	if rep.String() == "" {
		t.Error("empty render")
	}
}

func TestRunSamplingAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	opts := tinyExp()
	opts.Programs = []string{"bwaves"}
	opts.Instructions = 400_000
	rep, err := RunSamplingAccuracy(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 3 {
		t.Fatalf("cells = %d, want 3 sampling periods", len(rep.Cells))
	}
	// Larger M_samp must not increase the region spread (Table 4 trend).
	if rep.Cells[0].MeanSigmaReq < rep.Cells[2].MeanSigmaReq {
		t.Errorf("sigma_req should shrink with M_samp: %+v", rep.Cells)
	}
	// bwaves runs uncontended: mean raw SF_A ~ 1.
	for _, c := range rep.Cells {
		if c.Periods > 0 && (c.MeanRawSFA < 0.8 || c.MeanRawSFA > 1.2) {
			t.Errorf("uncontended SF_A mean %v at M_samp %d", c.MeanRawSFA, c.MSamp)
		}
	}
	if rep.String() == "" {
		t.Error("empty render")
	}
}

func TestRunTWRSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	rep, err := RunTWRSensitivity(tinyExp())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 3 {
		t.Fatalf("points = %d", len(rep.Points))
	}
	for _, p := range rep.Points {
		if p.GeoMeanRatio <= 0 {
			t.Errorf("point %s ratio %v", p.Setting, p.GeoMeanRatio)
		}
	}
	if rep.String() == "" {
		t.Error("empty render")
	}
}

func TestRunRatioSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	rep, err := RunRatioSensitivity(tinyExp())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 3 {
		t.Fatalf("points = %d", len(rep.Points))
	}
	names := []string{"1:4", "1:8", "1:16"}
	for i, p := range rep.Points {
		if p.Setting != names[i] {
			t.Errorf("point %d = %s", i, p.Setting)
		}
	}
}

func TestRunMultiProgramDriver(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	opts := tinyExp()
	rep, err := RunMultiProgram([]Scheme{SchemePoM, SchemeProFess}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("cells = %d", len(rep.Cells))
	}
	c, ok := rep.Cell("w02", SchemeProFess)
	if !ok {
		t.Fatal("cell lookup failed")
	}
	if len(c.Slowdowns) != 4 || len(c.Programs) != 4 {
		t.Errorf("cell shape: %+v", c)
	}
	series := rep.NormalisedSeries(SchemeProFess, SchemePoM, "ws")
	if len(series) != 1 || series["w02"] <= 0 {
		t.Errorf("series = %v", series)
	}
	if g := GeoMeanSeries(series); g != series["w02"] {
		t.Errorf("gmean of singleton = %v", g)
	}
	if s := rep.String(); !strings.Contains(s, "w02") {
		t.Error("render incomplete")
	}
	if d := rep.SlowdownDetailString([]string{"w02"}); !strings.Contains(d, "profess") {
		t.Error("detail render incomplete")
	}
}

func TestRunMemPodComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	rep, err := RunMemPodComparison(tinyExp())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.SingleRatio) != 2 || len(rep.MultiRatio) != 1 {
		t.Fatalf("shape: %+v", rep)
	}
	for k, v := range rep.SingleRatio {
		if v <= 0 {
			t.Errorf("single %s = %v", k, v)
		}
	}
	if rep.String() == "" {
		t.Error("empty render")
	}
}

// TestRunOracleDeterministic: the oracle's placements derive from a
// profile with ties broken by slot, so repeated runs of one program read
// identical Result JSON.
func TestRunOracleDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := SingleCoreConfig(PaperScale)
	cfg.Instructions = 300_000
	spec, err := SpecFor("lbm", cfg)
	if err != nil {
		t.Fatal(err)
	}
	var first []byte
	for run := 1; run <= 3; run++ {
		res, err := RunOracle(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if run == 1 {
			first = js
		} else if !bytes.Equal(js, first) {
			t.Fatalf("run %d of RunOracle differs from run 1:\n%s\n%s", run, js, first)
		}
	}
}

func TestRunOracleDriver(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := SingleCoreConfig(PaperScale)
	cfg.Instructions = 150_000
	spec, err := SpecFor("lbm", cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunOracle(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != "oracle" {
		t.Errorf("scheme = %s", res.Scheme)
	}
	if res.Counts.Swaps == 0 {
		t.Error("oracle should have placed hot blocks")
	}
	// The oracle performs at most one swap per group.
	static, err := RunSpecs([]ProgramSpec{spec}, SchemeStatic, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerCore[0].IPC <= static.PerCore[0].IPC {
		t.Errorf("oracle IPC %v should beat static %v", res.PerCore[0].IPC, static.PerCore[0].IPC)
	}
}

// TestRunScale16WorkerCurve pins the scaling curve's worker counts: 1,
// 2, 4 and 8, capped at GOMAXPROCS, with the 1-worker point always kept.
func TestRunScale16WorkerCurve(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	opts := ExpOptions{Instructions: 5_000}
	for _, tc := range []struct {
		procs int
		want  []int
	}{
		{1, []int{1}},
		{3, []int{1, 2}},
		{8, []int{1, 2, 4, 8}},
	} {
		runtime.GOMAXPROCS(tc.procs)
		rep, err := RunScale16(SchemeProFess, opts)
		if err != nil {
			t.Fatal(err)
		}
		var got []int
		for _, p := range rep.Points {
			got = append(got, p.Shards)
		}
		if !slices.Equal(got, tc.want) || rep.GoMaxProcs != tc.procs {
			t.Errorf("GOMAXPROCS %d: workers %v (report says GOMAXPROCS %d), want %v", tc.procs, got, rep.GoMaxProcs, tc.want)
		}
	}
}

func TestExpOptionsDefaults(t *testing.T) {
	var o ExpOptions
	if o.scale() != PaperScale {
		t.Error("default scale")
	}
	if len(o.programs()) != 9 {
		t.Errorf("default programs = %d (libquantum excluded per Fig. 5)", len(o.programs()))
	}
	if len(o.workloads()) != 19 {
		t.Errorf("default workloads = %d", len(o.workloads()))
	}
	if o.singleConfig().Cores != 1 || o.multiConfig().Cores != 4 {
		t.Error("config shapes")
	}
}

// The TestParallelFor* tests cover par.For, the pool every experiment
// driver fans its cells out on.
func TestParallelFor(t *testing.T) {
	var sum [100]int
	err := par.For(context.Background(), 100, 8, func(i int) error {
		sum[i] = i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range sum {
		if v != i {
			t.Fatalf("index %d not executed", i)
		}
	}
	// Errors propagate without abandoning the remaining items (a nil
	// context is the background context).
	calls := 0
	err = par.For(nil, 10, 1, func(i int) error {
		calls++
		if i == 3 {
			return errBoom
		}
		return nil
	})
	if !errors.Is(err, errBoom) {
		t.Errorf("err = %v", err)
	}
	if calls != 10 {
		t.Errorf("every item should still run after an error, ran %d", calls)
	}
	if par.For(context.Background(), 0, 4, func(int) error { return errBoom }) != nil {
		t.Error("zero jobs should be a no-op")
	}
}

func TestParallelForMultiError(t *testing.T) {
	err := par.For(context.Background(), 6, 3, func(i int) error {
		if i%2 == 1 {
			return errString(string(rune('a' + i)))
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected a joined error")
	}
	for _, want := range []string{"b", "d", "f"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error %q missing %q", err, want)
		}
	}
}

func TestParallelForPanicRecovery(t *testing.T) {
	ran := make([]bool, 8)
	err := par.For(context.Background(), 8, 4, func(i int) error {
		if i == 2 {
			panic("kaboom")
		}
		ran[i] = true
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic should surface as an error, got %v", err)
	}
	if !strings.Contains(err.Error(), "item 2 panicked") {
		t.Errorf("error should name the item: %v", err)
	}
	for i, ok := range ran {
		if i != 2 && !ok {
			t.Errorf("item %d lost to the panic", i)
		}
	}
}

func TestParallelForCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := par.For(ctx, 100, 1, func(i int) error {
		calls++
		if i == 4 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls >= 100 {
		t.Errorf("cancellation should stop new work, ran %d", calls)
	}
}

var errBoom = errString("boom")

type errString string

func (e errString) Error() string { return string(e) }

func TestRunMultiProgramSurvivesWorkerPanic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	opts := tinyExp()
	opts.Parallelism = 2
	cfg := opts.multiConfig()
	specs, err := workloadSpecs("w02", cfg)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]Scheme{}
	for _, s := range []Scheme{SchemePoM, SchemeProFess} {
		keys[runKey(cfg, specs, s)] = s
	}

	// The PoM mix cell panics whenever it simulates: the sweep must
	// surface the recovered panic as an error and keep the sibling cell's
	// result. A cell is a pure function of its key, so it is not retried.
	ResetRunCache()
	attempts := map[Scheme]int{}
	var mu sync.Mutex
	simCellHook = func(key string) error {
		s, ok := keys[key]
		if !ok {
			return nil
		}
		mu.Lock()
		attempts[s]++
		mu.Unlock()
		if s == SchemePoM {
			panic("injected cell failure")
		}
		return nil
	}
	defer func() { simCellHook = nil }()

	rep, err := RunMultiProgram([]Scheme{SchemePoM, SchemeProFess}, opts)
	if err == nil {
		t.Fatal("panicking cell must surface as an error")
	}
	if !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "injected cell failure") {
		t.Errorf("error should carry the recovered panic: %v", err)
	}
	if rep == nil {
		t.Fatal("partial report lost")
	}
	if _, ok := rep.Cell("w02", SchemeProFess); !ok {
		t.Error("sibling cell lost to the panic")
	}
	if _, ok := rep.Cell("w02", SchemePoM); ok {
		t.Error("panicked cell should have no result")
	}
	mu.Lock()
	defer mu.Unlock()
	if attempts[SchemePoM] != 1 || attempts[SchemeProFess] != 1 {
		t.Errorf("mix cells simulated %v times, want each once", attempts)
	}
}
