package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"strings"
	"testing"

	"profess"
)

// professimArgsEnv holds the tab-separated command line that
// TestProfessimProcess runs main with.
const professimArgsEnv = "PROFESSIM_TEST_ARGS"

// TestProfessimProcess is not a test in its own right: the other tests
// re-exec the test binary with professimArgsEnv set, and this runs
// professim's main with those arguments, so they see its stdout, stderr
// and exit status.
func TestProfessimProcess(t *testing.T) {
	args := os.Getenv(professimArgsEnv)
	if args == "" {
		t.Skip("re-exec helper that runs professim's main")
	}
	os.Args = append([]string{"professim"}, strings.Split(args, "\t")...)
	main()
	os.Exit(0) // before the test framework prints its verdict to stdout
}

// professim runs professim with args in a child process and returns its
// stdout, failing the test on a non-zero exit.
func professim(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestProfessimProcess$", "-test.count=1")
	cmd.Env = append(os.Environ(), professimArgsEnv+"="+strings.Join(args, "\t"))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("professim %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return out
}

// TestWorkloadJSON: with -json, a -workload run prints one JSON document
// per scheme and nothing else: a WorkloadResult with the stand-alone
// baselines, a Result without them.
func TestWorkloadJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a four-program simulation and its baselines")
	}
	args := []string{"-workload", "w09", "-instr", "100000", "-cachedir", "off", "-json"}

	out := professim(t, args...)
	var wr profess.WorkloadResult
	if err := json.Unmarshal(out, &wr); err != nil {
		t.Fatalf("stdout is not one WorkloadResult: %v\n%s", err, out)
	}
	if wr.Workload != "w09" || wr.Scheme != profess.SchemeProFess || wr.Result == nil ||
		len(wr.Result.PerCore) != 4 || len(wr.Slowdowns) != 4 || wr.WeightedSpeedup <= 0 {
		t.Errorf("workload result: %+v", wr)
	}

	out = professim(t, append(args, "-baselines=false")...)
	var res profess.Result
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatalf("stdout with -baselines=false is not one Result: %v\n%s", err, out)
	}
	if res.Scheme != string(profess.SchemeProFess) || len(res.PerCore) != 4 || res.Cycles <= 0 {
		t.Errorf("result: %+v", res)
	}
}
