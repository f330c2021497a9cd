package sim

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

func TestRunContextCancellation(t *testing.T) {
	cfg := tinyConfig(4)
	cfg.Instructions = 50_000_000 // far more than the deadline allows
	specs, err := SpecsForWorkload(mustWorkload(t, "w02"), PaperScale)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the run must abort at the first check
	if _, err := RunContext(ctx, cfg, specs, SchemeMDM); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run returned %v, want context.Canceled", err)
	}

	dctx, dcancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer dcancel()
	start := time.Now()
	if _, err := RunContext(dctx, cfg, specs, SchemeMDM); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadlined run returned %v, want context.DeadlineExceeded", err)
	}
	// The deadline must cut the run short well before the huge instruction
	// budget completes (allow generous slack for slow machines).
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("deadlined run took %v", elapsed)
	}

	sampledCancellation(t)
}

// sampledCancellation is TestRunContextCancellation's sampled case, whose
// fast-forward spans run on two goroutines: an already-cancelled context
// and a deadline that lands mid-span must each return the context's
// error, no goroutine may outlive the run, and the arena's machine must
// then run a sampled cell byte-identical to a fresh one.
func sampledCancellation(t *testing.T) {
	specs, err := SpecsForWorkload(mustWorkload(t, "w09"), PaperScale)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sampleCfg(0.05)
	fresh, err := Run(cfg, specs, SchemeProFess)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := renderRun(t, fresh)
	long := cfg
	long.Instructions = 50_000_000 // far more than the deadline allows

	arena := &SystemArena{}
	if _, err := arena.RunContext(context.Background(), cfg, specs, SchemeProFess); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name    string
		ctx     func() (context.Context, context.CancelFunc)
		wantErr error
	}{
		{"sampled-cancelled", func() (context.Context, context.CancelFunc) { return cancelled, cancel }, context.Canceled},
		{"sampled-deadline", func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 50*time.Millisecond)
		}, context.DeadlineExceeded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := tc.ctx()
			defer cancel()
			base := runtime.NumGoroutine()
			start := time.Now()
			if _, err := arena.RunContext(ctx, long, specs, SchemeProFess); !errors.Is(err, tc.wantErr) {
				t.Errorf("run returned %v, want %v", err, tc.wantErr)
			}
			if elapsed := time.Since(start); elapsed > 30*time.Second {
				t.Errorf("aborted run took %v", elapsed)
			}
			settleGoroutines(t, base)
			assertArenaReuse(t, arena, cfg, specs, want)
		})
	}
}

func TestRunContextBackgroundCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := tinyConfig(4)
	specs, err := SpecsForWorkload(mustWorkload(t, "w02"), PaperScale)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunContext(context.Background(), cfg, specs, SchemeMDM)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 {
		t.Error("no cycles simulated")
	}
}
