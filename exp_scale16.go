package profess

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"profess/internal/stats"
)

// Scale16Point is one shard count's measurement on the Scale16 fleet.
type Scale16Point struct {
	Shards int
	// WallMS is the wall-clock run time — the only machine-dependent
	// number in the report; everything simulated is byte-identical across
	// the sweep by construction (and verified, see Identical).
	WallMS float64
	// Speedup is the baseline point's wall time over this point's.
	Speedup float64
	// Identical records the byte-comparison of this point's Result JSON
	// against the baseline point (always true on a successful run —
	// divergence aborts the experiment).
	Identical bool
}

// Scale16Report is the worker-count scaling curve of the clustered runner
// on the sixteen-program, eight-cluster Scale16 configuration.
type Scale16Report struct {
	Scheme Scheme
	// GoMaxProcs records the host parallelism the wall times were
	// measured under; speedups cannot exceed it no matter the shard count.
	GoMaxProcs  int
	Cycles      int64
	ClusterDone []int64
	// Result is the (shared) simulation outcome of every point.
	Result *Result
	Points []Scale16Point
}

// String renders the scaling curve as a table.
func (r *Scale16Report) String() string {
	t := stats.NewTable("shards", "wall ms", "speedup", "identical")
	for _, p := range r.Points {
		t.AddRowf(p.Shards, fmt.Sprintf("%.1f", p.WallMS), p.Speedup, p.Identical)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "scale16 scaling curve — %s, %d cycles, GOMAXPROCS=%d\n", r.Scheme, r.Cycles, r.GoMaxProcs)
	fmt.Fprintf(&b, "(every point is byte-identical by construction; wall times are this host's)\n\n")
	b.WriteString(t.String())
	fmt.Fprintf(&b, "cluster completion cycles: %v\n", r.ClusterDone)
	return b.String()
}

// CSV renders the points for machine consumption.
func (r *Scale16Report) CSV() string {
	var b strings.Builder
	b.WriteString("shards,wall_ms,speedup,gomaxprocs\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%d,%.3f,%.4f,%d\n", p.Shards, p.WallMS, p.Speedup, r.GoMaxProcs)
	}
	return b.String()
}

// RunScale16 runs the Scale16 fleet once per worker count — 1, 2, 4 and
// 8, leaving out counts above GOMAXPROCS, which cannot run faster —
// verifies every run is byte-identical to the first, and reports the
// wall-clock scaling curve. The run cache is deliberately bypassed: the
// points are identical cells by design, and serving point N from point
// 1's cache entry would fake both the timing and the identity check. A
// sweep plan therefore lists it as unplannable.
func RunScale16(scheme Scheme, opts ExpOptions) (*Scale16Report, error) {
	cfg := Scale16Config(opts.scale())
	if opts.Instructions > 0 {
		cfg.Instructions = opts.Instructions
	}
	cfg.Faults = opts.Faults
	specs, err := Fleet16Specs(cfg.Scale)
	if err != nil {
		return nil, err
	}
	rep := &Scale16Report{Scheme: scheme, GoMaxProcs: runtime.GOMAXPROCS(0)}
	var (
		baseJSON []byte
		baseWall time.Duration
	)
	for n := 1; n <= min(8, rep.GoMaxProcs); n *= 2 {
		c := cfg
		c.Shards = n
		t0 := time.Now()
		res, err := runSimUncached(opts.ctx(), c, specs, scheme)
		wall := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("scale16 shards=%d: %w", n, err)
		}
		js, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		pt := Scale16Point{Shards: n, WallMS: float64(wall.Microseconds()) / 1000, Identical: true, Speedup: 1}
		if n == 1 {
			baseJSON, baseWall = js, wall
			rep.Result = res
			rep.Cycles = res.Cycles
			rep.ClusterDone = res.ClusterDone
		} else {
			if !bytes.Equal(js, baseJSON) {
				return nil, fmt.Errorf("scale16: shards=%d produced a different Result than shards=1 — determinism contract broken", n)
			}
			if wall > 0 {
				pt.Speedup = float64(baseWall) / float64(wall)
			}
		}
		rep.Points = append(rep.Points, pt)
	}
	return rep, nil
}
