// Shard-scaling benchmark for BENCH_PR8.json: the Scale16 fleet at each
// worker count, reporting "shards", "speedup" (vs this run's shards=1
// point) and "gomaxprocs" so cmd/benchjson can render the scaling curve.
// Results are byte-identical across the sweep — the benchmark verifies
// that too — so speedup is purely a throughput number of the clustered
// runner, bounded above by GOMAXPROCS.
package profess

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"time"
)

func BenchmarkScale16Shards(b *testing.B) {
	cfg := Scale16Config(PaperScale)
	cfg.Instructions = 100_000
	specs, err := Fleet16Specs(cfg.Scale)
	if err != nil {
		b.Fatal(err)
	}
	var (
		baseNs   float64
		baseJSON []byte
	)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c := cfg
			c.Shards = shards
			b.ResetTimer()
			start := time.Now()
			var last *Result
			for i := 0; i < b.N; i++ {
				// Bypass the run cache: every shard count shares one cache
				// key on purpose, and a cache hit here would time a lookup.
				res, err := runSimUncached(context.Background(), c, specs, SchemeProFess)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			perOp := float64(time.Since(start).Nanoseconds()) / float64(b.N)
			js, err := json.Marshal(last)
			if err != nil {
				b.Fatal(err)
			}
			if shards == 1 {
				baseNs, baseJSON = perOp, js
			} else if !bytes.Equal(js, baseJSON) {
				b.Fatal("result diverged from the shards=1 baseline")
			}
			b.ReportMetric(float64(shards), "shards")
			if baseNs > 0 {
				b.ReportMetric(baseNs/perOp, "speedup")
			}
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
		})
	}
}
