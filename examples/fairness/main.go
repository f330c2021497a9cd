// Fairness: reproduce the paper's motivating story (Figs. 2 and 16) on
// workload w09 — under PoM some programs suffer excessive slowdowns;
// MDM speeds everyone a little; ProFess deliberately slows the least
// suffering programs to help the most suffering one, reducing the maximum
// slowdown while also improving weighted speedup.
//
//	go run ./examples/fairness
package main

import (
	"fmt"
	"log"

	"profess"
)

func main() {
	cfg := profess.MultiCoreConfig(profess.PaperScale)
	cfg.Instructions = 1_000_000 // demo-sized; raise for fidelity

	fmt.Println("workload w09 (mcf - soplex - lbm - GemsFDTD), quad-core system")
	fmt.Println()
	for _, scheme := range []profess.Scheme{profess.SchemePoM, profess.SchemeMDM, profess.SchemeProFess} {
		wr, err := profess.RunWorkload("w09", scheme, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s:\n", scheme)
		for i, c := range wr.Result.PerCore {
			fmt.Printf("  %-10s slowdown %.2f  (IPC %.3f, alone %.3f)\n",
				c.Program, wr.Slowdowns[i], c.FirstIPC, wr.AloneIPC[i])
		}
		fmt.Printf("  -> max slowdown %.2f (unfairness), weighted speedup %.3f, swap fraction %.4f\n\n",
			wr.MaxSlowdown, wr.WeightedSpeedup, wr.Result.SwapFraction)
	}
	fmt.Println("Expected shape: ProFess has the lowest max slowdown without giving")
	fmt.Println("up weighted speedup (the paper reports -15% unfairness, +12% WS).")
}
