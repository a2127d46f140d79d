// Skyserver: a head-to-head on the paper's headline workload — the
// SkyServer-like session — between a progressive index, database
// cracking, a full scan and an up-front full index. Reproduces the
// qualitative content of Table 2 at laptop scale.
//
// Run with:
//
//	go run ./examples/skyserver
package main

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/data"
	"repro/internal/workload"
)

func main() {
	const n = 1_000_000
	const queries = 300
	values := data.SkyServer(n, 42)
	gen := workload.SkyServer(data.SkyServerDomain, 43)

	contenders := []progidx.Options{
		{Strategy: progidx.StrategyFullScan},
		{Strategy: progidx.StrategyFullIndex},
		{Strategy: progidx.StrategyStandardCracking},
		{Strategy: progidx.StrategyAdaptiveAdaptive},
		{Strategy: progidx.StrategyQuicksort, Budget: time.Millisecond, Adaptive: true, Calibrate: true},
		{Strategy: progidx.StrategyRadixMSD, Budget: time.Millisecond, Adaptive: true, Calibrate: true},
	}

	fmt.Printf("%-6s %12s %12s %12s %12s\n", "index", "first query", "worst query", "cumulative", "converged@")
	for _, opt := range contenders {
		idx := progidx.MustNew(values, opt)
		var first, worst, total time.Duration
		converged := "never"
		for i := 0; i < queries; i++ {
			q := gen.Query(i)
			start := time.Now()
			if _, err := idx.Execute(progidx.Request{Pred: progidx.Range(q.Lo, q.Hi)}); err != nil {
				panic(err)
			}
			lat := time.Since(start)
			total += lat
			if i == 0 {
				first = lat
			}
			if lat > worst {
				worst = lat
			}
			if converged == "never" && idx.Converged() {
				converged = fmt.Sprintf("%d", i+1)
			}
		}
		fmt.Printf("%-6s %12v %12v %12v %12s\n",
			idx.Name(),
			first.Round(time.Microsecond),
			worst.Round(time.Microsecond),
			total.Round(time.Microsecond),
			converged)
	}

	fmt.Println(`
Reading the table (cf. Table 2 of the paper):
  - FS never gets faster; FI pays everything on query one;
  - STD's worst query is its first (copy + first crack), and the
    drifting workload keeps hitting unrefined pieces;
  - the progressive indexes start at ~1.2x a scan, hold that cost
    steady until convergence, then drop to B+-tree speed.`)
}
