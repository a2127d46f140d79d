// Decision: the paper's Figure 11 decision tree in action. For four
// workload scenarios, ask Recommend for a strategy, run the scenario,
// and compare against the other progressive algorithms to show the
// recommendation holds.
//
// Run with:
//
//	go run ./examples/decision
package main

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/data"
	"repro/internal/workload"
)

type scenario struct {
	name    string
	hints   progidx.WorkloadHints
	values  []int64
	queries []workload.Query
}

func main() {
	const n = 500_000
	const queries = 250

	uniform := data.Uniform(n, 1)
	skewed := data.Skewed(n, 2)

	scenarios := []scenario{
		{
			name:    "range queries on uniform data",
			hints:   progidx.WorkloadHints{},
			values:  uniform,
			queries: workload.Random(int64(n), 3).Queries(queries),
		},
		{
			name:    "range queries on skewed data",
			hints:   progidx.WorkloadHints{SkewedData: true},
			values:  skewed,
			queries: workload.Random(int64(n), 4).Queries(queries),
		},
		{
			name:    "point lookups only",
			hints:   progidx.WorkloadHints{PointQueriesOnly: true},
			values:  uniform,
			queries: workload.PointVersion(workload.Random(int64(n), 5)).Queries(queries),
		},
		{
			name:    "memory-constrained host",
			hints:   progidx.WorkloadHints{MemoryConstrained: true},
			values:  uniform,
			queries: workload.Random(int64(n), 6).Queries(queries),
		},
	}

	all := []progidx.Strategy{
		progidx.StrategyQuicksort, progidx.StrategyBucketsort,
		progidx.StrategyRadixLSD, progidx.StrategyRadixMSD,
	}

	for _, sc := range scenarios {
		pick := progidx.Recommend(sc.hints)
		fmt.Printf("%s\n  decision tree picks: %s\n", sc.name, pick)
		for _, s := range all {
			// The paper's setup: adaptive budget of ~20% of a scan.
			// 50µs approximates that for a 500k-row column; at this
			// budget the pre-convergence behaviour dominates, which is
			// where the algorithms differ.
			idx := progidx.MustNew(sc.values, progidx.Options{
				Strategy: s, Budget: 50 * time.Microsecond, Adaptive: true, Calibrate: true,
			})
			start := time.Now()
			converged := "not converged"
			for i, q := range sc.queries {
				if _, err := idx.Execute(progidx.Request{Pred: progidx.Range(q.Lo, q.Hi)}); err != nil {
					panic(err)
				}
				if converged == "not converged" && idx.Converged() {
					converged = fmt.Sprintf("converged @%d", i+1)
				}
			}
			total := time.Since(start)
			marker := "  "
			if s == pick {
				marker = "=>"
			}
			fmt.Printf("  %s %-4s cumulative %9v   %s\n", marker, s, total.Round(time.Microsecond), converged)
		}
		fmt.Println()
	}
}
