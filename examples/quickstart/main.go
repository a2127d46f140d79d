// Quickstart: build a progressive index over a column of integers and
// watch it pay for itself.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro"
)

func main() {
	// A column of 2M random integers — pretend it is a freshly loaded
	// data set a data scientist wants to explore right now, with no
	// time to build an index up front.
	rng := rand.New(rand.NewSource(1))
	values := make([]int64, 2_000_000)
	for i := range values {
		values[i] = rng.Int63n(1_000_000)
	}

	// A progressive radixsort index with an adaptive budget: every
	// query is allowed to run ~20% longer than a plain scan, and that
	// overhead is invested into index construction. Calibrate measures
	// the machine's scan/copy/swap costs so the budget is honored in
	// wall-clock terms.
	idx, err := progidx.New(values, progidx.Options{
		Strategy:  progidx.StrategyRadixMSD,
		Budget:    500 * time.Microsecond,
		Adaptive:  true,
		Calibrate: true,
	})
	if err != nil {
		panic(err)
	}

	// The request/response API: describe the predicate and the
	// aggregates; the answer carries the values and the per-query
	// indexing stats inline.
	fmt.Println("query   phase          latency      sum of matches")
	for q := 1; q <= 400; q++ {
		lo := rng.Int63n(900_000)
		start := time.Now()
		ans, err := idx.Execute(progidx.Request{
			Pred: progidx.Range(lo, lo+100_000),
			Aggs: progidx.Sum | progidx.Count | progidx.Avg,
		})
		lat := time.Since(start)
		if err != nil {
			panic(err)
		}
		if q <= 5 || q%50 == 0 || (idx.Converged() && q%50 == 1) {
			fmt.Printf("%5d   %-12s  %9v   %d (%d rows, mean %.1f)\n",
				q, ans.Stats.Phase, lat.Round(time.Microsecond), ans.Sum, ans.Count, ans.Avg)
		}
		if idx.Converged() && q > 100 {
			fmt.Printf("\nconverged: the index is now a B+-tree; queries cost microseconds.\n")
			break
		}
	}
}
