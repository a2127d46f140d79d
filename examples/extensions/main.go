// Extensions: the two "Indexing Methods" ideas from the paper's
// future-work section (§6), implemented and raced against the paper's
// own best point-query technique.
//
//   - a progressive hash index (PHASH): point queries on the indexed
//     prefix become hash lookups;
//   - progressive column imprints (PIMP): a secondary index that skips
//     cachelines without ever reordering the column.
//
// Run with:
//
//	go run ./examples/extensions
package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro"
	"repro/internal/data"
)

func main() {
	const n = 1_000_000
	values := data.Uniform(n, 1)
	rng := rand.New(rand.NewSource(2))

	fmt.Println("Point-query workload, 500 queries, δ=0.1 per query:")
	fmt.Printf("%-6s %14s %14s %12s\n", "index", "first query", "last query", "cumulative")
	for _, s := range []progidx.Strategy{
		progidx.StrategyFullScan,
		progidx.StrategyRadixLSD, // the paper's point-query pick (Figure 11)
		progidx.StrategyProgressiveHash,
		progidx.StrategyImprints,
	} {
		idx := progidx.MustNew(values, progidx.Options{Strategy: s, Delta: 0.1})
		var first, last, total time.Duration
		queries := rand.New(rand.NewSource(3))
		for q := 0; q < 500; q++ {
			v := values[queries.Intn(n)]
			start := time.Now()
			// An explicit Point predicate: phash answers from its hash
			// table and plsd from a single radix bucket, instead of
			// degenerating to a [v, v] range scan.
			ans, err := idx.Execute(progidx.Request{Pred: progidx.Point(v)})
			d := time.Since(start)
			if err != nil {
				panic(err)
			}
			if ans.Count < 1 {
				panic("lost a value")
			}
			total += d
			if q == 0 {
				first = d
			}
			last = d
		}
		fmt.Printf("%-6s %14v %14v %12v\n", idx.Name(),
			first.Round(time.Microsecond), last.Round(time.Microsecond), total.Round(time.Microsecond))
	}

	fmt.Println("\nImprints pruning on clustered data (secondary index, column untouched):")
	sky := data.SkyServer(n, 4)
	imp := progidx.MustNew(sky, progidx.Options{Strategy: progidx.StrategyImprints, Delta: 1})
	count := func(lo, hi int64) int64 {
		ans, err := imp.Execute(progidx.Request{Pred: progidx.Range(lo, hi)})
		if err != nil {
			panic(err)
		}
		return ans.Count
	}
	count(0, 1)                    // build all imprints in one go
	count(0, data.SkyServerDomain) // warm the column and marks
	for _, width := range []int64{1e6, 10e6, 100e6} {
		lo := int64(180e6)
		start := time.Now()
		rows := count(lo, lo+width)
		d := time.Since(start)
		fmt.Printf("  range %3.0f°–%3.0f°: %8d rows in %8v\n",
			float64(lo)/1e6, float64(lo+width)/1e6, rows, d.Round(time.Microsecond))
	}
	_ = rng
}
