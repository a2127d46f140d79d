// Exploration: the interactive data analysis scenario from the paper's
// introduction. A data scientist zooms into a region of interest,
// issuing a query every time they adjust the view. The paper's
// interactivity threshold (Liu & Heer: 500 ms) must never be violated,
// which rules out building a full index up front — so the progressive
// index builds itself under an adaptive budget while the session runs.
//
// Run with:
//
//	go run ./examples/exploration
package main

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/data"
	"repro/internal/workload"
)

func main() {
	const n = 2_000_000
	values := data.SkyServer(n, 7)

	idx, err := progidx.New(values, progidx.Options{
		Strategy:  progidx.Recommend(progidx.WorkloadHints{}), // Figure 11 decision tree
		Budget:    time.Millisecond,
		Adaptive:  true,
		Calibrate: true,
	})
	if err != nil {
		panic(err)
	}

	fmt.Printf("strategy picked by the decision tree: %s\n\n", idx.Name())

	// The session: zoom into the densest sky region, then pan around.
	zoom := workload.ZoomIn(data.SkyServerDomain, 60)
	pan := workload.SkyServer(data.SkyServerDomain, 99)

	var worst, total time.Duration
	queries := 0
	session := func(name string, gen workload.Generator, count int) {
		fmt.Printf("-- %s --\n", name)
		for i := 0; i < count; i++ {
			q := gen.Query(i)
			start := time.Now()
			res, err := idx.Execute(progidx.Request{Pred: progidx.Range(q.Lo, q.Hi)})
			lat := time.Since(start)
			if err != nil {
				panic(err)
			}
			total += lat
			queries++
			if lat > worst {
				worst = lat
			}
			if i%15 == 0 {
				deg := func(v int64) float64 { return float64(v) / 1e6 }
				fmt.Printf("  RA in [%7.2f°, %7.2f°): %9d objects   %8v\n",
					deg(q.Lo), deg(q.Hi), res.Count, lat.Round(time.Microsecond))
			}
		}
	}

	session("zooming into the galactic band", zoom, 60)
	session("panning across focus areas", pan, 120)

	fmt.Printf("\n%d queries, mean %v, worst %v — interactivity threshold (500ms) %s\n",
		queries,
		(total / time.Duration(queries)).Round(time.Microsecond),
		worst.Round(time.Microsecond),
		verdict(worst))
	if idx.Converged() {
		fmt.Println("and the index fully converged as a by-product of the session.")
	}
}

func verdict(worst time.Duration) string {
	if worst < 500*time.Millisecond {
		return "never violated"
	}
	return "VIOLATED"
}
