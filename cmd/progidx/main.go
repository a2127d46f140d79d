// Command progidx runs a single index strategy against a chosen data
// set and workload, streaming per-query progress — a quick way to watch
// a progressive index move through its creation, refinement and
// consolidation phases.
//
// Usage:
//
//	progidx -strategy pmsd -data skyserver -workload skyserver -n 1000000
//	progidx -strategy pq -delta 0.1 -workload zoomin
//	progidx -strategy std -data skewed -workload seqover
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/data"
	"repro/internal/workload"
)

// strategyNames is the -strategy help: every strategy's abbreviation,
// lower-cased.
func strategyNames() string {
	var names []string
	for _, s := range progidx.Strategies() {
		names = append(names, strings.ToLower(s.String()))
	}
	return strings.Join(names, "|")
}

func main() {
	var (
		strategy = flag.String("strategy", "pq", strategyNames())
		dataset  = flag.String("data", "uniform", "uniform|skewed|skyserver")
		wl       = flag.String("workload", "random", "random|seqover|zoomin|zoomout|skew|periodic|seqzoomin|zoominalt|point|skyserver")
		n        = flag.Int("n", 1_000_000, "column size")
		queries  = flag.Int("queries", 200, "number of queries")
		delta    = flag.Float64("delta", 0.25, "fixed indexing fraction per query")
		budgetMS = flag.Float64("budget", 0, "per-query indexing budget in ms (overrides -delta)")
		adaptive = flag.Bool("adaptive", false, "adaptive budget (keep total query time constant)")
		seed     = flag.Int64("seed", 42, "seed")
		every    = flag.Int("every", 10, "print every k-th query")
	)
	flag.Parse()

	strat, err := progidx.ParseStrategy(*strategy)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var vals []int64
	domain := int64(*n)
	switch *dataset {
	case "uniform":
		vals = data.Uniform(*n, *seed)
	case "skewed":
		vals = data.Skewed(*n, *seed)
	case "skyserver":
		vals = data.SkyServer(*n, *seed)
		domain = data.SkyServerDomain
	default:
		fmt.Fprintf(os.Stderr, "unknown data set %q\n", *dataset)
		os.Exit(2)
	}

	var gen workload.Generator
	switch *wl {
	case "random":
		gen = workload.Random(domain, *seed+1)
	case "seqover":
		gen = workload.SeqOver(domain, *queries)
	case "zoomin":
		gen = workload.ZoomIn(domain, *queries)
	case "zoomout":
		gen = workload.ZoomOutAlt(domain, *queries)
	case "skew":
		gen = workload.Skew(domain, *seed+1)
	case "periodic":
		gen = workload.Periodic(domain, *queries)
	case "seqzoomin":
		gen = workload.SeqZoomIn(domain, *queries)
	case "zoominalt":
		gen = workload.ZoomInAlt(domain, *queries)
	case "point":
		gen = workload.PointVersion(workload.Random(domain, *seed+1))
	case "skyserver":
		gen = workload.SkyServer(domain, *seed+1)
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *wl)
		os.Exit(2)
	}

	opts := progidx.Options{
		Strategy: strat,
		Delta:    *delta,
		Adaptive: *adaptive,
		Seed:     *seed,
	}
	if *budgetMS > 0 {
		opts.Budget = time.Duration(*budgetMS * float64(time.Millisecond))
		opts.Calibrate = true // wall-clock budgets need measured constants
	}
	idx, err := progidx.New(vals, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("strategy=%s data=%s(%d rows) workload=%s queries=%d\n\n",
		idx.Name(), *dataset, *n, gen.Name(), *queries)

	total := 0.0
	convergedAt := -1
	for i := 0; i < *queries; i++ {
		q := gen.Query(i)
		// Point workloads are issued as Point predicates so the
		// point-optimized strategies (plsd, phash) hit their fast paths.
		pred := progidx.Range(q.Lo, q.Hi)
		if q.Lo == q.Hi {
			pred = progidx.Point(q.Lo)
		}
		start := time.Now()
		ans, err := idx.Execute(progidx.Request{Pred: pred})
		dt := time.Since(start).Seconds()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		total += dt
		if convergedAt < 0 && idx.Converged() {
			convergedAt = i
			fmt.Printf("  >>> converged at query %d <<<\n", i+1)
		}
		if i%*every == 0 || i == *queries-1 {
			phase := ""
			if strat.Progressive() {
				// The per-query stats travel inline in the answer.
				phase = fmt.Sprintf("  phase=%-13s δ=%.4f", ans.Stats.Phase, ans.Stats.Delta)
			}
			fmt.Printf("q%-5d [%d, %d]  sum=%-16d count=%-9d %.3fms%s\n",
				i+1, q.Lo, q.Hi, ans.Sum, ans.Count, dt*1000, phase)
		}
	}
	fmt.Printf("\ncumulative=%.3fs  mean=%.3fms", total, total/float64(*queries)*1000)
	if convergedAt >= 0 {
		fmt.Printf("  converged_at=%d", convergedAt+1)
	} else {
		fmt.Printf("  converged_at=never")
	}
	fmt.Println()
}
