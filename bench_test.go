package progidx

// One benchmark per table and figure of the paper's evaluation section
// (see DESIGN.md section 4 for the experiment index), plus the ablation
// benchmarks of DESIGN.md section 5. The macro benchmarks run the same
// experiment code as cmd/experiments at a reduced scale
// (experiments.Bench); run cmd/experiments for paper-scale output.

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/btree"
	"repro/internal/column"
	"repro/internal/core"
	"repro/internal/cracking"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/workload"
)

// benchSink prevents dead-code elimination of experiment results.
var benchSink any

// BenchmarkFig7DeltaImpact regenerates Figure 7 (a-d): first-query
// time, pay-off query, convergence query and cumulative time as
// functions of δ for all four progressive algorithms.
func BenchmarkFig7DeltaImpact(b *testing.B) {
	cfg := experiments.Bench()
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = t
	}
}

// BenchmarkFig8FixedBudget regenerates Figure 8: measured vs cost-model
// time per query under a fixed δ=0.25.
func BenchmarkFig8FixedBudget(b *testing.B) {
	cfg := experiments.Bench()
	for i := 0; i < b.N; i++ {
		t, csvs, err := experiments.Fig8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = t
		benchSink = csvs
	}
}

// BenchmarkFig9AdaptiveBudget regenerates Figure 9: measured vs
// cost-model time per query under the adaptive budget 0.2·t_scan.
func BenchmarkFig9AdaptiveBudget(b *testing.B) {
	cfg := experiments.Bench()
	for i := 0; i < b.N; i++ {
		t, csvs, err := experiments.Fig9(cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = t
		benchSink = csvs
	}
}

// BenchmarkFig10Comparison regenerates Figure 10: Progressive Quicksort
// vs Adaptive Adaptive Indexing vs Progressive Stochastic Cracking.
func BenchmarkFig10Comparison(b *testing.B) {
	cfg := experiments.Bench()
	for i := 0; i < b.N; i++ {
		t, csvs, err := experiments.Fig10(cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = t
		benchSink = csvs
	}
}

// BenchmarkTable2SkyServer regenerates Table 2: the full SkyServer
// comparison of baselines, adaptive indexing and progressive indexing.
func BenchmarkTable2SkyServer(b *testing.B) {
	cfg := experiments.Bench()
	for i := 0; i < b.N; i++ {
		t, err := experiments.Table2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = t
	}
}

// tables345 runs the synthetic grid shared by Tables 3, 4 and 5.
func tables345(b *testing.B, pick func(t3, t4, t5 *harness.Table) *harness.Table) {
	cfg := experiments.Bench()
	for i := 0; i < b.N; i++ {
		t3, t4, t5, err := experiments.Tables345(cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = pick(t3, t4, t5)
	}
}

// BenchmarkTable3FirstQuery regenerates Table 3 (first query cost over
// the 25 synthetic workload rows).
func BenchmarkTable3FirstQuery(b *testing.B) {
	tables345(b, func(t3, _, _ *harness.Table) *harness.Table { return t3 })
}

// BenchmarkTable4Cumulative regenerates Table 4 (cumulative time).
func BenchmarkTable4Cumulative(b *testing.B) {
	tables345(b, func(_, t4, _ *harness.Table) *harness.Table { return t4 })
}

// BenchmarkTable5Robustness regenerates Table 5 (variance of the first
// 100 query times).
func BenchmarkTable5Robustness(b *testing.B) {
	tables345(b, func(_, _, t5 *harness.Table) *harness.Table { return t5 })
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md section 5)
// ---------------------------------------------------------------------

func benchValues(n int) []int64 {
	return data.Uniform(n, 7)
}

// BenchmarkAblationKernels compares the predicated scan and crack
// kernels against their branching counterparts — the choice the paper
// justifies by citing Ross (2002).
func BenchmarkAblationKernels(b *testing.B) {
	vals := benchValues(1 << 20)
	n := int64(len(vals))
	b.Run("scan/predicated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = column.SumRange(vals, n/4, 3*n/4)
		}
	})
	b.Run("scan/branching", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = column.SumRangeBranching(vals, n/4, 3*n/4)
		}
	})
	for _, k := range []cracking.Kernel{cracking.KernelBranching, cracking.KernelPredicated, cracking.KernelAdaptive} {
		b.Run("crack/"+k.String(), func(b *testing.B) {
			work := make([]int64, len(vals))
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(work, vals)
				b.StartTimer()
				split, _ := cracking.Crack(work, 0, len(work), n/2, k)
				benchSink = split
			}
		})
	}
}

// runToConvergence drives one progressive index over a random workload
// until it converges, reporting queries-to-convergence.
func runToConvergence(b *testing.B, mk func() Index, domain int64) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < b.N; i++ {
		idx := mk()
		q := 0
		for ; !idx.Converged() && q < 1_000_000; q++ {
			lo := rng.Int63n(domain)
			sumCount(idx, lo, lo+domain/10)
		}
		b.ReportMetric(float64(q), "queries-to-converge")
		benchSink = idx
	}
}

// BenchmarkAblationBlockSize sweeps the bucket block size sb for
// Progressive Radixsort (MSD): smaller blocks mean more allocations and
// more random accesses per scan.
func BenchmarkAblationBlockSize(b *testing.B) {
	vals := benchValues(1 << 18)
	col := column.MustNew(vals)
	for _, sb := range []int{128, 1024, 8192} {
		b.Run(sizeName("sb", sb), func(b *testing.B) {
			runToConvergence(b, func() Index {
				return core.NewRadixMSD(col, core.Config{Mode: core.FixedDelta, Delta: 0.25, BlockSize: sb})
			}, int64(len(vals)))
		})
	}
}

// BenchmarkAblationBucketCount sweeps the radix fanout b = 1<<bits; the
// paper fixes 64 buckets from the cache-line/TLB argument of Boncz et
// al.
func BenchmarkAblationBucketCount(b *testing.B) {
	vals := benchValues(1 << 18)
	col := column.MustNew(vals)
	for _, bits := range []int{4, 6, 8} {
		b.Run(sizeName("bits", bits), func(b *testing.B) {
			runToConvergence(b, func() Index {
				return core.NewRadixMSD(col, core.Config{Mode: core.FixedDelta, Delta: 0.25, RadixBits: bits})
			}, int64(len(vals)))
		})
	}
}

// BenchmarkAblationBTreeFanout sweeps β for the consolidated B+-tree.
func BenchmarkAblationBTreeFanout(b *testing.B) {
	vals := benchValues(1 << 20)
	sorted := make([]int64, len(vals))
	copy(sorted, vals)
	slices.Sort(sorted)
	rng := rand.New(rand.NewSource(3))
	for _, fanout := range []int{8, 64, 512} {
		tree, err := btree.Build(sorted, fanout)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sizeName("beta", fanout), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lo := rng.Int63n(int64(len(vals)))
				agg, _ := tree.AggRange(lo, lo+1000, column.AggSum|column.AggCount)
				benchSink = agg.Result()
			}
		})
	}
}

// BenchmarkAblationBudget compares the three budget flavors on
// Progressive Quicksort over the same workload.
func BenchmarkAblationBudget(b *testing.B) {
	vals := benchValues(1 << 18)
	col := column.MustNew(vals)
	cfgs := map[string]core.Config{
		"fixed-delta":   {Mode: core.FixedDelta, Delta: 0.25},
		"fixed-time":    {Mode: core.FixedTime, BudgetSeconds: 5e-5},
		"adaptive-time": {Mode: core.AdaptiveTime, BudgetSeconds: 5e-5},
	}
	for name, cfg := range cfgs {
		b.Run(name, func(b *testing.B) {
			runToConvergence(b, func() Index {
				return core.NewQuicksort(col, cfg)
			}, int64(len(vals)))
		})
	}
}

// BenchmarkExtensionPointQueries races the future-work extensions
// (progressive hash index, column imprints) against the paper's best
// point-query technique (PLSD) and the scan floor.
func BenchmarkExtensionPointQueries(b *testing.B) {
	vals := benchValues(1 << 19)
	n := int64(len(vals))
	for _, s := range []Strategy{StrategyFullScan, StrategyRadixLSD, StrategyProgressiveHash, StrategyImprints} {
		b.Run(s.String(), func(b *testing.B) {
			idx := MustNew(vals, Options{Strategy: s, Delta: 0.25})
			rng := rand.New(rand.NewSource(9))
			// Warm through convergence so the steady state is measured.
			for q := 0; q < 50; q++ {
				v := vals[rng.Intn(len(vals))]
				sumCount(idx, v, v)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := vals[rng.Intn(len(vals))]
				benchSink = sumCount(idx, v, v)
			}
			_ = n
		})
	}
}

// BenchmarkQueryConverged measures the steady-state query cost after
// convergence (the B+-tree path), the floor every technique approaches.
func BenchmarkQueryConverged(b *testing.B) {
	vals := benchValues(1 << 20)
	idx := MustNew(vals, Options{Strategy: StrategyRadixMSD, Delta: 1})
	for q := 0; q < 100 && !idx.Converged(); q++ {
		sumCount(idx, 0, int64(len(vals)))
	}
	if !idx.Converged() {
		b.Fatal("did not converge")
	}
	rng := rand.New(rand.NewSource(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rng.Int63n(int64(len(vals)))
		benchSink = sumCount(idx, lo, lo+1000)
	}
}

// BenchmarkWorkloadGenerators measures query-generation overhead to
// confirm it is negligible next to query execution.
func BenchmarkWorkloadGenerators(b *testing.B) {
	for _, g := range workload.RangePatterns(1<<20, 1000, 1) {
		b.Run(g.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink = g.Query(i)
			}
		})
	}
}

func sizeName(prefix string, v int) string {
	const digits = "0123456789"
	if v == 0 {
		return prefix + "=0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v%10]
		v /= 10
	}
	return prefix + "=" + string(buf[i:])
}
