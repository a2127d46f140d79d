package column

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/parallel"
)

// Kernel microbenchmarks: regressions in the serial scan kernels or in
// the parallel fork/join overhead show up directly in
// `go test -bench 'AggRange|SumRange' ./internal/column`.

const benchN = 1 << 22 // 4M elements, 32 MiB: larger than L3 on most hosts

var benchVals []int64

func benchInput() []int64 {
	if benchVals == nil {
		rng := rand.New(rand.NewSource(42))
		benchVals = make([]int64, benchN)
		for i := range benchVals {
			benchVals[i] = rng.Int63n(benchN)
		}
	}
	return benchVals
}

var benchSink Agg

// BenchmarkSumRange is the scan kernel on each path at two sizes: all
// 4M rows, and their first 16K (128 KiB), which stay in the caches from
// one iteration to the next, so the kernel's own cost shows.
func BenchmarkSumRange(b *testing.B) {
	vals := benchInput()
	for _, n := range []struct {
		name string
		rows int
	}{{"16K", 1 << 14}, {"4M", benchN}} {
		benchPaths(b, n.name, func(b *testing.B) {
			b.SetBytes(int64(8 * n.rows))
			for i := 0; i < b.N; i++ {
				r := SumRange(vals[:n.rows], benchN/4, 3*benchN/4)
				benchSink.Sum = r.Sum
			}
		})
	}
}

func BenchmarkAggRange(b *testing.B) {
	vals := benchInput()
	for _, aggs := range []struct {
		name string
		mask Aggregates
	}{{"sum_count", AggSum | AggCount}, {"all", AggAll}} {
		b.Run(aggs.name, func(b *testing.B) {
			b.SetBytes(8 * benchN)
			for i := 0; i < b.N; i++ {
				benchSink = AggRange(vals, benchN/4, 3*benchN/4, aggs.mask)
			}
		})
	}
}

func BenchmarkParAggRange(b *testing.B) {
	vals := benchInput()
	for _, workers := range []int{1, 2, 4, 8} {
		p := parallel.New(workers)
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(8 * benchN)
			for i := 0; i < b.N; i++ {
				benchSink = ParAggRange(p, vals, benchN/4, 3*benchN/4, AggAll)
			}
		})
	}
}
