package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/column"
	"repro/internal/query"
)

// Each benchmark sets bytes to 8 per element, so MB/s ÷ 8 is elements
// per microsecond and ns/op ÷ elements is ns/element.

func BenchmarkLeafSort(b *testing.B) {
	const n = 4096
	rng := rand.New(rand.NewSource(1))
	for _, span := range []struct {
		name string
		bits uint
	}{{"span12", 12}, {"span40", 40}, {"span62", 62}} {
		src := make([]int64, n)
		for i := range src {
			src[i] = rng.Int63n(1<<span.bits) - 1<<(span.bits-1)
		}
		a, scratch := make([]int64, n), make([]int64, n)
		for name, sort := range map[string]func(){
			"radix":      func() { sortLeaf(a, &scratch) },
			"slicesSort": func() { slices.Sort(a) },
		} {
			b.Run(span.name+"/"+name, func(b *testing.B) {
				b.SetBytes(8 * n)
				for i := 0; i < b.N; i++ {
					copy(a, src)
					sort()
				}
			})
		}
	}
}

func BenchmarkPartition(b *testing.B) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(1))
	src := make([]int64, n)
	for i := range src {
		src[i] = rng.Int63n(n)
	}
	a := make([]int64, n)
	for name, step := range map[string]func([]int64, int64, int, int, int) (int, int, int){
		"copyOnly": func(_ []int64, _ int64, pl, pr, budget int) (int, int, int) { return pl, pr, budget },
		"scalar":   partitionScalar,
		"blocked":  partition,
	} {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(8 * n)
			for i := 0; i < b.N; i++ {
				copy(a, src)
				step(a, n/2, 0, n-1, n)
			}
		})
	}
}

// BenchmarkBucketIndex is PB's separator search alone, against the
// binary search it replaced, and then where it matters: one δ = 0.25
// creation query over 4M rows, PB's beside PQ's (which has no bucket to
// find).
func BenchmarkBucketIndex(b *testing.B) {
	const n = 4 << 20
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(n)
	}
	sep := make([]int64, 63)
	for i := range sep {
		sep[i] = int64(i+1) * n / 64
	}
	for name, index := range map[string]func([]int64, int64) int{
		"branchFree": bucketIndex,
		"upperBound": column.UpperBound,
	} {
		b.Run(name, func(b *testing.B) {
			probes := vals[:1<<16]
			b.SetBytes(int64(8 * len(probes)))
			sum := 0
			for i := 0; i < b.N; i++ {
				for _, v := range probes {
					sum += index(sep, v)
				}
			}
			calSink = int64(sum)
		})
	}
	col := column.MustNew(vals)
	req := query.Request{Pred: query.Range(n/2, n/2+n/10), Aggs: column.AggSum | column.AggCount}
	for name, mk := range map[string]func() query.Index{
		"creationPB": func() query.Index { return NewBucketsort(col, Config{}) },
		"creationPQ": func() query.Index { return NewQuicksort(col, Config{}) },
	} {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(8 * n / 4)
			var idx query.Index
			for i := 0; i < b.N; i++ {
				if i%3 == 0 { // an index's second to fourth query: the first allocates
					b.StopTimer()
					idx = mk()
					idx.Execute(req)
					b.StartTimer()
				}
				idx.Execute(req)
			}
		})
	}
}

// BenchmarkDistribute is PLSD's refinement from the end of creation to
// the sorted array: three distribute passes over 2^18 18-bit values and
// the merge, every element through a bucket cursor and an append each.
func BenchmarkDistribute(b *testing.B) {
	const n = 1 << 18
	vals := make([]int64, n)
	for i, v := range rand.New(rand.NewSource(1)).Perm(n) {
		vals[i] = int64(v)
	}
	col := column.MustNew(vals)
	b.SetBytes(8 * n)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := NewRadixLSD(col, Config{Workers: 1})
		r.bucketStep(n, 0, 0, column.AggSum, &r.bz, r)
		r.startRefinement()
		b.StartTimer()
		for r.takeSorted() == nil {
			r.refine(1, 0, 0)
		}
	}
}
