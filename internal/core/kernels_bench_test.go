package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"

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

// BenchmarkPartition is one partition of a whole array around its
// median, at 16K elements (128 KiB, in the caches from one iteration to
// the next) and at 1M; "blocked" is partition on each path of its
// block classification.
func BenchmarkPartition(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []struct {
		name string
		rows int
	}{{"16K", 1 << 14}, {"1M", 1 << 20}} {
		src := make([]int64, n.rows)
		for i := range src {
			src[i] = rng.Int63n(int64(n.rows))
		}
		a := make([]int64, n.rows)
		run := func(step func([]int64, int64, int, int, int) (int, int, int)) func(*testing.B) {
			return func(b *testing.B) {
				b.SetBytes(int64(8 * n.rows))
				for i := 0; i < b.N; i++ {
					copy(a, src)
					step(a, int64(n.rows/2), 0, n.rows-1, n.rows)
				}
			}
		}
		b.Run(n.name+"/copyOnly", run(func(_ []int64, _ int64, pl, pr, budget int) (int, int, int) { return pl, pr, budget }))
		b.Run(n.name+"/scalar", run(partitionScalar))
		benchPaths(b, n.name+"/blocked", run(partition))
	}
}

// BenchmarkCreationStep is one creation step of each strategy, the
// second on a fresh index (the first allocates): a δ = 0.25 step over
// 4M uniform rows with the SUM of a 10 % range, on one worker. Beside
// its ns per created row it reports SumRange's ns per row over the same
// rows with the same predicate, and their ratio, the price of a created
// row in scanned rows: a cheaper scan raises it though creation costs
// what it did.
func BenchmarkCreationStep(b *testing.B) {
	const n = 4 << 20
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(n)
	}
	col := column.MustNew(vals)
	const lo, hi, units = n / 2, n/2 + n/10, n / 4
	cfg := Config{Mode: FixedDelta, Delta: 0.25, Workers: 1}
	for _, s := range []struct {
		name string
		mk   func() algorithm
	}{
		{"PQ", func() algorithm { return NewQuicksort(col, cfg) }},
		{"PMSD", func() algorithm { return NewRadixMSD(col, cfg) }},
		{"PB", func() algorithm { return NewBucketsort(col, cfg) }},
		{"PLSD", func() algorithm { return NewRadixLSD(col, cfg) }},
	} {
		b.Run(s.name, func(b *testing.B) {
			var created, scan time.Duration
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				idx := s.mk()
				idx.(query.Index).Execute(query.Request{Pred: query.Range(lo, hi), Aggs: column.AggSum})
				t0 := time.Now()
				calSink = column.SumRange(vals[units:2*units], lo, hi).Sum
				scan += time.Since(t0)
				b.StartTimer()
				t0 = time.Now()
				if _, did := idx.create(units, lo, hi, column.AggSum); did != units {
					b.Fatalf("%s created %d rows, want %d", s.name, did, units)
				}
				created += time.Since(t0)
			}
			perRow := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(b.N*units) }
			b.ReportMetric(perRow(created), "create-ns/row")
			b.ReportMetric(perRow(scan), "scan-ns/row")
			b.ReportMetric(float64(created)/float64(scan), "create/scan")
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
