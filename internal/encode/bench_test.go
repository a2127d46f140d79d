package encode

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/column"
)

// Compressed-kernel microbenchmarks: the scan-on-compressed penalty vs
// the raw kernels shows up directly in
// `go test -bench 'EncodedAggRange' ./internal/encode ./internal/column`
// (same input shape and predicate as the column benchmarks).

const benchN = 1 << 22 // 4M elements, 32 MiB raw: larger than L3 on most hosts

var (
	benchVals []int64
	benchSegs map[Mode]*Segment
	benchSink column.Agg
)

func benchSegment(b *testing.B, mode Mode) *Segment {
	if benchVals == nil {
		rng := rand.New(rand.NewSource(42))
		benchVals = make([]int64, benchN)
		for i := range benchVals {
			benchVals[i] = rng.Int63n(benchN)
		}
		benchSegs = make(map[Mode]*Segment)
	}
	seg, ok := benchSegs[mode]
	if !ok {
		mn, mx := column.MinMax(benchVals)
		var err error
		seg, err = New(benchVals, mn, mx, mode)
		if err != nil {
			b.Fatal(err)
		}
		benchSegs[mode] = seg
	}
	return seg
}

func BenchmarkEncodedAggRange(b *testing.B) {
	for _, mode := range []Mode{ModeFORBP, ModeRaw} {
		seg := benchSegment(b, mode)
		for _, aggs := range []struct {
			name string
			mask column.Aggregates
		}{{"sum_count", column.AggSum | column.AggCount}, {"all", column.AggAll}} {
			b.Run(fmt.Sprintf("%s/%s", mode, aggs.name), func(b *testing.B) {
				b.SetBytes(int64(seg.SizeBytes()))
				for i := 0; i < b.N; i++ {
					benchSink = seg.AggRange(benchN/4, 3*benchN/4, aggs.mask)
				}
			})
		}
	}
}

func BenchmarkEncodedDictAggRange(b *testing.B) {
	// Low-cardinality input: 64 distinct values over the same row count.
	rng := rand.New(rand.NewSource(43))
	vals := make([]int64, benchN)
	for i := range vals {
		vals[i] = int64(rng.Intn(64)) * 1_000_003
	}
	mn, mx := column.MinMax(vals)
	seg, err := New(vals, mn, mx, ModeDict)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(seg.SizeBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = seg.AggRange(mn, mx/2, column.AggAll)
	}
}

func BenchmarkEncode(b *testing.B) {
	for _, mode := range []Mode{ModeAuto, ModeFORBP} {
		b.Run(mode.String(), func(b *testing.B) {
			seg := benchSegment(b, ModeRaw) // warm benchVals
			_ = seg
			mn, mx := column.MinMax(benchVals)
			b.SetBytes(8 * benchN)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := New(benchVals, mn, mx, mode)
				if err != nil {
					b.Fatal(err)
				}
				benchSink.Count = int64(s.Len())
			}
		})
	}
}

// benchBlockSegment is one planner-sized block (4096 rows, 20-bit
// deltas): the unit the conjunction kernels run on.
func benchBlockSegment(b *testing.B, mode Mode) *Segment {
	rng := rand.New(rand.NewSource(44))
	vs := make([]int64, 4096)
	for i := range vs {
		vs[i] = rng.Int63n(1 << 20)
	}
	mn, mx := column.MinMax(vs)
	seg, err := New(vs, mn, mx, mode)
	if err != nil {
		b.Fatal(err)
	}
	return seg
}

func BenchmarkRefine(b *testing.B) {
	for _, mode := range []Mode{ModeFORBP, ModeDict, ModeRaw} {
		seg := benchBlockSegment(b, mode)
		b.Run(mode.String(), func(b *testing.B) {
			var mask [64]uint64
			b.SetBytes(int64(seg.SizeBytes()))
			for i := 0; i < b.N; i++ {
				column.FillMask(mask[:], seg.Len())
				benchSink.Count += int64(seg.Refine(seg.Min()+100, seg.Max()-100, mask[:]))
			}
		})
	}
}

func BenchmarkAggMasked(b *testing.B) {
	for _, mode := range []Mode{ModeFORBP, ModeDict, ModeRaw} {
		seg := benchBlockSegment(b, mode)
		for _, sel := range []struct {
			name string
			keep uint64 // ANDed into every word of the full mask
		}{{"dense", ^uint64(0)}, {"sparse", 1 << 17}} {
			b.Run(fmt.Sprintf("%s/%s", mode, sel.name), func(b *testing.B) {
				var mask [64]uint64
				column.FillMask(mask[:], seg.Len())
				for i := range mask {
					mask[i] &= sel.keep
				}
				b.SetBytes(int64(seg.SizeBytes()))
				for i := 0; i < b.N; i++ {
					benchSink = seg.AggMasked(mask[:], column.AggAll)
				}
			})
		}
	}
}

// BenchmarkPack is the packer alone on the shapes a settle, an encoded
// load and a B+-tree's leaves put through it: 4M uniform rows (22-bit
// deltas) cut into BlockRows-row FOR-BP blocks, whose ns/row is the figure
// costmodel.PackTime models, and the same count of sorted uniform rows
// over 2^40 packed as sorted blocks — the line fitted to each, then 24-bit
// planes.
func BenchmarkPack(b *testing.B) {
	benchSegment(b, ModeRaw) // warm benchVals
	b.Run("forbp", func(b *testing.B) {
		b.SetBytes(8 * benchN)
		for b.Loop() {
			benchSink.Count = int64(Pack(nil, benchVals, ModeFORBP).SizeBytes())
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchN, "ns/row")
	})
	b.Run("sorted/uniform40", func(b *testing.B) {
		vals := sortedUniform(benchN, 1<<40)
		refs := make([]int64, benchN/GroupRows)
		b.SetBytes(8 * benchN)
		for b.Loop() {
			benchSink.Count = int64(len(PackSorted(nil, vals, refs)))
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchN, "ns/row")
	})
}

// sortedUniform is n sorted rows drawn uniformly from [0, domain).
func sortedUniform(n int, domain int64) []int64 {
	rng := rand.New(rand.NewSource(45))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(domain)
	}
	slices.Sort(vals)
	return vals
}

// BenchmarkLaneKernels times the three kernels a lookup over packed
// sorted rows finishes with, each on one 64-row group of a 4096-row block
// cut by PackSorted: the rank of a bound in a node, the row at a lane, and
// the sum of a node's rows. Dense rows lie on the block's line of step 1
// and hold no planes; sorted uniform rows over 2^40 keep 24-bit planes,
// which a rank binary-searches through At.
func BenchmarkLaneKernels(b *testing.B) {
	dense := make([]int64, BlockRows)
	for i := range dense {
		dense[i] = int64(i)
	}
	for _, in := range []struct {
		name string
		vals []int64
	}{{"dense", dense}, {"uniform40", sortedUniform(BlockRows, 1<<40)}} {
		seg := PackSorted(nil, in.vals, make([]int64, BlockRows/GroupRows))[0]
		rng := rand.New(rand.NewSource(1))
		b.Run(in.name+"/RankBelow", func(b *testing.B) {
			for b.Loop() {
				g := rng.Intn(BlockRows / blockLen)
				benchSink.Count = int64(seg.RankBelow(g*blockLen+1, (g+1)*blockLen, in.vals[g*blockLen+rng.Intn(blockLen)]))
			}
		})
		b.Run(in.name+"/At", func(b *testing.B) {
			for b.Loop() {
				benchSink.Sum = seg.At(rng.Intn(BlockRows))
			}
		})
		b.Run(in.name+"/SumRows", func(b *testing.B) {
			for b.Loop() {
				from := rng.Intn(BlockRows - blockLen)
				benchSink.Sum = seg.SumRows(from, from+rng.Intn(blockLen))
			}
		})
	}
}
