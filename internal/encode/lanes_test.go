package encode

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/column"
)

// TestLaneKernelsMatchDecodedRows holds a sorted block — its frames, the
// decode, RankBelow, At, SumRows and the two mask kernels — to its rows
// over every group width PackSorted can produce: 0, and 63 with both ends
// of the domain in one group; blocks of one group and of many, a partial
// last group, ranges that start and end anywhere in a group, and bounds
// at, one off and far outside the frames' ends.
func TestLaneKernelsMatchDecodedRows(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const edge = column.MaxMagnitude - 1
	for _, w := range []int{0, 1, 7, 13, 32, 62, 63} {
		for _, n := range []int{1, 63, 64, 65, 200, BlockRows} {
			ref := -edge
			span := min(uint64(1)<<uint(w)-1, uint64(2*edge))
			if w < 62 {
				ref = rng.Int63n(1<<40) - 1<<39
			}
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = ref + int64(rng.Uint64()%(span+1))
			}
			vals[0], vals[n-1] = ref, ref+int64(span)
			slices.Sort(vals)
			refs := make([]int64, (n+GroupRows-1)/GroupRows)
			blk := PackSorted(nil, vals, refs)[0]
			width := 0
			for g := range refs {
				first, last := vals[g*GroupRows], vals[min((g+1)*GroupRows, n)-1]
				width = max(width, bits.Len64(uint64(last-first)))
				if refs[g] != first {
					t.Fatalf("w=%d n=%d: group %d framed on %d, want its first row %d", w, n, g, refs[g], first)
				}
			}
			if int(blk.width) != width || blk.Min() != vals[0] || blk.Max() != vals[n-1] {
				t.Fatalf("w=%d n=%d: %d bits wide over [%d, %d], want the widest group's %d over [%d, %d]", w, n, blk.width, blk.Min(), blk.Max(), width, vals[0], vals[n-1])
			}
			if !slices.Equal(blk.AppendTo(nil), vals) {
				t.Fatalf("w=%d n=%d: the block does not decode to its rows", w, n)
			}
			for i, v := range vals {
				if got := blk.At(i); got != v {
					t.Fatalf("w=%d n=%d: At(%d) = %d, want %d", w, n, i, got, v)
				}
			}
			for trial := 0; trial < 200; trial++ {
				from := rng.Intn(n + 1)
				to := from + rng.Intn(n+1-from)
				var sum int64
				for _, v := range vals[from:to] {
					sum += v
				}
				if got := blk.SumRows(from, to); got != sum {
					t.Fatalf("w=%d n=%d: SumRows(%d, %d) = %d, want %d", w, n, from, to, got, sum)
				}
				probe := vals[rng.Intn(n)]
				for _, v := range []int64{probe - 1, probe, probe + 1, vals[0], vals[n-1], vals[n-1] + 1, -edge - 1, edge + 1} {
					want := 0
					for _, x := range vals[from:to] {
						if x < v {
							want++
						}
					}
					if got := blk.RankBelow(from, to, v); got != want {
						t.Fatalf("w=%d n=%d: RankBelow(%d, %d, %d) = %d, want %d", w, n, from, to, v, got, want)
					}
				}
				checkSortedMask(t, blk, vals, rng)
			}
		}
	}
}

// checkSortedMask runs Refine over a random bound pair and a random mask,
// then AggMasked over what is left, against a row-by-row loop.
func checkSortedMask(t *testing.T, blk *SortedBlock, vals []int64, rng *rand.Rand) {
	t.Helper()
	bounds := []int64{vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))] + 1, vals[0] - 1, vals[len(vals)-1], -column.MaxMagnitude, column.MaxMagnitude}
	lo, hi := bounds[rng.Intn(len(bounds))], bounds[rng.Intn(len(bounds))]
	var mask, want [BlockRows / 64]uint64
	column.FillMask(want[:], len(vals))
	for i := range mask {
		mask[i] = want[i] & rng.Uint64()
	}
	a := column.NewAgg()
	for i, v := range vals {
		if mask[i/64]>>uint(i%64)&1 == 1 && lo <= v && v <= hi {
			a.Count++
			a.Sum += v
			a.Min, a.Max = min(a.Min, v), max(a.Max, v)
		}
	}
	if live := blk.Refine(lo, hi, mask[:]); int64(live) != a.Count {
		t.Fatalf("n=%d: Refine(%d, %d) keeps %d rows, want %d", len(vals), lo, hi, live, a.Count)
	}
	if got := blk.AggMasked(mask[:], column.AggAll); got != a {
		t.Fatalf("n=%d: AggMasked after Refine(%d, %d) = %+v, want %+v", len(vals), lo, hi, got, a)
	}
}
