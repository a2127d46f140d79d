package encode

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/column"
)

// TestLaneKernelsMatchDecodedRows holds RankBelow, At and SumRows to the
// decoded rows over every width PackBlocks can produce — 0, and 63 with
// both ends of the domain in one block — on sorted and unsorted rows, a
// partial last group, ranges that start and end anywhere in a group, and
// bounds at, one off and far outside the frame's ends.
func TestLaneKernelsMatchDecodedRows(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const edge = column.MaxMagnitude - 1
	for _, w := range []int{0, 1, 7, 13, 32, 62, 63} {
		for _, n := range []int{1, 63, 64, 65, 200, BlockRows} {
			for _, sorted := range []bool{true, false} {
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
				if sorted {
					slices.Sort(vals)
				}
				seg := PackBlocks(vals)[0]
				if n > 1 && int(seg.width) != bits.Len64(span) {
					t.Fatalf("w=%d n=%d: packed %d bits wide", w, n, seg.width)
				}
				for i, v := range vals {
					if got := seg.At(i); got != v {
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
					if got := seg.SumRows(from, to); got != sum {
						t.Fatalf("w=%d n=%d: SumRows(%d, %d) = %d, want %d", w, n, from, to, got, sum)
					}
					probe := vals[rng.Intn(n)]
					for _, v := range []int64{probe - 1, probe, probe + 1, seg.min, seg.max, seg.max + 1, -edge - 1, edge + 1} {
						want := 0
						for _, x := range vals[from:to] {
							if x < v {
								want++
							}
						}
						if got := seg.RankBelow(from, to, v); got != want {
							t.Fatalf("w=%d n=%d sorted=%v: RankBelow(%d, %d, %d) = %d, want %d", w, n, sorted, from, to, v, got, want)
						}
					}
				}
			}
		}
	}
}
