package column

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// TestMaskKernelsOracle checks FillMask, RefineMask and AggMasked row
// by row against AggRangeBranching over the selected values, at lengths
// around the word edge, with bounds out to the int64 extremes (the
// unsigned compare must not need the ±2^62 domain) and incoming masks
// that include untouched, partial and all-zero words.
func TestMaskKernelsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 63, 64, 65, 300, 4096} {
		vs := make([]int64, n)
		for i := range vs {
			vs[i] = rng.Int63n(2001) - 1000
		}
		full := make([]uint64, MaskWords(n)+1) // one spare word: must end up zero
		FillMask(full, n)
		set := 0
		for _, w := range full {
			set += bits.OnesCount64(w)
		}
		if set != n || full[len(full)-1] != 0 {
			t.Fatalf("FillMask(%d) set %d bits, spare word %#x", n, set, full[len(full)-1])
		}
		bounds := [][2]int64{
			{-1000, 1000}, {math.MinInt64, math.MaxInt64}, {math.MinInt64, 0}, {0, math.MaxInt64},
			{5, -5}, {math.MaxInt64, math.MinInt64}, {-3, -3}, {2000, 3000}, {-250, 250},
		}
		for _, b := range bounds {
			for trial := 0; trial < 4; trial++ {
				in := append([]uint64(nil), full...)
				for i := range in {
					switch trial {
					case 1:
						in[i] &= rng.Uint64()
					case 2:
						in[i] &= rng.Uint64() & rng.Uint64() & rng.Uint64()
					case 3:
						if i%2 == 0 {
							in[i] = 0
						}
					}
				}
				var sel []int64
				want := make([]uint64, len(in))
				for i, v := range vs {
					if in[i/64]>>(uint(i)%64)&1 == 1 && v >= b[0] && v <= b[1] {
						want[i/64] |= 1 << (uint(i) % 64)
						sel = append(sel, v)
					}
				}
				got := append([]uint64(nil), in...)
				if surv := RefineMask(vs, b[0], b[1], got); surv != len(sel) {
					t.Fatalf("n=%d RefineMask(%d, %d) = %d survivors, oracle %d", n, b[0], b[1], surv, len(sel))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("n=%d RefineMask(%d, %d) word %d = %#x, oracle %#x", n, b[0], b[1], i, got[i], want[i])
					}
				}
				for aggs := Aggregates(1); aggs <= AggAll; aggs++ {
					wantAgg := AggRangeBranching(sel, math.MinInt64, math.MaxInt64)
					if !aggs.NeedsMinMax() {
						wantAgg.Min, wantAgg.Max = NewAgg().Min, NewAgg().Max
					}
					if agg := AggMasked(vs, got, aggs); agg != wantAgg {
						t.Fatalf("n=%d AggMasked(%v) = %+v, oracle %+v", n, aggs, agg, wantAgg)
					}
				}
			}
		}
	}
}
