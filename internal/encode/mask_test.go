package encode

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/column"
)

// widthValues returns n values whose FOR width is exactly w (for
// n >= 2): deltas drawn from [0, 2^w) above a negative base, with the
// extremes 0 and 2^w-1 pinned so the zone spans the whole width.
func widthValues(rng *rand.Rand, n int, w uint) []int64 {
	const base = -12345
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = base
		if w > 0 {
			vs[i] += rng.Int63n(1 << w)
		}
	}
	if n >= 2 {
		vs[0], vs[n-1] = base, base+1<<w-1
	}
	return vs
}

// randomMasks returns incoming selections over n rows: everything,
// nothing, random dense, random sparse, and whole words knocked out (to
// pin the zero-word skip).
func randomMasks(rng *rand.Rand, n int) [][]uint64 {
	words := column.MaskWords(n)
	full := make([]uint64, words)
	column.FillMask(full, n)
	derive := func(f func(i int, w uint64) uint64) []uint64 {
		m := make([]uint64, words)
		for i, w := range full {
			m[i] = f(i, w)
		}
		return m
	}
	return [][]uint64{
		full,
		make([]uint64, words),
		derive(func(_ int, w uint64) uint64 { return w & rng.Uint64() }),
		derive(func(_ int, w uint64) uint64 { return w & rng.Uint64() & rng.Uint64() & rng.Uint64() }),
		derive(func(i int, w uint64) uint64 {
			if i%2 == 0 {
				return 0
			}
			return w & (rng.Uint64() | rng.Uint64())
		}),
	}
}

// maskOracle replays Refine + AggMasked row by row over the decoded
// values: the surviving mask, and column.AggRangeBranching over exactly
// the surviving rows.
func maskOracle(vs []int64, lo, hi int64, in []uint64) (out []uint64, survivors int, agg column.Agg) {
	out = make([]uint64, len(in))
	var sel []int64
	for i, v := range vs {
		if in[i/64]>>(uint(i)%64)&1 == 1 && v >= lo && v <= hi {
			out[i/64] |= 1 << (uint(i) % 64)
			sel = append(sel, v)
		}
	}
	return out, len(sel), column.AggRangeBranching(sel, math.MinInt64, math.MaxInt64)
}

// checkMaskKernels runs Refine then AggMasked for every aggregate mask
// and compares both against the oracle, field for field.
func checkMaskKernels(t testing.TB, seg *Segment, vs []int64, lo, hi int64, in []uint64) {
	t.Helper()
	wantMask, wantSurv, wantAgg := maskOracle(vs, lo, hi, in)
	got := append([]uint64(nil), in...)
	if surv := seg.Refine(lo, hi, got); surv != wantSurv {
		t.Fatalf("%v w=%d n=%d Refine(%d, %d) = %d survivors, oracle %d", seg.Kind(), seg.width, len(vs), lo, hi, surv, wantSurv)
	}
	for i := range got {
		if got[i] != wantMask[i] {
			t.Fatalf("%v w=%d n=%d Refine(%d, %d) mask word %d = %#x, oracle %#x (incoming %#x)",
				seg.Kind(), seg.width, len(vs), lo, hi, i, got[i], wantMask[i], in[i])
		}
	}
	for aggs := column.Aggregates(1); aggs <= column.AggAll; aggs++ {
		want := wantAgg
		if !aggs.NeedsMinMax() {
			want.Min, want.Max = column.NewAgg().Min, column.NewAgg().Max
		}
		if agg := seg.AggMasked(got, aggs); agg != want {
			t.Fatalf("%v w=%d n=%d AggMasked(%v) after Refine(%d, %d) = %+v, oracle %+v",
				seg.Kind(), seg.width, len(vs), aggs, lo, hi, agg, want)
		}
	}
}

// TestMaskKernelsOracle is the property test of the conjunction
// kernels: kinds × widths × lengths around the word and block edges ×
// bounds at and beyond the zone × every aggregate mask × incoming
// selections, against decode + column.AggRangeBranching.
func TestMaskKernelsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, mode := range []Mode{ModeFORBP, ModeDict, ModeRaw} {
		for _, w := range []uint{0, 1, 7, 20, 57} {
			for _, n := range []int{1, 63, 64, 65, 4095, 4096} {
				vs := widthValues(rng, n, w)
				mn, mx := column.MinMax(vs)
				seg, err := New(append([]int64(nil), vs...), mn, mx, mode)
				if err != nil {
					t.Fatal(err)
				}
				if mode == ModeFORBP && n >= 2 && seg.width != uint8(w) {
					t.Fatalf("built FOR width %d, want %d", seg.width, w)
				}
				mid := mn + (mx-mn)/2
				bounds := [][2]int64{
					{mn - 100, mn - 1}, // below min
					{mx + 1, mx + 100}, // above max
					{mx, mn - 1},       // inverted
					{mid + 1, mid},     // inverted inside the zone
					{mn, mn}, {mx, mx}, // exactly min / max
					{mn, mx},                       // covering, tight
					{math.MinInt64, math.MaxInt64}, // covering, open ends
					{mn + 1, mx}, {mn, mx - 1},     // one row short of covering
					{mid, mid},
				}
				for i := 0; i < 6; i++ {
					a, b := vs[rng.Intn(n)], vs[rng.Intn(n)]
					if a > b {
						a, b = b, a
					}
					bounds = append(bounds, [2]int64{a, b}, [2]int64{a + 1, b + 1})
				}
				for _, b := range bounds {
					for _, in := range randomMasks(rng, n) {
						checkMaskKernels(t, seg, vs, b[0], b[1], in)
					}
				}
			}
		}
	}
}

// TestMaskKernelsZeroAllocs pins the conjunction kernels at zero heap
// allocations per block.
func TestMaskKernelsZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, mode := range []Mode{ModeFORBP, ModeDict, ModeRaw} {
		vs := widthValues(rng, 4096, 11)
		mn, mx := column.MinMax(vs)
		seg, err := New(vs, mn, mx, mode)
		if err != nil {
			t.Fatal(err)
		}
		var mask [64]uint64
		if n := testing.AllocsPerRun(50, func() {
			column.FillMask(mask[:], seg.Len())
			seg.Refine(mn+100, mx-100, mask[:])
			seg.AggMasked(mask[:], column.AggAll)
		}); n != 0 {
			t.Fatalf("%v: %.1f allocs per Refine+AggMasked, want 0", mode, n)
		}
	}
}

// fuzzSegment builds the fuzz target's segment from raw bytes: eight
// bytes per value, shifted into the kernel-safe ±2^61 domain.
func fuzzSegment(data []byte, mode uint8) (*Segment, []int64) {
	n := len(data) / 8
	if n == 0 {
		return nil, nil
	}
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = int64(binary.LittleEndian.Uint64(data[8*i:])) >> 2
	}
	mn, mx := column.MinMax(vs)
	seg, err := New(append([]int64(nil), vs...), mn, mx, Mode(mode%4))
	if err != nil {
		panic(err) // in-domain, non-empty input always encodes
	}
	return seg, vs
}

// FuzzRefine drives Refine + AggMasked with arbitrary values, encoding
// mode, bounds and incoming selection against the row-by-row oracle.
// Run with `go test -fuzz FuzzRefine ./internal/encode`; the committed
// corpus under testdata/fuzz/FuzzRefine runs on every plain `go test`.
func FuzzRefine(f *testing.F) {
	word := func(vs ...int64) []byte {
		var out []byte
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint64(out, uint64(v<<2))
		}
		return out
	}
	f.Add(word(5, 5, 5), uint8(ModeFORBP), int64(5), int64(5), uint64(0b101))
	f.Add(word(1, 2, 3, 1000, -7), uint8(ModeDict), int64(2), int64(999), ^uint64(0))
	f.Add(word(0, 1<<40, -1<<40), uint8(ModeRaw), int64(-1), int64(1), uint64(6))
	f.Fuzz(func(t *testing.T, data []byte, mode uint8, lo, hi int64, maskSeed uint64) {
		seg, vs := fuzzSegment(data, mode)
		if seg == nil {
			return
		}
		// The incoming selection: a seeded pattern, trimmed to the rows.
		in := make([]uint64, column.MaskWords(len(vs)))
		column.FillMask(in, len(vs))
		for i := range in {
			in[i] &= bits.RotateLeft64(maskSeed, i*7) | maskSeed>>uint(i%64)
		}
		checkMaskKernels(t, seg, vs, lo, hi, in)
	})
}
