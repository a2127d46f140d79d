package encode

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/column"
	"repro/internal/parallel"
)

// packVerticalRef is the packer packVertical replaced, kept as its
// reference: one bit set per loop iteration, straight from the layout's
// definition (plane j's bit i is bit j of row i's delta).
func packVerticalRef(values []int64, ref int64, w uint) []uint64 {
	if w == 0 {
		return nil
	}
	words := make([]uint64, packedWords(len(values), w))
	for i, v := range values {
		base := (i / blockLen) * int(w)
		lane := uint(i & (blockLen - 1))
		for d := uint64(v - ref); d != 0; d &= d - 1 {
			words[base+bits.TrailingZeros64(d)] |= 1 << lane
		}
	}
	return words
}

// TestPackIdentity pins the transpose packer to the bit-at-a-time one
// word for word: every width 0–63, lengths that are no multiple of the
// 64-row block or of BlockRows, frames that start below zero — directly,
// and through Pack, whose blocks must be the reference's over each
// block's own frame.
func TestPackIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lengths := []int{1, 63, 64, 65, 127, 1000, BlockRows - 1, BlockRows, BlockRows + 1, 2*BlockRows + 77}
	for w := 0; w <= 63; w++ {
		for _, n := range lengths {
			for _, ref := range []int64{0, -(column.MaxMagnitude - 1), -(int64(1) << 61) + 12345, -7, 1 << 40} {
				// The widest w-bit frame that starts at ref and stays inside
				// the ±2^62 domain.
				span := min(uint64(1)<<uint(w)-1, uint64(column.MaxMagnitude-1-ref))
				if bits.Len64(span) != w || (n == 1 && w > 0) {
					continue // no such frame, or too few rows to span it
				}
				vals := make([]int64, n)
				for i := range vals {
					vals[i] = ref + int64(rng.Uint64()%(span+1))
				}
				vals[0], vals[n-1] = ref, ref+int64(span) // the frame is exactly w bits wide
				mn, mx := column.MinMax(vals)
				fw := uint(forWidth(mn, mx))
				whole, err := New(vals, mn, mx, ModeFORBP)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := whole.words, packVerticalRef(vals, mn, fw); !slices.Equal(got, want) {
					t.Fatalf("w=%d n=%d ref=%d: packed words differ from the reference", w, n, ref)
				}
				blocks := Pack(nil, vals, ModeFORBP)
				for bi, seg := range blocks.Segments() {
					part := vals[bi*BlockRows : min((bi+1)*BlockRows, n)]
					bmn, bmx := column.MinMax(part)
					want := packVerticalRef(part, bmn, uint(forWidth(bmn, bmx)))
					if !slices.Equal(seg.words, want) || seg.min != bmn || seg.max != bmx || seg.n != len(part) {
						t.Fatalf("w=%d n=%d ref=%d: Pack's block %d differs from the reference", w, n, ref, bi)
					}
				}
				if got := blocks.AppendTo(nil); !slices.Equal(got, vals) {
					t.Fatalf("w=%d n=%d ref=%d: decode differs from the rows", w, n, ref)
				}
			}
		}
	}
}

// TestPackOverAPool pins a run packed over pools of several widths —
// chunks of whole blocks, trailing empty ones past the last — to the run
// packed on one goroutine: the same bytes, blocks, rows and answers.
func TestPackOverAPool(t *testing.T) {
	vals := make([]int64, 3*BlockRows+5)
	rng := rand.New(rand.NewSource(8))
	for i := range vals {
		vals[i] = rng.Int63n(1<<30) - 1<<29
	}
	want := Pack(nil, vals, ModeFORBP)
	for _, workers := range []int{2, 3, 8} {
		got := Pack(parallel.New(workers), vals, ModeFORBP)
		if got.SizeBytes() != want.SizeBytes() || got.Kind() != KindFORBP || !slices.Equal(got.AppendTo(nil), vals) {
			t.Fatalf("%d workers: %d bytes %v, want %d bytes forbp and the rows back", workers, got.SizeBytes(), got.Kind(), want.SizeBytes())
		}
		for i, seg := range got.Segments() {
			if w := want.Segments()[i]; !slices.Equal(seg.Marshal(), w.Marshal()) {
				t.Fatalf("%d workers: block %d differs", workers, i)
			}
		}
		for _, q := range [][2]int64{{-1 << 29, 1 << 29}, {0, 1 << 20}, {-5, 5}} {
			if g, w := got.AggRange(q[0], q[1], column.AggAll), want.AggRange(q[0], q[1], column.AggAll); g != w {
				t.Fatalf("%d workers: AggRange%v = %+v, want %+v", workers, q, g, w)
			}
		}
	}
}

// fuzzRun returns the rows FuzzPack packs: 1–3 full blocks, then a last
// one of 1 to BlockRows−1 rows. Block b's shape is bytes 2b and 2b+1 of
// shapes (zero past its end): its frame is the first byte mod 63 bits
// wide, spanned by its first two rows; where the second byte is not zero
// the block draws that many distinct values, spread evenly over a frame
// of that width from the run's one low base, so that such blocks share a
// dictionary, and otherwise any rows of its own frame, from a base of
// its own anywhere in the ±2^62 domain.
func fuzzRun(seed int64, full uint8, last uint16, shapes []byte) []int64 {
	const edge = column.MaxMagnitude - 1
	rng := rand.New(rand.NewSource(seed))
	n := (1+int(full)%3)*BlockRows + 1 + int(last)%(BlockRows-1)
	vals := make([]int64, n)
	low := -int64(rng.Uint64() % uint64(edge+1)) // in [−edge, 0]: low + 2^62 − 1 ≤ edge
	for b := 0; BlockStart(b, n) < n; b++ {
		var w, card int
		if 2*b+1 < len(shapes) {
			w, card = int(shapes[2*b])%63, int(shapes[2*b+1])
		}
		span := uint64(1)<<w - 1
		base := low
		if card == 0 {
			base = -edge + int64(rng.Uint64()%(uint64(2*edge)-span+1))
		}
		part := vals[BlockStart(b, n):BlockStart(b+1, n)]
		for i := range part {
			d := rng.Uint64() & span
			if card > 0 {
				d = span
				if j := rng.Intn(card); j < card-1 {
					d = span / uint64(card-1) * uint64(j)
				}
			}
			part[i] = base + int64(d)
		}
		part[0] = base
		if len(part) > 1 {
			part[1] = base + int64(span)
		}
	}
	return vals
}

// FuzzPack: any run of blocks packed under FOR-BP, dictionary and
// automatic modes on one goroutine and over pools of 2, 3 and 8 workers.
// Every row decodes back; every block's Refine and AggMasked agree with
// column.RefineMask and column.AggMasked over its rows; the blocks marshal
// to the same bytes and the run reports the same size at every worker
// count; and no block's words or raw rows can reach into its neighbour's
// (their capacity is their length). The committed corpus holds blocks 0,
// 15, 17 and 58 bits wide (the last left raw by the automatic mode), a
// low-cardinality run under the dictionary mode and a one-row last block.
func FuzzPack(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, full uint8, last uint16, shapes []byte, mode uint8, pick uint32, maskSeed uint64) {
		vals := fuzzRun(seed, full, last, shapes)
		m := []Mode{ModeFORBP, ModeDict, ModeAuto}[mode%3]
		lo, hi := vals[int(pick&0xffff)%len(vals)], vals[int(pick>>16)%len(vals)]
		lo, hi = min(lo, hi), max(lo, hi)
		var want *Blocks
		for _, workers := range []int{1, 2, 3, 8} {
			b := Pack(parallel.New(workers), vals, m)
			if want == nil {
				want = b
				if got := b.AppendTo(nil); !slices.Equal(got, vals) {
					t.Fatalf("%v: the blocks do not decode to the rows", m)
				}
			}
			if b.SizeBytes() != want.SizeBytes() || len(b.Segments()) != len(want.Segments()) {
				t.Fatalf("%v over %d workers: %d bytes in %d blocks, one goroutine packs %d in %d",
					m, workers, b.SizeBytes(), len(b.Segments()), want.SizeBytes(), len(want.Segments()))
			}
			for i, seg := range b.Segments() {
				if cap(seg.words) != len(seg.words) || cap(seg.raw) != len(seg.raw) {
					t.Fatalf("%v over %d workers: block %d's window reaches past its end", m, workers, i)
				}
				if !slices.Equal(seg.Marshal(), want.Segments()[i].Marshal()) {
					t.Fatalf("%v over %d workers: block %d marshals otherwise than on one goroutine", m, workers, i)
				}
			}
		}
		for i, seg := range want.Segments() {
			part := vals[BlockStart(i, len(vals)):BlockStart(i+1, len(vals))]
			in := make([]uint64, column.MaskWords(len(part)))
			column.FillMask(in, len(part))
			for j := range in {
				in[j] &= bits.RotateLeft64(maskSeed, i+j*7) | maskSeed>>uint(j%64)
			}
			got, oracle := slices.Clone(in), slices.Clone(in)
			if s, o := seg.Refine(lo, hi, got), column.RefineMask(part, lo, hi, oracle); s != o || !slices.Equal(got, oracle) {
				t.Fatalf("%v block %d (%v, %d bits): Refine(%d, %d) keeps %d rows, RefineMask %d, or another mask",
					m, i, seg.Kind(), seg.width, lo, hi, s, o)
			}
			for aggs := column.Aggregates(1); aggs <= column.AggAll; aggs++ {
				if g, o := seg.AggMasked(got, aggs), column.AggMasked(part, oracle, aggs); g != o {
					t.Fatalf("%v block %d (%v): AggMasked(%v) = %+v, column.AggMasked %+v", m, i, seg.Kind(), aggs, g, o)
				}
			}
		}
	})
}
