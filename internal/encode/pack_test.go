package encode

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/column"
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
// and through NewBlocks and PackBlocks, whose blocks must be the
// reference's over each block's own frame.
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
				if got, want := newFORBP(vals, mn, mx).words, packVerticalRef(vals, mn, fw); !slices.Equal(got, want) {
					t.Fatalf("w=%d n=%d ref=%d: packed words differ from the reference", w, n, ref)
				}
				blocks, err := NewBlocks(vals, mn, mx, ModeFORBP)
				if err != nil {
					t.Fatal(err)
				}
				packed := PackBlocks(vals)
				for bi, seg := range blocks.Segments() {
					part := vals[bi*BlockRows : min((bi+1)*BlockRows, n)]
					bmn, bmx := column.MinMax(part)
					want := packVerticalRef(part, bmn, uint(forWidth(bmn, bmx)))
					if !slices.Equal(seg.words, want) {
						t.Fatalf("w=%d n=%d ref=%d: NewBlocks block %d differs from the reference", w, n, ref, bi)
					}
					if pb := packed[bi]; !slices.Equal(pb.words, want) || pb.min != bmn || pb.max != bmx || pb.width != seg.width || pb.n != seg.n {
						t.Fatalf("w=%d n=%d ref=%d: PackBlocks block %d differs from NewBlocks'", w, n, ref, bi)
					}
				}
				if got := blocks.AppendTo(nil); !slices.Equal(got, vals) {
					t.Fatalf("w=%d n=%d ref=%d: decode differs from the rows", w, n, ref)
				}
			}
		}
	}
}

// TestBlocksOf pins the assembled run to the one NewBlocks packs.
func TestBlocksOf(t *testing.T) {
	vals := make([]int64, 3*BlockRows+5)
	rng := rand.New(rand.NewSource(8))
	for i := range vals {
		vals[i] = rng.Int63n(1<<30) - 1<<29
	}
	mn, mx := column.MinMax(vals)
	want, err := NewBlocks(vals, mn, mx, ModeFORBP)
	if err != nil {
		t.Fatal(err)
	}
	// Two slices, as a settle packs them: whole blocks, then the rest.
	got := BlocksOf(append(PackBlocks(vals[:2*BlockRows]), PackBlocks(vals[2*BlockRows:])...))
	if got.SizeBytes() != want.SizeBytes() || got.Kind() != KindFORBP || !slices.Equal(got.AppendTo(nil), vals) {
		t.Fatalf("BlocksOf: %d bytes %v, want %d bytes forbp and the rows back", got.SizeBytes(), got.Kind(), want.SizeBytes())
	}
	for _, q := range [][2]int64{{mn, mx}, {0, 1 << 20}, {-5, 5}} {
		if g, w := got.AggRange(q[0], q[1], column.AggAll), want.AggRange(q[0], q[1], column.AggAll); g != w {
			t.Fatalf("AggRange%v = %+v, want %+v", q, g, w)
		}
	}
}
