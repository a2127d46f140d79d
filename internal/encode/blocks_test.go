package encode

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/column"
)

// TestBlocksMatchOracle sweeps dataset × mode over runs of several
// blocks ending in a partial one: the block-pruned scan must be
// bit-identical to the branching oracle over the raw values, the blocks
// must decode to the rows in order, every block must carry its own
// extrema, and nothing may alias the caller's slice.
func TestBlocksMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 3*BlockRows + 321
	for name, vs := range testDatasets(n, 6) {
		orig := slices.Clone(vs)
		mn, mx := column.MinMax(vs)
		span := mx - mn
		for _, mode := range testModes() {
			b := Pack(nil, vs, mode)
			segs := b.Segments()
			if len(segs) != 4 || segs[3].Len() != 321 {
				t.Fatalf("%s/%v: %d blocks, last of %d rows", name, mode, len(segs), segs[len(segs)-1].Len())
			}
			size := 0
			for i, seg := range segs {
				bmin, bmax := column.MinMax(orig[i*BlockRows : min((i+1)*BlockRows, n)])
				if seg.Min() != bmin || seg.Max() != bmax {
					t.Fatalf("%s/%v block %d: zone [%d, %d], want [%d, %d]", name, mode, i, seg.Min(), seg.Max(), bmin, bmax)
				}
				size += 8 * (len(seg.words) + len(seg.raw))
			}
			if b.SizeBytes() < size || b.SizeBytes() > size+8*dictMaxCard {
				t.Fatalf("%s/%v: SizeBytes %d, blocks alone %d", name, mode, b.SizeBytes(), size)
			}
			clear(vs) // the blocks keep nothing of the caller's slice
			if got := b.AppendTo(nil); !slices.Equal(got, orig) {
				t.Fatalf("%s/%v: AppendTo does not reproduce the rows", name, mode)
			}
			copy(vs, orig)
			preds := [][2]int64{{mn, mx}, {mn - 10, mx + 10}, {mx + 1, mx + 100}, {mn, mn}, {hi(mn, mx), lo(mn, mx)}}
			for i := 0; i < 20; i++ {
				a, c := mn+rng.Int63n(span+1), mn+rng.Int63n(span+1)
				preds = append(preds, [2]int64{min(a, c), max(a, c)})
			}
			for _, p := range preds {
				want := column.AggRangeBranching(orig, p[0], p[1])
				for _, aggs := range aggsCases() {
					if got := b.AggRange(p[0], p[1], aggs); !aggEqual(got, want, aggs) {
						t.Fatalf("%s/%v AggRange(%d, %d, %v) = %+v, oracle %+v", name, mode, p[0], p[1], aggs, got, want)
					}
				}
			}
		}
	}
}

// TestBlocksBytes pins the two byte counts the block form must not
// lose. A frame per block: a clustered column (values tracking the row
// number) packs to its local spread, not to the run's. One dictionary
// per run: a low-cardinality wide column pays for its distinct values
// once — within 5% of the whole-run segment, where a dictionary per
// block would more than double it.
func TestBlocksBytes(t *testing.T) {
	const n = 64 * BlockRows
	rng := rand.New(rand.NewSource(9))
	clustered := make([]int64, n)
	for i := range clustered {
		clustered[i] = int64(i) + rng.Int63n(2001) - 1000
	}
	mn, mx := column.MinMax(clustered)
	b := Pack(nil, clustered, ModeFORBP)
	whole, _ := New(clustered, mn, mx, ModeFORBP)
	// Spread within a block: 4096 rows + 2000 noise → 13 bits; the run's: 19.
	if perRow := float64(b.SizeBytes()) / n; perRow > 13.0/8 || whole.BytesPerRow() < 18.0/8 {
		t.Fatalf("clustered column: %.3f B/row in blocks, %.3f as one segment", perRow, whole.BytesPerRow())
	}

	dictVals := make([]int64, 1000)
	for i := range dictVals {
		dictVals[i] = rng.Int63n(1 << 40)
	}
	lowcard := make([]int64, n)
	for i := range lowcard {
		lowcard[i] = dictVals[rng.Intn(len(dictVals))]
	}
	mn, mx = column.MinMax(lowcard)
	b = Pack(nil, lowcard, ModeDict)
	whole, _ = New(lowcard, mn, mx, ModeDict)
	if b.Kind() != KindDict || whole.Kind() != KindDict {
		t.Fatalf("kinds %v / %v, want dict", b.Kind(), whole.Kind())
	}
	if got, want := float64(b.SizeBytes()), float64(whole.SizeBytes()); got > 1.05*want {
		t.Fatalf("low-cardinality column: %.3f B/row in blocks, %.3f as one segment", got/n, want/n)
	}
	for _, mode := range []Mode{ModeDict, ModeAuto} {
		b = Pack(nil, lowcard, mode)
		for i, seg := range b.Segments() {
			if seg.Kind() != KindDict || &seg.dict[0] != &b.Segments()[0].dict[0] {
				t.Fatalf("%v block %d: kind %v, or a dictionary of its own", mode, i, seg.Kind())
			}
		}
	}
}
