package encode

import "repro/internal/column"

// BlockRows is the packed unit and the one zone-map granularity of the
// stack: a cold shard holds its rows as BlockRows-row segments, each
// with its own zone and frame of reference, and the planner's fused
// conjunction scan prunes and evaluates in these units — one 64-word
// selection mask per block. 4096 rows × 8 B = one 32 KiB block, the
// same cutoff the parallel kernels use for their minimum chunk.
const BlockRows = 4096

// Blocks is one immutable run of rows packed as consecutive segments of
// BlockRows rows (the last one shorter when the run does not divide).
// Every block is encoded over its own extrema, so a FOR-BP block's
// frame is as narrow as its rows allow however wide the run is, and a
// block's zone is its segment's Min/Max. Dictionary blocks share the
// one dictionary probed over the whole run: a low-cardinality run pays
// for its distinct values once, not once per block. Safe for concurrent
// readers; there are no mutators.
type Blocks struct {
	segs  []*Segment
	bytes int
}

// NewBlocks packs values block by block under mode; mn/mx are trusted
// as the run's extrema, as in New. Unlike New it never retains values:
// a block left raw is copied out, so one incompressible block cannot
// pin the array its packed neighbours were read from.
func NewBlocks(values []int64, mn, mx int64, mode Mode) (*Blocks, error) {
	if err := check(len(values), mn, mx, mode); err != nil {
		return nil, err
	}
	dict := probeFor(values, mn, mx, mode)
	b := &Blocks{segs: make([]*Segment, 0, (len(values)+BlockRows-1)/BlockRows)}
	dictUsed := false
	for off := 0; off < len(values); off += BlockRows {
		part := values[off:min(off+BlockRows, len(values))]
		bmin, bmax := mn, mx // a run of one block: its extrema are the block's
		if len(values) > BlockRows {
			bmin, bmax = column.MinMax(part)
		}
		seg := pack(part, bmin, bmax, mode, dict)
		if seg.kind == KindRaw {
			seg.raw = append([]int64(nil), part...)
		}
		b.segs = append(b.segs, seg)
		b.bytes += 8 * (len(seg.words) + len(seg.raw))
		dictUsed = dictUsed || seg.kind == KindDict
	}
	if dictUsed {
		b.bytes += 8 * len(dict)
	}
	return b, nil
}

// BlockStart returns the first row of block b of a run of n rows cut into
// BlockRows-row blocks, clamped to n: blocks [a, b) are rows
// [BlockStart(a, n), BlockStart(b, n)), an empty range for the blocks past
// the last that a rounded-up pool.Run split hands its trailing chunks.
func BlockStart(b, n int) int { return min(b*BlockRows, n) }

// PackBlocks packs rows as consecutive blocks of BlockRows rows (the last
// one shorter when they do not divide), each frame-of-reference
// bit-packed over its own extrema, which it computes: how a row-ordered
// shard packs its raw rows, in chunks of blocks over a pool. The blocks'
// words are one allocation — a block's 11 KiB of 22-bit rows would
// otherwise round up to a 12 KiB size class, a tenth of what packing
// saved — and rows is not retained.
func PackBlocks(rows []int64) []*Segment {
	segs := make([]*Segment, (len(rows)+BlockRows-1)/BlockRows)
	words := 0
	for i := range segs {
		part := rows[i*BlockRows : min((i+1)*BlockRows, len(rows))]
		mn, mx := column.MinMax(part)
		segs[i] = &Segment{kind: KindFORBP, n: len(part), min: mn, max: mx, ref: mn, width: forWidth(mn, mx)}
		words += packedWords(len(part), uint(segs[i].width))
	}
	slab := make([]uint64, words)
	for i, seg := range segs {
		if k := packedWords(seg.n, uint(seg.width)); k > 0 {
			seg.words, slab = slab[:k:k], slab[k:]
			packVertical(seg.words, rows[i*BlockRows:i*BlockRows+seg.n], seg.ref, uint(seg.width))
		}
	}
	return segs
}

// BlocksOf assembles the run whose blocks PackBlocks packed, slice after
// slice, in row order: every block but the last holds BlockRows rows.
// segs is retained.
func BlocksOf(segs []*Segment) *Blocks {
	b := &Blocks{segs: segs}
	for _, seg := range segs {
		b.bytes += seg.SizeBytes()
	}
	return b
}

// Kind returns the representation of the run's first block — every
// block's, unless the automatic mode chose per block.
func (b *Blocks) Kind() Kind { return b.segs[0].kind }

// SizeBytes returns the resident payload size: the blocks' packed words
// and raw rows plus the shared dictionary, once.
func (b *Blocks) SizeBytes() int { return b.bytes }

// Segments returns the blocks in row order, for read-only use: block i
// holds rows [i·BlockRows, (i+1)·BlockRows) of the run.
func (b *Blocks) Segments() []*Segment { return b.segs }

// AppendTo appends the decoded rows (original order) to dst.
func (b *Blocks) AppendTo(dst []int64) []int64 {
	for _, seg := range b.segs {
		dst = seg.AppendTo(dst)
	}
	return dst
}

// AggRange computes the requested aggregates over rows v with
// lo <= v <= hi, scanning the packed blocks in place; a block whose
// zone misses the range costs its clamp and nothing else. Partials merge
// in row order, so the answer is bit-identical to column.AggRange over
// the decoded rows.
func (b *Blocks) AggRange(lo, hi int64, aggs column.Aggregates) column.Agg {
	a := column.NewAgg()
	for _, seg := range b.segs {
		a.Merge(seg.AggRange(lo, hi, aggs))
	}
	return a
}
