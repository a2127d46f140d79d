package encode

import (
	"repro/internal/column"
	"repro/internal/parallel"
)

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
// block's zone is its segment's Min/Max, and the run's the fold of theirs.
// Dictionary blocks share the one dictionary probed over the whole run: a
// low-cardinality run pays for its distinct values once, not once per
// block. Safe for concurrent readers; there are no mutators.
type Blocks struct {
	segs     []*Segment
	bytes    int
	min, max int64
}

// BlockStart returns the first row of block b of a run of n rows cut into
// BlockRows-row blocks, clamped to n: blocks [a, b) are rows
// [BlockStart(a, n), BlockStart(b, n)), an empty range for the blocks past
// the last that a rounded-up pool.Run split hands its trailing chunks.
func BlockStart(b, n int) int { return min(b*BlockRows, n) }

// Pack packs rows — a column's: at least one, each strictly inside the
// ±2^62 domain — under mode as consecutive blocks of BlockRows rows (the
// last one shorter when they do not divide), each over its own extrema,
// over pool (nil: the calling goroutine): every run of blocks — a cold
// load's, a seal's, a row-ordered shard's — is packed here. Three passes:
// the blocks' extrema; their kinds and widths, the run's dictionary probed
// once; the packing, into full-capacity windows of one slab of words and
// of one slab of rows for the blocks the automatic mode leaves raw.
// Allocated one by one, a block's 7 680 B of 15-bit rows would take an
// 8 KiB size class that SizeBytes does not count. No frame, kind or word
// depends on the pool, and rows is not retained.
func Pack(pool *parallel.Pool, rows []int64, mode Mode) *Blocks {
	n := len(rows)
	segs := make([]*Segment, (n+BlockRows-1)/BlockRows)
	pool.Run(len(segs), 1, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			part := rows[BlockStart(i, n):BlockStart(i+1, n)]
			mn, mx := column.MinMax(part)
			segs[i] = &Segment{n: len(part), min: mn, max: mx}
		}
	})
	mn, mx := segs[0].min, segs[0].max
	for _, seg := range segs[1:] {
		mn, mx = min(mn, seg.min), max(mx, seg.max)
	}
	dict := probeFor(rows, mn, mx, mode)
	words, raw, dictUsed := 0, 0, false
	for _, seg := range segs {
		seg.frame(mode, dict)
		words += seg.slabWords()
		if seg.kind == KindRaw {
			raw += seg.n
		}
		dictUsed = dictUsed || seg.kind == KindDict
	}
	b := &Blocks{segs: segs, bytes: 8 * (words + raw), min: mn, max: mx}
	if dictUsed {
		b.bytes += 8 * len(dict)
	}
	slab, raws := make([]uint64, words), make([]int64, raw)
	for _, seg := range segs {
		if k := seg.slabWords(); k > 0 {
			seg.words, slab = slab[:k:k], slab[k:]
		}
		if seg.kind == KindRaw {
			seg.raw, raws = raws[:seg.n:seg.n], raws[seg.n:]
		}
	}
	pool.Run(len(segs), 1, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			segs[i].fill(rows[BlockStart(i, n):BlockStart(i+1, n)])
		}
	})
	return b
}

// Kind returns the representation of the run's first block — every
// block's, unless the automatic mode chose per block.
func (b *Blocks) Kind() Kind { return b.segs[0].kind }

// Bounds returns the run's extrema, folded from its blocks' own.
func (b *Blocks) Bounds() (int64, int64) { return b.min, b.max }

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
