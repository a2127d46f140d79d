package shard

import (
	"sync"

	"repro/internal/column"
	"repro/internal/encode"
)

// BlockRows is the most rows a Block holds.
const BlockRows = encode.BlockRows

// Block is one run of at most BlockRows rows of a table, with its zone,
// the two mask kernels of a conjunction scan and its decode, served in
// place from whatever holds the rows: a cold or settled shard's packed
// block, the leaf block of a settled shard that keeps no row order (its
// rows sorted), a raw or claimed shard's rows, the pending tail. It is
// the one way the table's rows are read: by a scan, a seal's gather, a
// snapshot. Immutable.
type Block struct {
	rows     blockRows
	Min, Max int64
}

// blockRows is what holds a Block's rows: a packed encode.Segment, in row
// order, a B+-tree's encode.SortedBlock, or rows held raw (rawRows).
type blockRows interface {
	Len() int
	AppendTo(dst []int64) []int64
	Refine(lo, hi int64, mask []uint64) int
	AggMasked(mask []uint64, aggs column.Aggregates) column.Agg
}

// rawRows is a block of raw rows: a raw or claimed shard's, or the pending
// tail's.
type rawRows []int64

func (r *rawRows) Len() int { return len(*r) }

func (r *rawRows) AppendTo(dst []int64) []int64 { return append(dst, *r...) }

func (r *rawRows) Refine(lo, hi int64, mask []uint64) int {
	return column.RefineMask(*r, lo, hi, mask)
}

func (r *rawRows) AggMasked(mask []uint64, aggs column.Aggregates) column.Agg {
	return column.AggMasked(*r, mask, aggs)
}

// BlockView returns the current view's rows as blocks, in row order.
// The grid is local to every shard and to the tail — no block straddles
// a boundary, so a shard's packed blocks are blocks of the view — and a
// function of the shard boundaries alone: tables that ingested the same
// batches and were flushed at the same points have row-aligned views
// whatever their encodings, claims and settles, which is what lets a
// multi-column table AND selection masks across its columns' views. The
// first call on a view builds the table — capturing each shard's
// current form under its read lock, and computing the zones of raw rows
// no earlier view has — and caches it there; it stays exact for the
// rows it was taken over however the table moves on.
func (s *Sharded) BlockView() []Block { return s.blockView(s.cur.Load()) }

// blockView returns v's block table, building it on the first call.
func (s *Sharded) blockView(v *view) []Block {
	if bv := v.blocks.Load(); bv != nil {
		return *bv
	}
	bv := make([]Block, 0, v.rows/BlockRows+len(v.shards)+1)
	for _, st := range v.shards {
		bv = st.appendBlocks(bv)
	}
	bv = appendRawBlocks(bv, v.tail, s.tailZones.of(v.rows-len(v.tail), v.tail))
	v.blocks.Store(&bv) // racing builders store equal tables
	return bv
}

// appendBlocks appends the shard's blocks to dst: raw rows, while the
// shard has them, cut on its own grid — the one its packed blocks are
// on, where it keeps row order — and otherwise the packed blocks of a
// cold or settled shard as they are, or a settled one's index's leaves
// where it packed none. It is the one place that decides which form a
// shard's rows are read from; none of them changes once set, so the
// blocks are read without the lock.
func (st *state) appendBlocks(dst []Block) []Block {
	st.mu.RLock()
	packed, vals := st.packed, st.vals
	var leaves []*encode.SortedBlock
	if packed == nil && vals == nil {
		leaves = st.leaves()
	}
	st.mu.RUnlock()
	switch {
	case vals != nil:
		return appendRawBlocks(dst, vals, st.zones.of(st.start, vals))
	case packed != nil:
		return appendPacked(dst, packed.Segments())
	}
	return appendPacked(dst, leaves)
}

// appendPacked appends packed blocks to dst with their zones.
func appendPacked[P interface {
	blockRows
	Min() int64
	Max() int64
}](dst []Block, blocks []P) []Block {
	for _, p := range blocks {
		dst = append(dst, Block{rows: p, Min: p.Min(), Max: p.Max()})
	}
	return dst
}

// zoneCache keeps the block zones of one run of raw rows — a shard's,
// or the pending tail's — from one view's block table to the next, so
// they are computed when a BlockView first wants them (a table nobody
// reads by block never computes any) and once: raw rows are immutable
// and a run's grid starts at its first row, so the zone of a complete
// block holds for every later, longer view of the same run, and a build
// pays only for the rows appended since the last one.
type zoneCache struct {
	mu       sync.Mutex
	start, n int     // the run the zones are of: logical rows [start, start+n)
	zones    []int64 // min, max per block
}

// of returns the zones of rows, the run starting at logical row start.
func (c *zoneCache) of(start int, rows []int64) []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.start != start || c.n > len(rows) {
		c.start, c.n, c.zones = start, 0, nil // another run, or an older view of this one
	}
	if c.n < len(rows) {
		full := c.n / BlockRows
		zones := append(make([]int64, 0, 2*((len(rows)+BlockRows-1)/BlockRows)), c.zones[:2*full]...)
		for off := full * BlockRows; off < len(rows); off += BlockRows {
			mn, mx := column.MinMax(rows[off:min(off+BlockRows, len(rows))])
			zones = append(zones, mn, mx)
		}
		c.n, c.zones = len(rows), zones // a fresh array: holders of the old one keep reading it
	}
	return c.zones
}

// appendRawBlocks appends rows to dst as raw blocks with their zones.
func appendRawBlocks(dst []Block, rows, zones []int64) []Block {
	raws := make([]rawRows, (len(rows)+BlockRows-1)/BlockRows)
	for i := range raws {
		raws[i] = rows[i*BlockRows : min((i+1)*BlockRows, len(rows))]
		dst = append(dst, Block{rows: &raws[i], Min: zones[2*i], Max: zones[2*i+1]})
	}
	return dst
}

// Packed reports whether the block is held compressed.
func (b *Block) Packed() bool {
	_, raw := b.rows.(*rawRows)
	return !raw
}

// Len returns the block's row count.
func (b *Block) Len() int { return b.rows.Len() }

// Refine clears from mask (one bit per row) every selected row whose
// value lies outside [lo, hi] and returns how many remain. A packed
// block is tested in place, never decoded.
func (b *Block) Refine(lo, hi int64, mask []uint64) int { return b.rows.Refine(lo, hi, mask) }

// AppendTo appends the block's rows, decoded, to dst.
func (b *Block) AppendTo(dst []int64) []int64 { return b.rows.AppendTo(dst) }

// AggMasked aggregates the block's selected rows.
func (b *Block) AggMasked(mask []uint64, aggs column.Aggregates) column.Agg {
	return b.rows.AggMasked(mask, aggs)
}
