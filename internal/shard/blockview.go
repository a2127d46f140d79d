package shard

import (
	"sync"

	"repro/internal/column"
	"repro/internal/encode"
)

// BlockRows is the most rows a Block holds.
const BlockRows = encode.BlockRows

// Block is one run of at most BlockRows rows of a table, with its zone
// and the two mask kernels of a conjunction scan, served in place from
// whatever holds the rows: a cold or settled shard's packed block, a raw
// or claimed shard's rows, the pending tail. Immutable.
type Block struct {
	seg      *encode.Segment // the packed block; nil where the rows are held raw
	raw      []int64
	Min, Max int64
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
func (s *Sharded) BlockView() []Block {
	v := s.cur.Load()
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

// appendBlocks appends the shard's blocks to dst: the packed blocks of a
// cold or settled shard as they are, raw rows cut on the shard's own
// grid — the one a settle packs them on.
func (st *state) appendBlocks(dst []Block) []Block {
	st.mu.RLock()
	packed, vals := st.packed, st.vals
	st.mu.RUnlock()
	if vals != nil {
		return appendRawBlocks(dst, vals, st.zones.of(st.start, vals))
	}
	for _, seg := range packed.Segments() {
		dst = append(dst, Block{seg: seg, Min: seg.Min(), Max: seg.Max()})
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
	for off := 0; off < len(rows); off += BlockRows {
		z := zones[off/BlockRows*2:]
		dst = append(dst, Block{raw: rows[off:min(off+BlockRows, len(rows))], Min: z[0], Max: z[1]})
	}
	return dst
}

// Packed reports whether the block is held compressed.
func (b *Block) Packed() bool { return b.seg != nil }

// Len returns the block's row count.
func (b *Block) Len() int {
	if b.seg != nil {
		return b.seg.Len()
	}
	return len(b.raw)
}

// Refine clears from mask (one bit per row) every selected row whose
// value lies outside [lo, hi] and returns how many remain. A packed
// block is tested in place, never decoded.
func (b *Block) Refine(lo, hi int64, mask []uint64) int {
	if b.seg != nil {
		return b.seg.Refine(lo, hi, mask)
	}
	return column.RefineMask(b.raw, lo, hi, mask)
}

// AggMasked aggregates the block's selected rows.
func (b *Block) AggMasked(mask []uint64, aggs column.Aggregates) column.Agg {
	if b.seg != nil {
		return b.seg.AggMasked(mask, aggs)
	}
	return column.AggMasked(b.raw, mask, aggs)
}
