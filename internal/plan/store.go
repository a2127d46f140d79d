// Package plan generalizes the serving stack from one-column tables to
// N-column tables with conjunctive predicates. A plan.Table keeps one
// row-aligned store per column and one progressive index per column
// that has earned one (every column of a raw table; a compressed
// column once its single-column traffic claims it), answers composite
// queries (`a IN [lo,hi] AND b = v AND c >= w`) through a
// selectivity-driven planner, and implements progidx.Handle so the
// scheduler, catalog and durability layers drive it exactly like the
// single-column handles. See DESIGN.md section 15.
package plan

import (
	"fmt"

	"repro/internal/column"
	"repro/internal/encode"
)

// BlockRows is the zone-map granularity: every column keeps a min/max
// pair per BlockRows-row block, and the fused conjunction scan prunes
// and evaluates in these units — one 64-word selection mask per block.
// 4096 rows × 8 B = one 32 KiB block, the same cutoff the parallel
// kernels use for their minimum chunk.
const BlockRows = 4096

// colStore is the row-aligned storage of one column: values in row
// order (never reorganized — a claimed column's progressive index
// keeps its own copy to sort), plus a min/max zone map per sealed
// block. With a compressed encoding the sealed blocks are held as
// packed encode.Segments and only the unsealed tail stays raw; the
// fused scan tests and aggregates the packed blocks in place — the
// scan-on-compressed discipline of the shard layer, applied per block —
// and only materialize (claim, snapshot, recovery) ever decodes one.
type colStore struct {
	name string
	mode encode.Mode

	// raw holds every row when mode is raw; with a compressed mode it
	// holds only the unsealed tail (fewer than BlockRows rows).
	raw []int64
	// segs are the sealed compressed blocks, BlockRows rows each.
	segs []*encode.Segment

	// zmin/zmax are the zone maps of the sealed (full) blocks; the tail
	// zone is tracked incrementally in tmin/tmax.
	zmin, zmax []int64
	tmin, tmax int64

	n      int // total rows
	mn, mx int64
}

func newColStore(name string, mode encode.Mode) *colStore {
	return &colStore{name: name, mode: mode}
}

// append ingests vs at the tail, sealing zone-map blocks (and, under a
// compressed mode, encoding them) as they fill.
func (cs *colStore) append(vs []int64) error {
	for _, v := range vs {
		if cs.n == 0 {
			cs.mn, cs.mx = v, v
		} else {
			if v < cs.mn {
				cs.mn = v
			}
			if v > cs.mx {
				cs.mx = v
			}
		}
		if cs.tailLen() == 0 {
			cs.tmin, cs.tmax = v, v
		} else {
			if v < cs.tmin {
				cs.tmin = v
			}
			if v > cs.tmax {
				cs.tmax = v
			}
		}
		cs.raw = append(cs.raw, v)
		cs.n++
		if cs.tailLen() == BlockRows {
			if err := cs.seal(); err != nil {
				return err
			}
		}
	}
	return nil
}

// tailLen is the number of rows past the last sealed block.
func (cs *colStore) tailLen() int { return cs.n - len(cs.zmin)*BlockRows }

// seal closes the current BlockRows-row tail into a zone-mapped block.
func (cs *colStore) seal() error {
	cs.zmin = append(cs.zmin, cs.tmin)
	cs.zmax = append(cs.zmax, cs.tmax)
	if cs.mode.Compressed() {
		// Under a compressed mode raw holds only the tail, and append
		// seals the instant it reaches BlockRows, so raw is exactly the
		// block. Copy before encoding: encode.New retains the slice when
		// the block degenerates to a raw-kind segment. The table has
		// already checked the mode (New) and the rows' domain (New,
		// Append), which are all encode.New can refuse.
		block := make([]int64, BlockRows)
		copy(block, cs.raw)
		seg, err := encode.New(block, cs.tmin, cs.tmax, cs.mode)
		if err != nil {
			cs.zmin = cs.zmin[:len(cs.zmin)-1]
			cs.zmax = cs.zmax[:len(cs.zmax)-1]
			return fmt.Errorf("plan: seal block of %q: %w", cs.name, err)
		}
		cs.segs = append(cs.segs, seg)
		cs.raw = cs.raw[:0]
	}
	return nil
}

// blocks reports the total block count, the trailing partial block
// included.
func (cs *colStore) blocks() int { return (cs.n + BlockRows - 1) / BlockRows }

// blockZone returns block b's min/max.
func (cs *colStore) blockZone(b int) (int64, int64) {
	if b < len(cs.zmin) {
		return cs.zmin[b], cs.zmax[b]
	}
	return cs.tmin, cs.tmax
}

// blockLen returns block b's row count (BlockRows except for the
// trailing partial block).
func (cs *colStore) blockLen(b int) int {
	if n := cs.n - b*BlockRows; n < BlockRows {
		return n
	}
	return BlockRows
}

// rawBlock returns block b's rows where they are held uncompressed: any
// block of a raw-mode store, the unsealed tail of a compressed one.
func (cs *colStore) rawBlock(b int) []int64 {
	if cs.mode.Compressed() {
		return cs.raw[:cs.tailLen()]
	}
	return cs.raw[b*BlockRows : b*BlockRows+cs.blockLen(b)]
}

// refine clears from mask (one bit per row of block b) every selected
// row whose value lies outside [lo, hi] and returns how many remain.
// Packed blocks are tested in place, never decoded.
func (cs *colStore) refine(b int, lo, hi int64, mask []uint64) int {
	if b < len(cs.segs) {
		return cs.segs[b].Refine(lo, hi, mask)
	}
	return column.RefineMask(cs.rawBlock(b), lo, hi, mask)
}

// aggMasked aggregates block b's selected rows.
func (cs *colStore) aggMasked(b int, mask []uint64, aggs column.Aggregates) column.Agg {
	if b < len(cs.segs) {
		return cs.segs[b].AggMasked(mask, aggs)
	}
	return column.AggMasked(cs.rawBlock(b), mask, aggs)
}

// estRows estimates how many of the column's rows satisfy [lo, hi]
// from the zone maps alone: each overlapping block contributes its row
// count scaled by the fraction of its zone the predicate covers
// (uniform-within-block assumption). Exact zero when no zone overlaps.
func (cs *colStore) estRows(lo, hi int64) float64 {
	if cs.n == 0 || lo > hi {
		return 0
	}
	est := 0.0
	for b := 0; b < cs.blocks(); b++ {
		zlo, zhi := cs.blockZone(b)
		if hi < zlo || lo > zhi {
			continue
		}
		olo, ohi := lo, hi
		if olo < zlo {
			olo = zlo
		}
		if ohi > zhi {
			ohi = zhi
		}
		frac := float64(ohi-olo+1) / float64(zhi-zlo+1)
		if frac > 1 {
			frac = 1
		}
		est += frac * float64(cs.blockLen(b))
	}
	return est
}

// scanBlocks counts the blocks whose zone overlaps [lo, hi] — the
// blocks a scan driven by this column would have to touch.
func (cs *colStore) scanBlocks(lo, hi int64) int {
	if cs.n == 0 || lo > hi {
		return 0
	}
	count := 0
	for b := 0; b < cs.blocks(); b++ {
		zlo, zhi := cs.blockZone(b)
		if hi >= zlo && lo <= zhi {
			count++
		}
	}
	return count
}

// materialize appends the whole column to dst in row order.
func (cs *colStore) materialize(dst []int64) []int64 {
	for _, seg := range cs.segs {
		dst = seg.AppendTo(dst)
	}
	return append(dst, cs.raw[:len(cs.raw)]...)
}

// encodedBlocks reports how many sealed blocks are held compressed.
func (cs *colStore) encodedBlocks() int { return len(cs.segs) }
