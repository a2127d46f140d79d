// Package imprints implements the second future-work item of Section 6
// of the paper: progressive column imprints (Sidirourgos & Kersten,
// SIGMOD 2013). "Another example is column imprints, where instead of
// immediately building imprints for the entire column, only build them
// for the first fraction δ of the data."
//
// A column imprint is a secondary index: one 64-bit vector per
// cacheline of values marking which of 64 value bins occur in it.
// Range queries skip every cacheline whose imprint does not intersect
// the query's bin mask. The column itself is never reordered — unlike
// the primary progressive indexes, imprints never converge to a
// B+-tree; their converged state is "every cacheline imprinted".
package imprints

import (
	"slices"

	"repro/internal/column"
	"repro/internal/query"
)

// lineSize is the number of int64 values per imprinted cacheline
// (64 bytes).
const lineSize = 8

// bins is the number of value bins, one bit each.
const bins = 64

// Index is a progressively built column imprint.
type Index struct {
	col    *column.Column
	n      int
	delta  float64
	bounds [bins - 1]int64 // bin separators (equi-depth via sampling)
	marks  []uint64        // one imprint per cacheline
	lines  int             // cachelines imprinted so far
}

// New builds a progressive imprint index that imprints a delta fraction
// of the column per query. Deltas outside (0, 1] default to 0.25.
func New(col *column.Column, delta float64) *Index {
	if delta <= 0 || delta > 1 {
		delta = 0.25
	}
	ix := &Index{
		col:   col,
		n:     col.Len(),
		delta: delta,
		marks: make([]uint64, (col.Len()+lineSize-1)/lineSize),
	}
	ix.sampleBounds()
	return ix
}

// sampleBounds derives equi-depth bin separators from an evenly spaced
// sample, like the imprints paper's sampled histograms.
func (ix *Index) sampleBounds() {
	const sampleSize = 2048
	k := sampleSize
	if k > ix.n {
		k = ix.n
	}
	vals := ix.col.Values()
	sample := make([]int64, k)
	step := float64(ix.n) / float64(k)
	for i := 0; i < k; i++ {
		sample[i] = vals[int(float64(i)*step)]
	}
	slices.Sort(sample)
	for i := 1; i < bins; i++ {
		ix.bounds[i-1] = sample[i*k/bins]
	}
}

// binOf returns the bin of v: the number of separators <= v.
func (ix *Index) binOf(v int64) int {
	return column.UpperBound(ix.bounds[:], v)
}

// binMask returns the bitmask of bins intersecting [lo, hi]. Inverted
// ranges (lo > hi, the canonical empty predicate) intersect nothing.
func (ix *Index) binMask(lo, hi int64) uint64 {
	if lo > hi {
		return 0
	}
	bLo, bHi := ix.binOf(lo), ix.binOf(hi)
	if bHi-bLo == bins-1 {
		return ^uint64(0)
	}
	return (^uint64(0) >> (63 - uint(bHi-bLo))) << uint(bLo)
}

// Name implements query.Index.
func (ix *Index) Name() string { return "PIMP" }

// Converged reports whether every cacheline has an imprint.
func (ix *Index) Converged() bool { return ix.lines == len(ix.marks) }

// Execute answers the request: imprinted cachelines are skipped unless
// their imprint intersects the predicate's bin mask, the tail is
// scanned, and another δ·N elements are imprinted.
func (ix *Index) Execute(req query.Request) (query.Answer, error) {
	return query.Run(req, ix.col.Min(), ix.col.Max(), func(lo, hi int64, aggs column.Aggregates) (column.Agg, query.Stats) {
		res := ix.execute(lo, hi, aggs)
		ix.imprint(int(ix.delta * float64(ix.n)))
		return res, query.Stats{Workers: 1}
	})
}

func (ix *Index) execute(lo, hi int64, aggs column.Aggregates) column.Agg {
	res := column.NewAgg()
	vals := ix.col.Values()
	mask := ix.binMask(lo, hi)
	for l := 0; l < ix.lines; l++ {
		if ix.marks[l]&mask == 0 {
			continue
		}
		start := l * lineSize
		end := start + lineSize
		if end > ix.n {
			end = ix.n
		}
		res.Merge(column.AggRange(vals[start:end], lo, hi, aggs))
	}
	// The unimprinted tail starts after the last imprinted cacheline,
	// which overshoots n when the final line is partial.
	tail := ix.lines * lineSize
	if tail > ix.n {
		tail = ix.n
	}
	res.Merge(column.AggRange(vals[tail:], lo, hi, aggs))
	return res
}

// imprint marks up to units more elements (whole cachelines). A no-op
// once converged (the loop guard), keeping post-convergence Execute
// strictly read-only.
func (ix *Index) imprint(units int) {
	addLines := (units + lineSize - 1) / lineSize
	if addLines < 1 {
		addLines = 1
	}
	vals := ix.col.Values()
	for ; addLines > 0 && ix.lines < len(ix.marks); addLines-- {
		start := ix.lines * lineSize
		end := start + lineSize
		if end > ix.n {
			end = ix.n
		}
		var m uint64
		for _, v := range vals[start:end] {
			m |= 1 << uint(ix.binOf(v))
		}
		ix.marks[ix.lines] = m
		ix.lines++
	}
}

// Selectivity returns the fraction of imprinted cachelines a query for
// [lo, hi] would touch — the pruning power of the imprint (tests and
// diagnostics).
func (ix *Index) Selectivity(lo, hi int64) float64 {
	if ix.lines == 0 {
		return 1
	}
	mask := ix.binMask(lo, hi)
	touched := 0
	for l := 0; l < ix.lines; l++ {
		if ix.marks[l]&mask != 0 {
			touched++
		}
	}
	return float64(touched) / float64(ix.lines)
}
