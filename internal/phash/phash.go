// Package phash implements the first future-work item of Section 6 of
// the paper: a progressive hash index. "Instead of constructing the
// complete hash table, we only insert n·δ elements and scan the
// remainder of the column. The partial hash table can be used to answer
// point queries on the indexed part of the data."
//
// The index maps each distinct value to its occurrence count, which is
// all a SUM/COUNT point query needs (sum = value · count). Point
// queries on the indexed prefix become O(1); range queries fall back to
// scanning, exactly as a hash index in a real system would.
package phash

import (
	"repro/internal/column"
	"repro/internal/costmodel"
	"repro/internal/query"
)

// Index is a progressively built hash index over a column.
type Index struct {
	col    *column.Column
	model  *costmodel.Model
	n      int
	delta  float64
	counts map[int64]int64
	copied int
}

// New builds a progressive hash index that inserts a delta fraction of
// the column per query. Deltas outside (0, 1] default to 0.25.
func New(col *column.Column, delta float64) *Index {
	if delta <= 0 || delta > 1 {
		delta = 0.25
	}
	return &Index{
		col:    col,
		model:  costmodel.New(costmodel.Default()),
		n:      col.Len(),
		delta:  delta,
		counts: make(map[int64]int64),
	}
}

// Name implements query.Index.
func (ix *Index) Name() string { return "PHASH" }

// Converged reports whether the whole column has been inserted.
func (ix *Index) Converged() bool { return ix.copied == ix.n }

// Execute answers the request. Point predicates — Point(v) or a
// degenerate range — use the hash table for the indexed prefix, an O(1)
// lookup instead of a scan; other predicates scan. Either way another
// δ·N elements are inserted.
func (ix *Index) Execute(req query.Request) (query.Answer, error) {
	return query.Run(req, ix.col.Min(), ix.col.Max(), func(lo, hi int64, aggs column.Aggregates) (column.Agg, query.Stats) {
		res := ix.answer(lo, hi, aggs)
		ix.insert(int(ix.delta * float64(ix.n)))
		return res, query.Stats{Workers: 1}
	})
}

func (ix *Index) answer(lo, hi int64, aggs column.Aggregates) column.Agg {
	res := column.NewAgg()
	if lo > hi {
		// Empty predicate (e.g. an out-of-domain point probe): nothing
		// can match, so skip the scan entirely — a hash index should
		// answer existence misses in O(1).
		return res
	}
	if lo == hi {
		if c := ix.counts[lo]; c > 0 {
			res.Sum, res.Count = lo*c, c
			res.Min, res.Max = lo, lo
		}
		res.Merge(column.AggRange(ix.col.Slice(ix.copied, ix.n), lo, hi, aggs))
		return res
	}
	// Range queries cannot use a hash table; scan the column.
	return column.AggRange(ix.col.Values(), lo, hi, aggs)
}

// insert adds up to units elements from the column into the table. Once
// converged it is a no-op, keeping post-convergence Execute strictly
// read-only for shared-lock readers.
func (ix *Index) insert(units int) {
	if ix.copied == ix.n {
		return
	}
	end := min(ix.copied+max(units, 1), ix.n)
	for _, v := range ix.col.Slice(ix.copied, end) {
		ix.counts[v]++
	}
	ix.copied = end
}

// Distinct returns the number of distinct values indexed so far.
func (ix *Index) Distinct() int { return len(ix.counts) }
