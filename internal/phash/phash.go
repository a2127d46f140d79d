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
	col       *column.Column
	model     *costmodel.Model
	n         int
	delta     float64
	counts    map[int64]int64
	copied    int
	suspended bool
	scale     float64 // budget multiplier (shard heat-weighting hook)
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
		scale:  1,
	}
}

// Name implements query.Index.
func (ix *Index) Name() string { return "PHASH" }

// Converged reports whether the whole column has been inserted.
func (ix *Index) Converged() bool { return ix.copied == ix.n }

// Progress reports the inserted fraction of the column.
func (ix *Index) Progress() float64 { return float64(ix.copied) / float64(ix.n) }

// SetIndexingSuspended switches the per-query insertion step off (true)
// or back on (false) — the batching scheduler's amortization hook.
func (ix *Index) SetIndexingSuspended(s bool) { ix.suspended = s }

// SetBudgetScale multiplies the per-query insertion quota — the shard
// layer's heat-weighted budget split hook. Non-positive resets to 1.
func (ix *Index) SetBudgetScale(f float64) {
	if f <= 0 {
		f = 1
	}
	ix.scale = f
}

// ValueBounds returns the base column's zone statistics, the
// synchronization layer's zone-map pruning hook.
func (ix *Index) ValueBounds() (int64, int64) { return ix.col.Min(), ix.col.Max() }

// quota is the per-query insertion allowance: δ·N elements, re-weighted
// by the shard layer's budget scale when one is set.
func (ix *Index) quota() int { return int(ix.scale * ix.delta * float64(ix.n)) }

// Execute answers the request. Point predicates — Point(v) or a
// degenerate range — use the hash table for the indexed prefix, an O(1)
// lookup instead of a scan; other predicates scan. Either way another
// δ·N elements are inserted.
func (ix *Index) Execute(req query.Request) (query.Answer, error) {
	return query.Run(req, ix.col.Min(), ix.col.Max(), func(lo, hi int64, aggs column.Aggregates) (column.Agg, query.Stats) {
		return ix.execute(lo, hi, aggs), query.Stats{Workers: 1}
	})
}

func (ix *Index) execute(lo, hi int64, aggs column.Aggregates) column.Agg {
	res := column.NewAgg()
	if lo > hi {
		// Empty predicate (e.g. an out-of-domain point probe): nothing
		// can match, so skip the scan entirely — a hash index should
		// answer existence misses in O(1) — but still extend the table.
		ix.insert(ix.quota())
		return res
	}
	if lo == hi {
		if c := ix.counts[lo]; c > 0 {
			res.Sum, res.Count = lo*c, c
			res.Min, res.Max = lo, lo
		}
		res.Merge(column.AggRange(ix.col.Slice(ix.copied, ix.n), lo, hi, aggs))
		ix.insert(ix.quota())
		return res
	}
	// Range queries cannot use a hash table; scan the column and use
	// the pass to extend the index for free on the copied segment.
	res = column.AggRange(ix.col.Values(), lo, hi, aggs)
	ix.insert(ix.quota())
	return res
}

// insert adds up to units elements from the column into the table. Once
// converged (or while suspended) it is a no-op, keeping post-convergence
// Execute strictly read-only for shared-lock readers.
func (ix *Index) insert(units int) {
	if ix.copied == ix.n || ix.suspended {
		return
	}
	if units < 1 {
		units = 1
	}
	end := ix.copied + units
	if end > ix.n {
		end = ix.n
	}
	for _, v := range ix.col.Slice(ix.copied, end) {
		ix.counts[v]++
	}
	ix.copied = end
}

// Distinct returns the number of distinct values indexed so far.
func (ix *Index) Distinct() int { return len(ix.counts) }
