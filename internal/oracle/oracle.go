// Package oracle is the one full-scan reference every test checks an
// answer against: the branching scan, column.AggRangeBranching, over
// plain rows, for one predicate and for a conjunction over named
// columns. It holds no index, so its answer is exact whatever form the
// table under test holds its rows in. Only tests import it (make deps).
package oracle

import (
	"math"

	"repro/internal/column"
	"repro/internal/query"
)

// Agg answers pred over rows with every aggregate: a predicate stores
// its effective inclusive bounds, open ends included.
func Agg(rows []int64, pred query.Predicate) column.Agg {
	return column.AggRangeBranching(rows, pred.Lo, pred.Hi)
}

// Answer answers req over rows as an index does: req's normalized
// aggregates, no Stats.
func Answer(rows []int64, req query.Request) query.Answer {
	return query.NewAnswer(Agg(rows, req.Pred), req.Aggs.Normalize(), query.Stats{})
}

// Conj answers c over cols, cols[i] named names[i]: the target column's
// values of the rows where every predicate holds on its column (an
// empty or unknown name is the first column), as Answer shapes them.
func Conj(cols [][]int64, names []string, c query.Conjunction) query.Answer {
	col := func(name string) []int64 {
		for i, n := range names {
			if n == name {
				return cols[i]
			}
		}
		return cols[0]
	}
	var matched []int64
rows:
	for r, v := range col(c.TargetCol()) {
		for _, cp := range c.Preds {
			if !cp.Pred.Matches(col(cp.Col)[r]) {
				continue rows
			}
		}
		matched = append(matched, v)
	}
	return Answer(matched, query.Request{Pred: query.Range(math.MinInt64, math.MaxInt64), Aggs: c.Aggs})
}

// Columns splits flat row-major tuples of width k into k columns.
func Columns(flat []int64, k int) [][]int64 {
	cols := make([][]int64, k)
	for i := range flat {
		cols[i%k] = append(cols[i%k], flat[i])
	}
	return cols
}
