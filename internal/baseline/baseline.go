// Package baseline implements the two reference points of the paper's
// evaluation: the Full Scan (FS), which never builds any index, and the
// Full Index (FI), which builds a complete B+-tree on the first query.
// Together they bracket every progressive and adaptive technique: FS
// has the cheapest possible first query and the worst cumulative time,
// FI the opposite.
package baseline

import (
	"slices"

	"repro/internal/btree"
	"repro/internal/column"
	"repro/internal/parallel"
	"repro/internal/query"
)

// FullScan answers every query with a predicated scan of the base
// column. Maximally robust (cost never varies), never converges.
type FullScan struct {
	col  *column.Column
	pool *parallel.Pool
}

// NewFullScan builds the FS baseline over col, scanning with every
// available core (the default pool sizes itself at GOMAXPROCS).
func NewFullScan(col *column.Column) *FullScan { return NewFullScanWorkers(col, 0) }

// NewFullScanWorkers is NewFullScan with an explicit worker count
// (0 = GOMAXPROCS, 1 = serial).
func NewFullScanWorkers(col *column.Column, workers int) *FullScan {
	return &FullScan{col: col, pool: parallel.New(workers)}
}

// Name implements query.Index.
func (f *FullScan) Name() string { return "FS" }

// Converged reports false: a scan never builds an index.
func (f *FullScan) Converged() bool { return false }

// Execute scans the whole column with the predicated multi-aggregate
// kernel, chunked across the pool's workers.
func (f *FullScan) Execute(req query.Request) (query.Answer, error) {
	return query.Run(req, f.col.Min(), f.col.Max(), func(lo, hi int64, aggs column.Aggregates) (column.Agg, query.Stats) {
		return column.ParAggRange(f.pool, f.col.Values(), lo, hi, aggs),
			query.Stats{Workers: f.pool.Workers()}
	})
}

// FullIndex sorts a copy of the column and bulk-loads a B+-tree on the
// first query, then answers everything from the tree. Its first query
// is ~50x a scan (Table 2) but its cumulative time is the floor.
type FullIndex struct {
	col    *column.Column
	tree   *btree.Tree
	fanout int
}

// NewFullIndex builds the FI baseline over col with the given B+-tree
// fanout (values < 2 fall back to 64, the repository default).
func NewFullIndex(col *column.Column, fanout int) *FullIndex {
	if fanout < 2 {
		fanout = 64
	}
	return &FullIndex{col: col, fanout: fanout}
}

// Name implements query.Index.
func (f *FullIndex) Name() string { return "FI" }

// Converged reports whether the tree has been built (true from the
// first query on).
func (f *FullIndex) Converged() bool { return f.tree != nil }

// Execute builds the index if needed, then answers the requested
// aggregates from the B+-tree.
func (f *FullIndex) Execute(req query.Request) (query.Answer, error) {
	return query.Run(req, f.col.Min(), f.col.Max(), func(lo, hi int64, aggs column.Aggregates) (column.Agg, query.Stats) {
		f.build()
		a, read := f.tree.AggRange(lo, hi, aggs)
		return a, query.Stats{AlphaElems: read, Workers: 1}
	})
}

func (f *FullIndex) build() {
	if f.tree != nil {
		return
	}
	sorted := make([]int64, f.col.Len())
	copy(sorted, f.col.Values())
	slices.Sort(sorted)
	t, err := btree.Build(sorted, f.fanout)
	if err != nil {
		// fanout is validated in the constructor; unreachable.
		panic(err)
	}
	// The tree packed the sorted copy and Execute reads only the zone from
	// here on: the index holds no row outside the tree's leaves.
	f.tree, f.col = t, f.col.Zone()
}

// SizeBytes returns what the built index holds: the B+-tree's keys,
// prefix sums and packed leaves; 0 before the first query.
func (f *FullIndex) SizeBytes() int {
	if f.tree == nil {
		return 0
	}
	return f.tree.SizeBytes()
}
