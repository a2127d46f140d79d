package progidx

// Handle is the served table as catalog.Table.Index() returns it: plain
// Execute plus what drives a table from outside the scheduler — idle-time
// refinement, live ingestion and the convergence probes. It has exactly
// one implementation, plan.Table — a single-column table is the
// one-column plan.Table — and the catalog and the scheduler hold that
// type; the interface is kept because benchmark/traced.go type-asserts
// on Index()'s value (ROADMAP item 0).
type Handle interface {
	Index
	// RefineStep spends one indexing-budget slice with no client query
	// attached, returning the work stats and whether the handle is now
	// fully converged.
	RefineStep() (Stats, bool)
	// Append ingests new rows at the tail of the table. The rows are
	// visible to every query that starts after Append returns; the
	// index absorbs them progressively under the same per-query budget
	// discipline as its initial build (see Sharded.Append).
	Append(values []int64) error
	// Progress reports the convergence fraction in [0, 1].
	Progress() float64
	// PendingRows is the number of appended rows no index covers yet.
	PendingRows() int
}
