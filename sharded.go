package progidx

import (
	"time"

	"repro/internal/column"
	"repro/internal/obs"
	"repro/internal/shard"
)

// Sharded is a range-partitioned progressive index: the column is split
// into Options.Shards contiguous row ranges, each backed by its own
// progressive index of the selected strategy and described by a min/max
// zone map computed during partitioning. Execute prunes shards whose
// zone map cannot intersect the predicate, fans the survivors out over
// the worker pool, merges their partial aggregates in shard order (so
// answers are bit-identical to the unsharded index at any worker
// count), and splits the per-query indexing budget across survivors in
// proportion to their heat — the shards a workload touches converge
// first, and shards it never touches do zero work. Append routes new
// rows to a growable pending tail that is sealed into a fresh indexed
// shard at a size threshold (DESIGN.md section 10), so the table keeps
// ingesting while it is queried.
//
// Sharded is safe for concurrent use and implements Handle, the same
// scheduler surface as *Synchronized; do not wrap it in Synchronize
// (that would serialize the per-shard locks behind one global lock).
type Sharded = shard.Sharded

// ShardInfo is a point-in-time snapshot of one shard, as returned by
// Sharded.ShardStats.
type ShardInfo = shard.Info

// NewSharded builds a sharded index of the selected strategy over
// values. Options.Shards chooses the partition count (values < 1 are
// treated as 1; a single shard is valid and useful for apples-to-apples
// comparisons). Options.Workers sizes the cross-shard fan-out pool;
// the per-shard index kernels themselves run serially, because with
// one goroutine per surviving shard the shard fan-out already uses the
// cores (DESIGN.md section 9).
func NewSharded(values []int64, opts Options) (*Sharded, error) {
	col, err := column.New(values)
	if err != nil {
		return nil, err
	}
	return NewShardedFromColumn(col, opts)
}

// NewShardedFromColumn is NewSharded for a pre-built column.
func NewShardedFromColumn(col *column.Column, opts Options) (*Sharded, error) {
	cfg := shard.Config{Shards: opts.Shards, Workers: opts.Workers, Encoding: opts.Encoding, ClaimHeat: opts.ClaimHeat}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	child := opts
	child.Shards = 0
	child.Workers = 1 // the shard fan-out is the parallelism
	// Claimed shards decompress into the selected strategy over raw
	// rows; the factory must not re-encode what the claim just decoded.
	child.Encoding = EncodingRaw
	// Keep the wall-clock budget truthful: S shards of N/S rows each
	// must together spend what one index over N rows would, so each
	// shard's budgeter is sized at 1/S of the per-query time budget
	// (δ budgets are fractions of the shard's own data and need no
	// rescaling). The heat-weighted split then re-weights these equal
	// slices toward hot shards at query time, and BudgetSizedFor lets
	// the shard layer shrink the scales as sealed append-tails grow the
	// shard count past S — every sealed shard is built by the same
	// factory, so it carries the same 1/S budgeter slice.
	if child.Budget > 0 {
		cfg.BudgetSizedFor = cfg.Shards
		if cfg.Shards > 1 {
			child.Budget /= time.Duration(cfg.Shards)
		}
	}
	return shard.New(col, cfg, func(c *column.Column) (shard.Index, error) {
		return NewFromColumn(c, child)
	})
}

// NewHandle builds the concurrency-safe serving handle for opts: a
// *Sharded when opts.Shards > 1 (its per-shard locks make it safe by
// construction), otherwise a *Synchronized around the unsharded index.
// The serving layer's catalog loads every table through this.
func NewHandle(values []int64, opts Options) (Handle, error) {
	col, err := column.New(values)
	if err != nil {
		return nil, err
	}
	return NewHandleFromColumn(col, opts)
}

// NewHandleFromColumn is NewHandle for a pre-built column. An unsharded
// raw handle retains the column as its logical table and grows it
// through Handle.Append; the index itself is built over a frozen
// snapshot, so the strategies never observe mutation. A sharded or
// compressed handle holds the rows itself (raw shards slice the
// column's array, appended rows go to the shard layer's own extents),
// so the column stays as loaded and the rows are read back through
// Materializer (DESIGN.md section 10).
func NewHandleFromColumn(col *column.Column, opts Options) (Handle, error) {
	if opts.Shards > 1 || opts.Encoding.Compressed() {
		// Compressed tables always serve through the shard layer (a
		// single shard when unsharded): it owns the cold-scan, claim and
		// seal-time-encode machinery, and its per-shard locks make the
		// handle safe by construction.
		return NewShardedFromColumn(col, opts)
	}
	frozen := col.Snapshot()
	idx, err := NewFromColumn(frozen, opts)
	if err != nil {
		return nil, err
	}
	child := opts
	child.Shards = 0
	s := Synchronize(idx)
	s.enableAppend(col, frozen.Len(), func(c *column.Column) (Index, error) {
		return NewFromColumn(c, child)
	}, opts.Strategy.Convergent(), opts.Workers)
	return s, nil
}

// BatchTracer is the optional observability surface of the serving
// handles: ExecuteBatch with per-request span recording into
// obs.Trace (see DESIGN.md section 13). traces aligns positionally
// with reqs; nil entries (or a nil/short slice) leave those requests
// untraced at no cost beyond a pointer test. The scheduler
// type-asserts for this only when a batch actually carries traced
// queries, so the Handle interface — and any custom implementation —
// stays trace-free.
type BatchTracer interface {
	ExecuteBatchTraced(reqs []Request, traces []*obs.Trace) ([]Answer, []error)
}

// BudgetClamper is the optional deadline surface of the serving
// handles: ExecuteBatch with the per-batch indexing budget clamped to
// zero. Every request in the batch — including the leader — runs with
// refinement suspended, so the batch costs only the lookups
// themselves: a query that arrives with too little deadline headroom
// to pay an indexing slice still gets an exact answer, it just does
// not push convergence forward. The scheduler type-asserts for this
// only when a batch's deadline cannot absorb the estimated leader
// slice, so the Handle interface stays deadline-free.
type BudgetClamper interface {
	ExecuteBatchClamped(reqs []Request) ([]Answer, []error)
}

// EventSinkSetter is the optional convergence-timeline surface of the
// serving handles: the catalog attaches each table's obs.Timeline so
// structural transitions (tail seals, cold-shard claims, rebuild
// swaps) land in the table's debug event stream.
type EventSinkSetter interface {
	SetEventSink(tl *obs.Timeline)
}

// Both serving handles expose the same scheduler surface, including
// the optional observability interfaces.
var (
	_ Handle          = (*Synchronized)(nil)
	_ Handle          = (*Sharded)(nil)
	_ BatchTracer     = (*Synchronized)(nil)
	_ BatchTracer     = (*Sharded)(nil)
	_ BudgetClamper   = (*Synchronized)(nil)
	_ BudgetClamper   = (*Sharded)(nil)
	_ EventSinkSetter = (*Synchronized)(nil)
	_ EventSinkSetter = (*Sharded)(nil)
)
