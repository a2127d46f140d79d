package progidx

import (
	"fmt"
	"time"

	"repro/internal/column"
	"repro/internal/query"
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
// shard at a size threshold (DESIGN.md section 9), so the table keeps
// ingesting while it is queried.
//
// Sharded is safe for concurrent use.
type Sharded = shard.Sharded

// ShardInfo is a point-in-time snapshot of one shard, as returned by
// Sharded.ShardStats.
type ShardInfo = shard.Info

// NewHandle builds a concurrency-safe table over one column: a *Sharded
// of the selected strategy over values. Every column of a served table
// (plan.Table) is one; NewShardedFromColumn says which strategies it serves.
// Options.Shards chooses the partition count (values < 1 are treated as
// 1: a table of one shard). Options.Workers sizes the cross-shard
// fan-out pool; with more than one shard the per-shard index kernels
// themselves run serially, because with one goroutine per surviving
// shard the shard fan-out already uses the cores. A table of one shard
// has no fan-out, so its index keeps Options.Workers for the parallel
// creation and scan kernels (DESIGN.md section 9).
func NewHandle(values []int64, opts Options) (*Sharded, error) {
	col, err := column.New(values)
	if err != nil {
		return nil, err
	}
	return NewShardedFromColumn(col, opts)
}

// NewShardedFromColumn is NewHandle for a pre-built column. The table
// holds the rows itself — raw shards slice the column's array, appended
// rows go to the shard layer's own extents — so the column must not be
// appended to afterwards, and the rows are read back through
// MaterializeRows (DESIGN.md section 9).
//
// It is the one place a table refuses a strategy other than the four
// progressive algorithms: the other nine exist for the paper's
// comparison figures, which build them unsharded with New.
func NewShardedFromColumn(col *column.Column, opts Options) (*Sharded, error) {
	if !opts.Strategy.Progressive() {
		return nil, fmt.Errorf("progidx: a table serves only PQ, PMSD, PB and PLSD, not %v; the other strategies are built unsharded with progidx.New, as cmd/experiments does", opts.Strategy)
	}
	cfg, factory := shardLayout(opts, col.Len())
	return shard.New(col, cfg, factory)
}

// unshardedSealMinRows floors the seal threshold of a one-shard table:
// below it a tail scan is cheaper than indexing the rows, so the tail
// just rides along (idle time still seals it).
const unshardedSealMinRows = 1024

// shardLayout derives the shard layer's configuration for a table of
// rows rows, and the factory every shard's index is built with; the
// strategy is one of the four progressive algorithms.
func shardLayout(opts Options, rows int) (shard.Config, shard.Factory) {
	cfg := shard.Config{Shards: max(opts.Shards, 1), Workers: opts.Workers, Encoding: opts.Encoding, ClaimHeat: opts.ClaimHeat}
	child := opts
	child.Shards = 0
	// Claimed shards decompress into the selected strategy over raw
	// rows; the factory must not re-encode what the claim just decoded.
	child.Encoding = EncodingRaw
	if cfg.Shards > 1 {
		child.Workers = 1 // the shard fan-out is the parallelism
	} else {
		// One shard is the whole loaded table: sealing the tail at the
		// shard size would let the unindexed rows every query scans grow
		// to the size of the table. An eighth of it bounds that scan and
		// the re-indexing the seals cause alike.
		cfg.SealRows = max(rows/8, unshardedSealMinRows)
	}
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
		child.Budget /= time.Duration(cfg.Shards)
	}
	build := strategies[opts.Strategy].progressive
	return cfg, func(c *column.Column) query.Budgeted { return build(c, child) }
}
