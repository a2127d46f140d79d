package shard_test

import (
	"testing"

	"repro/internal/column"
	"repro/internal/plan"
	"repro/internal/shard"
)

// appendHandle builds the column for the append property tests exactly
// as newColumn does, except that a one-shard table seals its tail at 128
// rows instead of the 1024-row floor, so the small traces here actually
// exercise query-path seals and merges.
func appendHandle(t *testing.T, vals []int64, opts plan.Options) *shard.Sharded {
	t.Helper()
	col, err := column.New(append([]int64(nil), vals...))
	if err != nil {
		t.Fatal(err)
	}
	cfg, factory := plan.Layout(opts, col.Len())
	if cfg.Shards == 1 {
		cfg.SealRows = 128
	}
	h, err := shard.New(col, cfg, factory)
	if err != nil {
		t.Fatalf("%v shards=%d: %v", opts.Strategy, opts.Shards, err)
	}
	return h
}

// TestShardedAppendPruningZeroWork is the grown-table pruning
// acceptance check with a real strategy: rows appended and sealed into
// a tail shard carry their own zone map, and queries confined to the
// original value range do verifiably zero work on the new shard (and
// vice versa).
func TestShardedAppendPruningZeroWork(t *testing.T) {
	n := 4000
	vals := make([]int64, n) // clustered: shards get disjoint zones
	for i := range vals {
		vals[i] = int64(i)
	}
	sh := appendHandle(t, vals, plan.Options{Strategy: StrategyQuicksort, Delta: 0.25, Shards: 4})
	// Grow past the seal threshold (n/S = 1000 rows) with values far
	// above the loaded domain.
	batch := make([]int64, 1000)
	for i := range batch {
		batch[i] = int64(100_000 + i)
	}
	if err := sh.Append(batch); err != nil {
		t.Fatal(err)
	}
	if sh.Shards() != 5 || sh.PendingRows() != 0 {
		t.Fatalf("shards=%d pending=%d, want 5/0", sh.Shards(), sh.PendingRows())
	}
	// Old-domain queries: the sealed append shard must stay untouched.
	for q := 0; q < 20; q++ {
		if _, err := sh.Execute(Request{Pred: Range(int64(q*100), int64(q*100+500))}); err != nil {
			t.Fatal(err)
		}
	}
	infos := sh.ShardStats()
	if got := infos[4]; got.Executes != 0 || got.Refines != 0 || got.Heat != 0 {
		t.Fatalf("append shard did work on pruned queries: %+v", got)
	}
	// New-domain queries: only the append shard executes.
	before := make([]uint64, len(infos))
	for i, inf := range infos {
		before[i] = inf.Executes
	}
	for q := 0; q < 10; q++ {
		ans, err := sh.Execute(Request{Pred: Range(100_000, 100_099)})
		if err != nil || ans.Count != 100 {
			t.Fatalf("new-domain query: %+v, %v", ans, err)
		}
	}
	infos = sh.ShardStats()
	for i := 0; i < 4; i++ {
		if infos[i].Executes != before[i] {
			t.Fatalf("loaded shard %d executed on new-domain queries (%d -> %d)", i, before[i], infos[i].Executes)
		}
	}
	if infos[4].Executes != before[4]+10 {
		t.Fatalf("append shard executes = %d, want %d", infos[4].Executes, before[4]+10)
	}

	// Small appends flushed by idle time merge instead of piling up. The
	// witness survives a merge: never-hit shards merge into a shard that
	// reports zero scan work, and the counts of hit ones are carried.
	flush := func(k int) {
		t.Helper()
		small := make([]int64, 10)
		for i := range small {
			small[i] = int64(200_000 + 100*k + i)
		}
		if err := sh.Append(small); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100_000 && !sh.Converged(); i++ {
			sh.RefineStep()
		}
		if !sh.Converged() {
			t.Fatal("idle refinement never drained the append")
		}
	}
	hit := func(times int, lo, hi int64) {
		t.Helper()
		for i := 0; i < times; i++ {
			if _, err := sh.Execute(Request{Pred: Range(lo, hi)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	flush(0)
	flush(1) // 10 absorbs 10
	hit(20, 0, 3999)
	infos = sh.ShardStats()
	if got := infos[len(infos)-1]; len(infos) != 6 || got.Rows != 20 || got.Executes != 0 || got.Heat != 0 {
		t.Fatalf("never-hit merged shard: %d shards, last %+v; want 6 shards, 20 rows, zero work", len(infos), got)
	}
	hit(3, 200_000, 200_109)
	flush(2) // 10 rows: a lower size class than 20, stays its own shard
	hit(2, 200_200, 200_209)
	infos = sh.ShardStats()
	carriedRefines := infos[5].Refines + infos[6].Refines
	flush(3) // 10 absorbs 10, then the 20
	hit(20, 0, 3999)
	infos = sh.ShardStats()
	got := infos[len(infos)-1]
	if len(infos) != 6 || got.Rows != 40 || got.Executes != 5 || got.Heat != 5 {
		t.Fatalf("merged shard: %d shards, last %+v; want 6 shards, 40 rows, executes = heat = 3 + 2", len(infos), got)
	}
	if got.MinValue != 200_000 || got.MaxValue != 200_309 {
		t.Fatalf("merged zone [%d, %d], want the union [200000, 200309]", got.MinValue, got.MaxValue)
	}
	// Its own idle slices come on top of the ones it carries.
	if got.Refines <= carriedRefines {
		t.Fatalf("merged refines = %d, want more than the carried %d", got.Refines, carriedRefines)
	}
}

// TestAppendPendingPhaseAndPendingRows pins the observability contract:
// an unsharded handle with rows pending ingestion reports PendingRows
// and pins its phase to creation (never "done" while unconverged).
func TestAppendPendingPhaseAndPendingRows(t *testing.T) {
	h := appendHandle(t, testColumn(400, 7), plan.Options{Strategy: StrategyQuicksort, Delta: 0.5})
	for i := 0; i < 200 && !h.Converged(); i++ {
		h.RefineStep()
	}
	if ph := h.Phase(); ph != PhaseDone {
		t.Fatalf("converged phase = %v, want done", ph)
	}
	if got := h.PendingRows(); got != 0 {
		t.Fatalf("PendingRows before append = %d", got)
	}
	if err := h.Append([]int64{30_000, 30_001}); err != nil {
		t.Fatal(err)
	}
	if got := h.PendingRows(); got != 2 {
		t.Fatalf("PendingRows = %d, want 2", got)
	}
	if ph := h.Phase(); ph != PhaseCreation {
		t.Fatalf("phase with pending tail = %v, want creation (unindexed rows)", ph)
	}
	for i := 0; i < 400 && !h.Converged(); i++ {
		h.RefineStep()
	}
	if got := h.PendingRows(); got != 0 {
		t.Fatalf("PendingRows after drain = %d", got)
	}
	if ph := h.Phase(); ph != PhaseDone {
		t.Fatalf("phase after drain = %v, want done", ph)
	}
	if h.Name() != "PQ/S1" {
		t.Fatalf("Name after the seal = %q, want PQ/S1", h.Name())
	}
}
