package shard_test

import (
	"runtime"
	"testing"

	"repro/internal/data"
	"repro/internal/plan"
)

// TestShardedConvergedZeroAllocs pins the serving handle's steady
// state: with a serial fan-out — four shards at Workers: 1 (the
// parallel fan-out's fork/join necessarily allocates), or the unsharded
// handle at the default worker count (one shard has no fan-out) — a
// converged Execute reuses its pooled scratch and performs zero
// per-query allocations, both for queries that touch shards and for
// fully pruned ones, and so does a batch follower's ExecuteAs (the
// one-column table's pins are TestOneColumnTableAllocs, internal/plan).
func TestShardedConvergedZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	vals := boundedColumn(3000, 14)
	for _, opts := range []plan.Options{
		{Strategy: StrategyQuicksort, Delta: 1, Shards: 4, Workers: 1},
		{Strategy: StrategyQuicksort, Delta: 1, Shards: 0},
	} {
		sh := newColumn(t, vals, opts)
		for q := 0; q < 2000 && !sh.Converged(); q++ {
			sumCount(sh, -4000, 4000)
		}
		// Converged is settled here: the shards answer through their
		// indexes beside packed rows, on the same shared-lock path.
		if si := sh.ShardStats()[0]; !sh.Converged() || si.Form != "settled" {
			t.Fatalf("%s did not converge and settle: %+v", sh.Name(), si)
		}
		inRange := Request{Pred: Range(-1000, 1000), Aggs: AllAggregates}
		if allocs := testing.AllocsPerRun(100, func() { sh.Execute(inRange) }); allocs != 0 {
			t.Errorf("%s converged Execute allocates %.1f/op, want 0", sh.Name(), allocs)
		}
		miss := Request{Pred: Range(8_000_000, 9_000_000)}
		if allocs := testing.AllocsPerRun(100, func() { sh.Execute(miss) }); allocs != 0 {
			t.Errorf("%s pruned Execute allocates %.1f/op, want 0", sh.Name(), allocs)
		}
		// The entry a table's batch calls shares Execute's pooled fan-out.
		if allocs := testing.AllocsPerRun(100, func() { sh.ExecuteAs(inRange, false, nil) }); allocs != 0 {
			t.Errorf("%s converged ExecuteAs allocates %.1f/op, want 0", sh.Name(), allocs)
		}
	}
}

// TestColdColumnHoldsWhatItReports pins a cold column's live heap to the
// bytes its shard reports. Each of the conj table's three columns, loaded
// as one FOR-BP shard that no query claims, holds its packed blocks and
// their headers, which ShardStats does not count: within 2.5 % of what it
// reports. Blocks whose words each took a size class of their own held
// 8–10 % more.
func TestColdColumnHoldsWhatItReports(t *testing.T) {
	skipUnderRace(t)
	const n, k = 1_000_000, 3
	flat := data.MultiColumn(n, k, 1)
	makeThreads() // the pack runs on the pool
	for c := range k {
		vals := make([]int64, n)
		for r := range vals {
			vals[r] = flat[r*k+c]
		}
		base := liveHeap()
		idx := newColumn(t, vals, plan.Options{Encoding: EncodingFORBP})
		held, size := float64(liveHeap()-base), float64(idx.ShardStats()[0].Bytes)
		if held < size || held > 1.025*size {
			t.Errorf("column %d: the heap holds %.0f B, the shard reports %.0f (%+.2f %%)", c, held, size, 100*(held/size-1))
		}
		runtime.KeepAlive(idx)
		runtime.KeepAlive(vals)
	}
}
