package progidx

import "testing"

// skipUnderRace skips a zero-alloc pin in -race builds: the detector's
// instrumentation and sync.Pool randomization both allocate, so the
// counts are only meaningful in plain builds (which CI's main test job
// runs).
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under -race")
	}
}

// TestConvergedExecuteZeroAllocs pins the converged read path's heap
// behavior: once an index reaches its terminal state, Execute — the
// binary-search/AggSorted/B+-tree path, including the Answer shaping —
// must not allocate, for any aggregate mask. A converged table is the
// serving layer's steady state, so per-query garbage there turns
// directly into GC pressure under load. testing.AllocsPerRun makes the
// property a regression test instead of a code-review hope.
func TestConvergedExecuteZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	vals := testColumn(3000, 12)
	masks := []Aggregates{0, Sum, Min | Max, AllAggregates}
	strategies := []Strategy{
		StrategyQuicksort, StrategyRadixMSD, StrategyBucketsort,
		StrategyRadixLSD, StrategyFullIndex, StrategyProgressiveHash,
		StrategyImprints,
	}
	for _, s := range strategies {
		idx := MustNew(vals, Options{Strategy: s, Delta: 1})
		for q := 0; q < 500 && !idx.Converged(); q++ {
			sumCount(idx, -4000, 4000)
		}
		if !idx.Converged() {
			t.Fatalf("%v did not converge", s)
		}
		for _, m := range masks {
			req := Request{Pred: Range(-1000, 1000), Aggs: m}
			if allocs := testing.AllocsPerRun(100, func() {
				if _, err := idx.Execute(req); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("%v converged Execute(%v) allocates %.1f/op, want 0", s, m, allocs)
			}
		}
	}
}

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
	for _, opts := range []Options{
		{Strategy: StrategyQuicksort, Delta: 1, Shards: 4, Workers: 1},
		{Strategy: StrategyQuicksort, Delta: 1, Shards: 0},
	} {
		sh, err := NewHandle(vals, opts)
		if err != nil {
			t.Fatal(err)
		}
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
