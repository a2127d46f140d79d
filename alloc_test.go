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

// TestSynchronizedConvergedZeroAllocs extends the pin to the lock
// wrapper: the shared-read-lock path after convergence and the zone-map
// fast path (which never takes a lock at all) must both stay
// allocation-free.
func TestSynchronizedConvergedZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	vals := boundedColumn(3000, 13)
	idx := Synchronize(MustNew(vals, Options{Strategy: StrategyQuicksort, Delta: 1}))
	for q := 0; q < 500 && !idx.Converged(); q++ {
		sumCount(idx, -4000, 4000)
	}
	if !idx.Converged() {
		t.Fatal("PQ did not converge")
	}
	inRange := Request{Pred: Range(-1000, 1000), Aggs: AllAggregates}
	if allocs := testing.AllocsPerRun(100, func() { idx.Execute(inRange) }); allocs != 0 {
		t.Errorf("Synchronized converged Execute allocates %.1f/op, want 0", allocs)
	}
	// Zone miss: far outside the test column's domain.
	miss := Request{Pred: Range(8_000_000, 9_000_000), Aggs: AllAggregates}
	if allocs := testing.AllocsPerRun(100, func() { idx.Execute(miss) }); allocs != 0 {
		t.Errorf("Synchronized zone-miss Execute allocates %.1f/op, want 0", allocs)
	}
}

// TestShardedConvergedZeroAllocs pins the serving handle's steady
// state: with a serial fan-out — four shards at Workers: 1 (the
// parallel fan-out's fork/join necessarily allocates), or the unsharded
// handle at the default worker count (one shard has no fan-out) — a
// converged Execute reuses its pooled scratch and performs zero
// per-query allocations, both for queries that touch shards and for
// fully pruned ones, and a one-request ExecuteBatch allocates only its
// result slices.
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
		// The batch path — the only one the server calls — shares
		// Execute's pooled fan-out: nothing per shard, just the two
		// result slices.
		batch := []Request{inRange}
		if allocs := testing.AllocsPerRun(100, func() { sh.ExecuteBatch(batch, BatchOpts{}) }); allocs != 2 {
			t.Errorf("%s converged ExecuteBatch allocates %.1f/op, want 2 (answers and errors)", sh.Name(), allocs)
		}
	}
}
