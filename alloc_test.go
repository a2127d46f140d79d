package progidx

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/column"
	"repro/internal/data"
	"repro/internal/plan"
	"repro/internal/query"
)

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

// makeThreads runs GOMAXPROCS goroutines at once, each spinning until
// all have started, so that the runtime has made a thread for every P
// before a test takes a heap baseline. The runtime allocates each
// thread's m on the heap and keeps it: a window in which the parallel
// kernels first run on more Ps than before grows the live heap by about
// 5.5 KB a thread (runtime.allocm in a heap profile across the window).
func makeThreads() {
	n := int32(runtime.GOMAXPROCS(0))
	var started atomic.Int32
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for started.Add(1); started.Load() < n; {
			}
		}()
	}
	wg.Wait()
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

// TestConvergedIndexIsItsPackedTree pins what a converged index weighs:
// its B+-tree's keys, prefix sums and packed leaves and nothing else — no
// sorted array, no structure it refined that array with, and, released,
// no base row. Over 1M uniform rows the live heap the index retains is
// under 2.5 bytes a row (12-bit leaves, a key and a prefix sum per 64) and
// within 5 % of what SizeBytes reports; with values spread to the ends of
// the legal domain a sorted block's frame is 55 bits and the index still
// stays under the 8 bytes a row of the array it replaced.
func TestConvergedIndexIsItsPackedTree(t *testing.T) {
	skipUnderRace(t)
	const n = 1 << 20
	makeThreads()
	for _, wide := range []bool{false, true} {
		for _, s := range []Strategy{StrategyQuicksort, StrategyRadixMSD, StrategyBucketsort, StrategyRadixLSD, StrategyFullIndex} {
			base := liveHeap()
			vals := data.Uniform(n, 5)
			limit := 2.5
			if wide {
				const edge = column.MaxMagnitude - 1
				for i, v := range vals {
					vals[i] = -edge + v*(edge/(n-1)*2) // v = n-1 lands a rounding under +edge
				}
				limit = 8
			}
			idx := MustNew(vals, Options{Strategy: s, Delta: 0.25})
			vals = nil
			for q := 0; q < 1000 && !idx.Converged(); q++ {
				sumCount(idx, -column.MaxMagnitude+1, column.MaxMagnitude-1)
			}
			if b, ok := idx.(query.Budgeted); !idx.Converged() || ok && !b.ReleaseBase() {
				t.Fatalf("%v (wide=%v) did not converge and release its base", s, wide)
			}
			held := float64(liveHeap() - base)
			size := float64(idx.(interface{ SizeBytes() int }).SizeBytes())
			if held > limit*n || held < size || held > 1.05*size {
				t.Errorf("%v (wide=%v): the converged index retains %.3f B/row and reports %.3f, want both under %.1f and within 5 %%",
					s, wide, held/n, size/n, limit)
			}
			runtime.KeepAlive(idx)
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
