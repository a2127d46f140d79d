package shard_test

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/oracle"
	"repro/internal/plan"
	"repro/internal/shard"
)

// boundedColumn is testColumn without the ±2^62 extreme sentinels, for
// tests that need predicates genuinely outside the column domain.
func boundedColumn(n int, seed int64) []int64 {
	vals := testColumn(n, seed)
	vals[0], vals[1] = 1234, -1234
	return vals
}

// TestShardedWorkerInvariance pins the whole-query parallelism
// contract: the cross-shard fan-out merges partial aggregates in shard
// order, so every worker count produces the identical Answer sequence.
func TestShardedWorkerInvariance(t *testing.T) {
	vals := testColumn(6000, 24)
	type qr struct {
		p Predicate
		a Aggregates
	}
	rng := rand.New(rand.NewSource(3))
	queries := make([]qr, 60)
	for i := range queries {
		lo := rng.Int63n(8000) - 4000
		queries[i] = qr{Range(lo, lo+rng.Int63n(3000)), aggMaskPool[i%len(aggMaskPool)]}
	}
	var want []Answer
	for wi, workers := range []int{1, 2, 3, 7} {
		idx := newColumn(t, vals, plan.Options{Strategy: StrategyQuicksort, Delta: 0.4, Shards: 8, Workers: workers})
		got := make([]Answer, len(queries))
		for i, q := range queries {
			ans, err := idx.Execute(Request{Pred: q.p, Aggs: q.a})
			if err != nil {
				t.Fatal(err)
			}
			// Wall-clock stats legitimately vary with the fan-out; the
			// answer fields and work accounting must not.
			ans.Stats.Workers = 0
			got[i] = ans
		}
		if wi == 0 {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d query %d: %+v != serial %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestShardedZonePruning verifies the pruning guarantee on clustered
// data: shards whose zone map misses every predicate execute exactly
// zero times — no scan work, no indexing work — while the hot shards
// absorb the heat and the budget.
func TestShardedZonePruning(t *testing.T) {
	// Clustered column: sorted values, so row-range shards have
	// disjoint zone maps.
	n := 8000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	sh := newColumn(t, vals, plan.Options{Strategy: StrategyQuicksort, Delta: 0.25, Shards: 8})
	// Hammer the first quarter of the value domain only.
	for q := 0; q < 40; q++ {
		lo := int64(q * 37 % 1500)
		ans, err := sh.Execute(Request{Pred: Range(lo, lo+400)})
		if err != nil {
			t.Fatal(err)
		}
		want := oracle.Agg(vals, Range(lo, lo+400))
		if ans.Sum != want.Sum || ans.Count != want.Count {
			t.Fatalf("query %d: got {%d %d}, want {%d %d}", q, ans.Sum, ans.Count, want.Sum, want.Count)
		}
	}
	stats := sh.ShardStats()
	if len(stats) != 8 {
		t.Fatalf("ShardStats returned %d shards, want 8", len(stats))
	}
	for i, st := range stats {
		touched := st.MinValue <= 1900 // queries cover values [0, 1900]
		if touched && st.Executes == 0 {
			t.Errorf("shard %d [%d, %d] overlaps the workload but never executed", i, st.MinValue, st.MaxValue)
		}
		if !touched {
			if st.Executes != 0 {
				t.Errorf("shard %d [%d, %d] is outside the workload but executed %d times (pruning failed)",
					i, st.MinValue, st.MaxValue, st.Executes)
			}
			if st.Heat != 0 {
				t.Errorf("shard %d accumulated heat %d without surviving any query", i, st.Heat)
			}
			if st.Progress != 0 {
				t.Errorf("shard %d made indexing progress %.2f without ever executing", i, st.Progress)
			}
		}
	}
}

// TestShardedHeatDrivenConvergence verifies the budget split: under a
// workload that always hits one shard and only sometimes another, the
// hot shard must converge first.
func TestShardedHeatDrivenConvergence(t *testing.T) {
	n := 8000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	sh := newColumn(t, vals, plan.Options{Strategy: StrategyQuicksort, Delta: 0.05, Shards: 4})
	// Shard 0 holds [0, 2000); shard 3 holds [6000, 8000). Hit shard 0
	// every query, shard 3 every fourth query.
	hotDone, coldDone := -1, -1
	for q := 0; q < 400 && (hotDone < 0 || coldDone < 0); q++ {
		if _, err := sh.Execute(Request{Pred: Range(100, 200)}); err != nil {
			t.Fatal(err)
		}
		if q%4 == 0 {
			if _, err := sh.Execute(Request{Pred: Range(6100, 6200)}); err != nil {
				t.Fatal(err)
			}
		}
		stats := sh.ShardStats()
		if hotDone < 0 && stats[0].Converged {
			hotDone = q
		}
		if coldDone < 0 && stats[3].Converged {
			coldDone = q
		}
	}
	if hotDone < 0 {
		t.Fatal("hot shard never converged")
	}
	if coldDone >= 0 && coldDone < hotDone {
		t.Fatalf("cold shard converged at query %d, before the hot shard at %d", coldDone, hotDone)
	}
	stats := sh.ShardStats()
	if stats[0].Heat <= stats[3].Heat {
		t.Fatalf("hot shard heat %d not above cold shard heat %d", stats[0].Heat, stats[3].Heat)
	}
	// The untouched middle shards must have done nothing.
	for _, i := range []int{1, 2} {
		if stats[i].Executes != 0 {
			t.Errorf("untouched shard %d executed %d times", i, stats[i].Executes)
		}
	}
}

// TestShardedHandleSurface pins the scheduler-facing odds and ends:
// Phase reports the furthest-behind shard, the column has the shards
// its options ask for, and malformed requests error.
func TestShardedHandleSurface(t *testing.T) {
	vals := testColumn(3000, 28)
	sh := newColumn(t, vals, plan.Options{Strategy: StrategyQuicksort, Shards: 4})
	if sh.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", sh.Shards())
	}
	if ph := sh.Phase(); ph != PhaseCreation {
		t.Fatalf("fresh sharded Phase() = %v, want creation", ph)
	}
	p := Range(-500, 500)
	if _, err := sh.Execute(Request{Pred: Predicate{Kind: 99}}); err == nil {
		t.Fatal("sharded Execute accepted an unknown predicate kind")
	}
	if _, err := sh.Execute(Request{Pred: p, Aggs: Aggregates(0x80)}); err == nil {
		t.Fatal("sharded Execute accepted unknown aggregate bits")
	}
	// The v1 surface routes through the same path.
	if got, want := sumCount(sh, -500, 500), oracle.Agg(vals, p); got.Sum != want.Sum || got.Count != want.Count {
		t.Fatalf("Query = %+v, want {%d %d}", got, want.Sum, want.Count)
	}
}

// TestHandleZoneMissDoesNoWork: a predicate disjoint from the column
// domain answers empty with zero work stats — and, on a contended
// index, without waiting for a shard's write lock (here we just verify
// the answer shape and that no indexing step ran).
func TestHandleZoneMissDoesNoWork(t *testing.T) {
	vals := boundedColumn(3000, 29) // domain ⊂ [-4000, 4000): 7M really is a zone miss
	idx := newColumn(t, vals, plan.Options{Strategy: StrategyQuicksort, Delta: 0.25})
	before := idx.Progress()
	for i := 0; i < 10; i++ {
		ans, err := idx.Execute(Request{Pred: Range(7_000_000, 8_000_000), Aggs: AllAggregates})
		if err != nil {
			t.Fatal(err)
		}
		if ans.Count != 0 || ans.Sum != 0 || ans.Stats.WorkSeconds != 0 || ans.Stats.Delta != 0 {
			t.Fatalf("zone-miss answer not empty/workless: %+v", ans)
		}
	}
	if after := idx.Progress(); after != before {
		t.Fatalf("zone-miss queries advanced the index: progress %v -> %v", before, after)
	}
	// Inverted ranges cannot match either, so they ride the same fast
	// path.
	if ans, err := idx.Execute(Request{Pred: Range(100, -100)}); err != nil || ans.Count != 0 || ans.Stats.WorkSeconds != 0 {
		t.Fatalf("inverted-range fast path: err=%v ans=%+v", err, ans)
	}
	if after := idx.Progress(); after != before {
		t.Fatalf("empty predicates advanced the index: progress %v -> %v", before, after)
	}
	// A matching query still pays its indexing budget as before.
	if _, err := idx.Execute(Request{Pred: Range(-1000, 1000)}); err != nil {
		t.Fatal(err)
	}
	if after := idx.Progress(); after <= before {
		t.Fatalf("matching query did not advance the index (progress %v)", after)
	}
	// Malformed requests still error on the fast path.
	if _, err := idx.Execute(Request{Pred: Predicate{Kind: 99, Lo: 7_000_000, Hi: 8_000_000}}); err == nil {
		t.Fatal("zone-miss fast path swallowed a malformed request")
	}
}

// liveHeap forces a collection and returns the live heap.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSettledRowsStoredOnce pins what a settle is for on a one-column
// table: a converged index holds the shard's rows, as its B+-tree's
// packed leaves, so the slice that converges the index settles the shard
// — the raw rows go, no block of base rows is ever packed, and no shard
// waits for its siblings. The four loaded shards of a raw table slice one
// array: with three indexes converged and the fourth never queried, the
// three have settled already and the table holds the array (the fourth
// still slices it) and three trees. Once the fourth has converged too
// the array is gone, and the heap is the four trees, at what the shards
// report — where it used to hold the rows packed twice, in row order
// beside the trees, and 16 bytes a row before that.
func TestSettledRowsStoredOnce(t *testing.T) {
	skipUnderRace(t)
	const (
		n     = 1 << 19
		slack = n / 2 // block headers, views, the collector's slop
		// tree bounds a converged shard's B+-tree: its n/4 rows as leaves
		// of 7 bits a row, and a group reference and a prefix sum per 64.
		tree = 3 * (n / 4) / 2
	)
	base := liveHeap()
	vals := make([]int64, n)
	rng := rand.New(rand.NewSource(9))
	for i := range vals {
		vals[i] = int64(i) + rng.Int63n(4096) // shard k holds values in [k·n/4, (k+1)·n/4 + 4096)
	}
	sh := newColumn(t, vals, plan.Options{Strategy: StrategyQuicksort, Delta: 0.25, Shards: 4, Workers: 1})
	vals = nil
	threeDone := func() bool {
		st := sh.ShardStats()
		return st[0].Converged && st[1].Converged && st[2].Converged
	}
	for q := 0; q < 10_000 && !threeDone(); q++ {
		lo := rng.Int63n(3*n/4 - 5000)
		if _, err := sh.Execute(Request{Pred: Range(lo, min(lo+n/8, 3*n/4-1))}); err != nil {
			t.Fatal(err)
		}
	}
	for i, si := range sh.ShardStats() {
		if i < 3 && (si.Form != "settled" || si.Bytes > tree) || i == 3 && (si.Executes != 0 || si.Form != "raw") {
			t.Fatalf("three shards converged, one untouched: shard %d is %+v", i, si)
		}
	}
	if held := liveHeap() - base; held > 8*n+3*tree+slack {
		t.Fatalf("with the loaded array pinned the table holds %.2f B/row, above the array and three trees (8.6)", float64(held)/n)
	}
	for i := 0; i < 100_000 && !sh.Converged(); i++ {
		sh.RefineStep()
	}
	trees := 0
	for i, si := range sh.ShardStats() {
		if si.Form != "settled" || si.Encoding != "forbp" || si.Bytes > tree {
			t.Fatalf("converged table: shard %d is %+v", i, si)
		}
		trees += si.Bytes
	}
	if held := liveHeap() - base; held > uint64(trees+slack) {
		t.Fatalf("settled table holds %.2f B/row, above the %.2f B/row of its trees: the loaded array or a packed copy of it is still there", float64(held)/n, float64(trees)/n)
	}
	runtime.KeepAlive(sh)
}

// TestAppendedRowsSettle pins that appended rows settle like loaded ones:
// a seal builds its run into one buffer the shard owns, so a tail-born
// shard of any size — the small ones an idle flush cuts and a later seal
// merges included — settles on the slice that converges its index. A
// table that takes 256-row appends, each drained by idle slices, holds
// every shard settled after every drain, and its heap is what the shards
// report: no raw row of an appended shard and no tail extent is left.
func TestAppendedRowsSettle(t *testing.T) {
	skipUnderRace(t)
	const (
		n, batch, appends = 1 << 16, 256, 160
		slack             = 3 * n / 4 // views, shard states, the collector's slop
	)
	base := liveHeap()
	rng := rand.New(rand.NewSource(12))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(1 << 20)
	}
	sh := newColumn(t, vals, plan.Options{Strategy: StrategyQuicksort, Delta: 0.25, Shards: 4, Workers: 1})
	vals = nil
	rows := make([]int64, batch)
	for a := 0; a < appends; a++ {
		for i := range rows {
			rows[i] = rng.Int63n(1 << 20)
		}
		if err := sh.Append(rows); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100_000 && !sh.Converged(); i++ {
			sh.RefineStep()
		}
		if !sh.Converged() || sh.PendingRows() != 0 {
			t.Fatalf("append %d: the table never drained", a)
		}
		held := 0
		for i, si := range sh.ShardStats() {
			if si.Form != shard.FormSettled {
				t.Fatalf("append %d: shard %d of %d is %+v, want settled", a, i, sh.Shards(), si)
			}
			held += si.Bytes
		}
		if heap := liveHeap() - base; heap > uint64(held+slack) {
			t.Fatalf("append %d: the table holds %d bytes, its shards report %d: raw appended rows are still held", a, heap, held)
		}
	}
	runtime.KeepAlive(sh)
}
