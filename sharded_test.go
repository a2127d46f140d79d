package progidx

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/query"
	"repro/internal/shard"
)

// boundedColumn is testColumn without the ±2^62 extreme sentinels, for
// tests that need predicates genuinely outside the column domain.
func boundedColumn(n int, seed int64) []int64 {
	vals := testColumn(n, seed)
	vals[0], vals[1] = 1234, -1234
	return vals
}

// shardCountPool is the acceptance-criteria sweep: degenerate (1),
// small (2, 3 — odd, so row ranges divide unevenly) and the paper-ish
// per-core count (8).
var shardCountPool = []int{1, 2, 3, 8}

// TestShardedMatchesOracleAllStrategies is the sharded acceptance
// property test: every strategy a table serves × predicate kind ×
// aggregate mask × shard count, bit-identical to the unsharded branching
// oracle while the per-shard indexes advance through their lifecycles.
func TestShardedMatchesOracleAllStrategies(t *testing.T) {
	vals := testColumn(4000, 23)
	for _, s := range progressiveStrategies {
		for _, shards := range shardCountPool {
			idx, err := NewHandle(vals, Options{Strategy: s, Delta: 0.3, Seed: 7, Shards: shards})
			if err != nil {
				t.Fatalf("%v shards=%d: %v", s, shards, err)
			}
			rng := rand.New(rand.NewSource(int64(s)*31 + int64(shards)))
			for round := 0; round < 6; round++ {
				for pi, p := range predicatePool(rng, vals) {
					aggs := aggMaskPool[(round+pi)%len(aggMaskPool)]
					ans, err := idx.Execute(Request{Pred: p, Aggs: aggs})
					if err != nil {
						t.Fatalf("%v shards=%d Execute(%v, %v): %v", s, shards, p, aggs, err)
					}
					checkAnswer(t, idx.Name(), p, aggs, ans, oracleAnswer(vals, p))
				}
			}
		}
	}
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
		idx, err := NewHandle(vals, Options{Strategy: StrategyQuicksort, Delta: 0.4, Shards: 8, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
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
	sh, err := NewHandle(vals, Options{Strategy: StrategyQuicksort, Delta: 0.25, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Hammer the first quarter of the value domain only.
	for q := 0; q < 40; q++ {
		lo := int64(q * 37 % 1500)
		ans, err := sh.Execute(Request{Pred: Range(lo, lo+400)})
		if err != nil {
			t.Fatal(err)
		}
		want := oracleAnswer(vals, Range(lo, lo+400))
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
	sh, err := NewHandle(vals, Options{Strategy: StrategyQuicksort, Delta: 0.05, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
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

// TestShardedExecuteBatch checks the scheduler surface: a batch's
// answers positionally match the oracle, and the batch pays its
// indexing budget once (progress advances, but the suspended tail does
// not multiply it).
func TestShardedExecuteBatch(t *testing.T) {
	vals := testColumn(4000, 25)
	sh, err := NewHandle(vals, Options{Strategy: StrategyRadixMSD, Delta: 0.2, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 8; round++ {
		reqs := make([]Request, 5)
		preds := make([]Predicate, 5)
		for i := range reqs {
			lo := rng.Int63n(8000) - 4000
			preds[i] = Range(lo, lo+rng.Int63n(2000))
			reqs[i] = Request{Pred: preds[i], Aggs: AllAggregates}
		}
		answers, errs := executeBatch(sh, reqs, query.BatchOpts{})
		for i := range reqs {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			checkAnswer(t, "batch", preds[i], AllAggregates, answers[i], oracleAnswer(vals, preds[i]))
		}
	}
}

// TestShardedRefineStepConverges drives idle refinement only (no client
// queries) and checks every strategy a table serves reaches the terminal
// state with monotone progress.
func TestShardedRefineStepConverges(t *testing.T) {
	vals := testColumn(3000, 26)
	for _, s := range progressiveStrategies {
		sh, err := NewHandle(vals, Options{Strategy: s, Delta: 0.2, Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		prev := sh.Progress()
		done := false
		for step := 0; step < 2000 && !done; step++ {
			_, done = sh.RefineStep()
			if p := sh.Progress(); p < prev {
				t.Fatalf("%v: progress regressed %v -> %v", s, prev, p)
			} else {
				prev = p
			}
		}
		if !done || !sh.Converged() {
			t.Fatalf("%v sharded never converged under RefineStep (progress %.2f)", s, sh.Progress())
		}
		if p := sh.Progress(); p != 1 {
			t.Fatalf("%v converged but Progress() = %v", s, p)
		}
		// Idle refinement must have visited every shard: with no
		// queries all heats are zero, so round-robin covers the ring.
		for i, st := range sh.ShardStats() {
			if st.Refines == 0 {
				t.Errorf("%v: shard %d never received an idle slice", s, i)
			}
		}
		// Answers stay exact after idle-only convergence.
		p := Range(-2000, 2000)
		ans, err := sh.Execute(Request{Pred: p, Aggs: AllAggregates})
		if err != nil {
			t.Fatal(err)
		}
		checkAnswer(t, sh.Name()+"/refined", p, AllAggregates, ans, oracleAnswer(vals, p))
	}
}

// TestShardedConcurrentReads hammers one sharded index from many
// goroutines through the whole lifecycle (the -race acceptance
// criterion): every answer must be exact, concurrently with idle
// refinement driving the shards to convergence.
func TestShardedConcurrentReads(t *testing.T) {
	vals := testColumn(20000, 27)
	sh, err := NewHandle(vals, Options{Strategy: StrategyRadixMSD, Delta: 0.3, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for q := 0; q < 50; q++ {
				lo := rng.Int63n(8000) - 4000
				p := Range(lo, lo+rng.Int63n(2000))
				ans, err := sh.Execute(Request{Pred: p, Aggs: AllAggregates})
				want := oracleAnswer(vals, p)
				if err != nil || ans.Count != want.Count || ans.Sum != want.Sum ||
					(want.Count > 0 && (ans.Min != want.Min || ans.Max != want.Max)) {
					select {
					case errs <- p.String():
					default:
					}
					return
				}
			}
		}(int64(g))
	}
	// A refiner goroutine runs concurrently, like the serving layer's
	// idle loop racing client queries.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			if _, done := sh.RefineStep(); done {
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	if p, bad := <-errs; bad {
		t.Fatalf("concurrent sharded read returned a wrong answer for %s", p)
	}
	// Drive to convergence and re-verify the shared read path.
	for i := 0; i < 5000 && !sh.Converged(); i++ {
		sh.RefineStep()
	}
	if !sh.Converged() {
		t.Fatal("sharded index did not converge")
	}
	var wg2 sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg2.Add(1)
		go func(seed int64) {
			defer wg2.Done()
			rng := rand.New(rand.NewSource(seed))
			for q := 0; q < 50; q++ {
				lo := rng.Int63n(8000) - 4000
				p := Range(lo, lo+rng.Int63n(2000))
				ans, err := sh.Execute(Request{Pred: p})
				want := oracleAnswer(vals, p)
				if err != nil || ans.Count != want.Count || ans.Sum != want.Sum {
					select {
					case errs <- p.String():
					default:
					}
					return
				}
			}
		}(int64(g))
	}
	wg2.Wait()
}

// TestShardedHandleSurface pins the scheduler-facing odds and ends:
// Phase reports the furthest-behind shard, New dispatches on
// Options.Shards, and malformed requests error.
func TestShardedHandleSurface(t *testing.T) {
	vals := testColumn(3000, 28)
	idx := MustNew(vals, Options{Strategy: StrategyQuicksort, Shards: 4})
	sh, ok := idx.(*shard.Sharded)
	if !ok {
		t.Fatalf("New with Shards=4 returned %T, want *shard.Sharded", idx)
	}
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
	if got, want := sumCount(sh, -500, 500), oracleAnswer(vals, p); got.Sum != want.Sum || got.Count != want.Count {
		t.Fatalf("Query = %+v, want {%d %d}", got, want.Sum, want.Count)
	}
}

// TestHandleZoneMissDoesNoWork: a predicate disjoint from the column
// domain answers empty with zero work stats — and, on a contended
// index, without waiting for a shard's write lock (here we just verify
// the answer shape and that no indexing step ran).
func TestHandleZoneMissDoesNoWork(t *testing.T) {
	vals := boundedColumn(3000, 29) // domain ⊂ [-4000, 4000): 7M really is a zone miss
	idx := unshardedHandle(t, vals, Options{Strategy: StrategyQuicksort, Delta: 0.25})
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

// TestUnshardedHandleKeepsWorkers pins the other rule of a one-shard
// handle: with no fan-out to spread over the workers, the shard's own
// index keeps Options.Workers. Stats.Workers reports the option, a
// wall-clock budget plans its creation step against the parallel
// kernel's cost (so the same budget indexes more rows per query at four
// workers than at one), and the answers are the same at both.
func TestUnshardedHandleKeepsWorkers(t *testing.T) {
	vals := data.Uniform(200_000, 37)
	var answers [2][]Answer
	for wi, workers := range []int{1, 4} {
		h, err := NewHandle(vals, Options{Strategy: StrategyRadixMSD, Budget: 20 * time.Microsecond, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for q := int64(0); q < 4; q++ {
			p := Range(q*20_000, q*20_000+50_000)
			ans, err := h.Execute(Request{Pred: p, Aggs: AllAggregates})
			if err != nil {
				t.Fatal(err)
			}
			if ans.Stats.Phase != PhaseCreation {
				t.Fatalf("workers=%d query %d ran in phase %v, want creation throughout", workers, q, ans.Stats.Phase)
			}
			if ans.Stats.Workers != workers {
				t.Fatalf("workers=%d: Stats.Workers = %d", workers, ans.Stats.Workers)
			}
			checkAnswer(t, h.Name(), p, AllAggregates, ans, oracleAnswer(vals, p))
			answers[wi] = append(answers[wi], ans)
		}
	}
	for q := range answers[0] {
		one, four := answers[0][q], answers[1][q]
		if one.Sum != four.Sum || one.Count != four.Count || one.Min != four.Min || one.Max != four.Max {
			t.Fatalf("query %d differs across worker counts: %+v vs %+v", q, one, four)
		}
		if four.Stats.Delta <= one.Stats.Delta {
			t.Fatalf("query %d: δ %g at four workers, %g at one: the shard index lost its workers", q, four.Stats.Delta, one.Stats.Delta)
		}
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
	sh, err := NewHandle(vals, Options{Strategy: StrategyQuicksort, Delta: 0.25, Shards: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
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
	sh, err := NewHandle(vals, Options{Strategy: StrategyQuicksort, Delta: 0.25, Shards: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
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
