package progidx

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/column"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/shard"
)

// appendHandle builds the serving handle for the append property tests
// exactly as NewHandle does, except that a one-shard table seals its
// tail at 128 rows instead of the 1024-row floor, so the small traces
// here actually exercise query-path seals and merges.
func appendHandle(t *testing.T, vals []int64, opts Options) *shard.Sharded {
	t.Helper()
	col, err := column.New(append([]int64(nil), vals...))
	if err != nil {
		t.Fatal(err)
	}
	cfg, factory := plan.Layout(opts.served(), col.Len())
	if cfg.Shards == 1 {
		cfg.SealRows = 128
	}
	h, err := shard.New(col, cfg, factory)
	if err != nil {
		t.Fatalf("%v shards=%d: %v", opts.Strategy, opts.Shards, err)
	}
	return h
}

// TestAppendOracleAllStrategies is the ingestion acceptance property
// test: for every strategy a table serves × shard count {1, 3, 8}, an interleaved
// append/query trace must return answers identical to the branching
// oracle over the grown logical column at every step, and identical to
// a from-scratch rebuild on the final column at the end.
func TestAppendOracleAllStrategies(t *testing.T) {
	base := testColumn(600, 41)
	for _, s := range progressiveStrategies {
		for _, shards := range []int{1, 3, 8} {
			h := appendHandle(t, base, Options{Strategy: s, Delta: 0.3, Seed: 9, Shards: shards})
			logical := append([]int64(nil), base...)
			rng := rand.New(rand.NewSource(int64(s)*101 + int64(shards)))
			for round := 0; round < 8; round++ {
				// Append a batch: usually in-domain values, sometimes a
				// run beyond the old maximum (so the zone map must
				// widen), sometimes nothing at all.
				batch := make([]int64, rng.Intn(150))
				for i := range batch {
					if rng.Intn(4) == 0 {
						batch[i] = 10_000 + int64(round*1000+i)
					} else {
						batch[i] = rng.Int63n(8000) - 4000
					}
				}
				if err := h.Append(batch); err != nil {
					t.Fatalf("%v shards=%d round %d: Append: %v", s, shards, round, err)
				}
				logical = append(logical, batch...)
				for pi, p := range predicatePool(rng, logical) {
					aggs := aggMaskPool[(round+pi)%len(aggMaskPool)]
					ans, err := h.Execute(Request{Pred: p, Aggs: aggs})
					if err != nil {
						t.Fatalf("%v shards=%d round %d Execute(%v, %v): %v", s, shards, round, p, aggs, err)
					}
					checkAnswer(t, h.Name(), p, aggs, ans, oracleAnswer(logical, p))
				}
			}
			// Bit-identical to a from-scratch rebuild on the grown
			// column: every aggregate is an exact integer (or an exact
			// float64 ratio), so equality is equality.
			fresh := MustNew(append([]int64(nil), logical...), Options{Strategy: StrategyFullScan})
			for _, p := range predicatePool(rng, logical) {
				got, err := h.Execute(Request{Pred: p, Aggs: AllAggregates})
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Execute(Request{Pred: p, Aggs: AllAggregates})
				if err != nil {
					t.Fatal(err)
				}
				if got.Sum != want.Sum || got.Count != want.Count ||
					(want.Count > 0 && (got.Min != want.Min || got.Max != want.Max || got.Avg != want.Avg)) {
					t.Fatalf("%v shards=%d final %v: %+v != rebuild %+v", s, shards, p, got, want)
				}
			}
		}
	}
}

// TestAppendVisibleBeyondOldBounds is the zone-map regression: a row
// appended beyond the old maximum must be found by the very next
// query — the lock-free zone fast path must have widened before the
// rows became visible.
func TestAppendVisibleBeyondOldBounds(t *testing.T) {
	for _, shards := range []int{1, 3} {
		h := appendHandle(t, []int64{1, 2, 3, 4, 5, 6, 7, 8}, Options{Strategy: StrategyQuicksort, Shards: shards})
		if ans, err := h.Execute(Request{Pred: Point(999)}); err != nil || ans.Count != 0 {
			t.Fatalf("shards=%d: pre-append Point(999) = %+v, %v", shards, ans, err)
		}
		if err := h.Append([]int64{999}); err != nil {
			t.Fatal(err)
		}
		ans, err := h.Execute(Request{Pred: Point(999)})
		if err != nil || ans.Count != 1 || ans.Sum != 999 {
			t.Fatalf("shards=%d: appended row invisible: %+v, %v", shards, ans, err)
		}
		if mn, mx := h.ValueBounds(); mn != 1 || mx != 999 {
			t.Fatalf("shards=%d: bounds [%d,%d], want [1,999]", shards, mn, mx)
		}
	}
}

// TestAppendClearsConvergedAndIdleRedrains pins the lifecycle
// contract: Append clears the sticky converged flag, and idle
// refinement re-absorbs the tail — sealing it below the query-path
// threshold — until the handle is terminal again.
func TestAppendClearsConvergedAndIdleRedrains(t *testing.T) {
	for _, tc := range []struct {
		strategy Strategy
		shards   int
	}{
		{StrategyQuicksort, 1}, {StrategyRadixMSD, 1}, {StrategyBucketsort, 1},
		{StrategyRadixLSD, 1}, {StrategyQuicksort, 3}, {StrategyRadixLSD, 8},
	} {
		h := appendHandle(t, testColumn(400, 5), Options{Strategy: tc.strategy, Delta: 0.5, Shards: tc.shards})
		for i := 0; i < 200 && !h.Converged(); i++ {
			h.RefineStep()
		}
		if !h.Converged() {
			t.Fatalf("%v shards=%d never converged on the loaded data", tc.strategy, tc.shards)
		}
		if err := h.Append([]int64{20_001, 20_002, 20_003}); err != nil {
			t.Fatal(err)
		}
		if h.Converged() {
			t.Fatalf("%v shards=%d: Append did not clear the converged flag", tc.strategy, tc.shards)
		}
		if p := h.Progress(); p >= 1 {
			t.Fatalf("%v shards=%d: Progress %g with pending rows", tc.strategy, tc.shards, p)
		}
		for i := 0; i < 400 && !h.Converged(); i++ {
			h.RefineStep()
		}
		if !h.Converged() {
			t.Fatalf("%v shards=%d: idle refinement never drained the tail", tc.strategy, tc.shards)
		}
		ans, err := h.Execute(Request{Pred: Range(20_001, 20_003)})
		if err != nil || ans.Count != 3 || ans.Sum != 60_006 {
			t.Fatalf("%v shards=%d: drained rows lost: %+v, %v", tc.strategy, tc.shards, ans, err)
		}
	}
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
	sh := appendHandle(t, vals, Options{Strategy: StrategyQuicksort, Delta: 0.25, Shards: 4})
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

// TestAppendConcurrentWithQueries runs ingestion against concurrent
// readers on both handle flavors. The loaded rows and the appended
// rows live in disjoint value ranges, so readers can assert exact
// answers over the loaded domain at any moment — the invariant the
// -race CI job patrols for torn state — and the final grown column is
// checked exactly once ingestion quiesces.
func TestAppendConcurrentWithQueries(t *testing.T) {
	const (
		n        = 2000
		writers  = 2
		batches  = 25
		batchLen = 20
		readers  = 4
		queries  = 150
	)
	for _, shards := range []int{1, 3} {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(i)
		}
		h := appendHandle(t, vals, Options{Strategy: StrategyQuicksort, Delta: 0.3, Shards: shards})
		wantLoaded := oracleAnswer(vals, Range(0, n-1))

		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				base := int64(1_000_000 * (w + 1))
				for b := 0; b < batches; b++ {
					batch := make([]int64, batchLen)
					for i := range batch {
						batch[i] = base + int64(b*batchLen+i)
					}
					if err := h.Append(batch); err != nil {
						t.Errorf("writer %d: %v", w, err)
						return
					}
				}
			}(w)
		}
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(r) * 77))
				for q := 0; q < queries; q++ {
					switch rng.Intn(3) {
					case 0:
						// Loaded-domain range: invariant under appends.
						ans, err := h.Execute(Request{Pred: Range(0, n-1), Aggs: AllAggregates})
						if err != nil || ans.Sum != wantLoaded.Sum || ans.Count != wantLoaded.Count {
							t.Errorf("reader %d: loaded domain %+v, %v", r, ans, err)
							return
						}
					case 1:
						// Append-domain probe: answer varies with timing;
						// executed for race coverage.
						if _, err := h.Execute(Request{Pred: AtLeast(1_000_000)}); err != nil {
							t.Errorf("reader %d: %v", r, err)
							return
						}
					default:
						// The scheduler's entry point, racing the appends.
						if _, errs := executeBatch(h, []Request{{Pred: Range(0, 100)}}, query.BatchOpts{}); errs[0] != nil {
							t.Errorf("reader %d: %v", r, errs[0])
							return
						}
					}
				}
			}(r)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		// Quiesced: the grown column must answer exactly.
		logical := append([]int64(nil), vals...)
		for w := 0; w < writers; w++ {
			base := int64(1_000_000 * (w + 1))
			for i := 0; i < batches*batchLen; i++ {
				logical = append(logical, base+int64(i))
			}
		}
		for _, p := range []Predicate{Range(0, 5_000_000), AtLeast(1_000_000), Point(1_000_005), Range(0, n-1)} {
			ans, err := h.Execute(Request{Pred: p, Aggs: AllAggregates})
			if err != nil {
				t.Fatal(err)
			}
			checkAnswer(t, h.Name(), p, AllAggregates, ans, oracleAnswer(logical, p))
		}
	}
}

// TestAppendPendingPhaseAndPendingRows pins the observability contract:
// an unsharded handle with rows pending ingestion reports PendingRows
// and pins its phase to creation (never "done" while unconverged).
func TestAppendPendingPhaseAndPendingRows(t *testing.T) {
	h := appendHandle(t, testColumn(400, 7), Options{Strategy: StrategyQuicksort, Delta: 0.5})
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

// TestUnshardedTailStaysBounded pins the rule an unsharded table's seal
// threshold follows: an eighth of the loaded rows, floor 1024 — not the
// whole-table shard size — so under appends with no idle slice in
// between, the unindexed tail every query scans never reaches that
// many rows, and every answer stays exact.
func TestUnshardedTailStaysBounded(t *testing.T) {
	for _, n := range []int{3_000, 20_000} {
		bound := max(n/8, 1024)
		logical := testColumn(n, 43)
		h, err := NewHandle(append([]int64(nil), logical...), Options{Strategy: StrategyQuicksort, Delta: 0.25})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(n)))
		sealed := false
		for round := 0; round < 120; round++ {
			batch := make([]int64, 1+rng.Intn(bound/2))
			for i := range batch {
				batch[i] = rng.Int63n(8000) - 4000
			}
			if err := h.Append(batch); err != nil {
				t.Fatal(err)
			}
			logical = append(logical, batch...)
			if p := h.PendingRows(); p >= bound {
				t.Fatalf("n=%d round %d: %d rows pending, bound %d", n, round, p, bound)
			}
			sealed = sealed || h.Shards() > 1
			lo := rng.Int63n(8000) - 4000
			hi := lo + rng.Int63n(3000)
			ans, err := h.Execute(Request{Pred: Range(lo, hi), Aggs: AllAggregates})
			if err != nil {
				t.Fatal(err)
			}
			want := column.AggRangeBranching(logical, lo, hi)
			if ans.Sum != want.Sum || ans.Count != want.Count {
				t.Fatalf("n=%d round %d Range(%d, %d): %d/%d, want %d/%d", n, round, lo, hi, ans.Sum, ans.Count, want.Sum, want.Count)
			}
		}
		if !sealed {
			t.Fatalf("n=%d: the trace never sealed the tail", n)
		}
	}
}
