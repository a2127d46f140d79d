package progidx

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/column"
	"repro/internal/obs"
	"repro/internal/shard"
)

// checkShardStructure verifies, through the public surface only, the
// structural guarantees of the seal path on a table loaded as loaded
// equal shards over logical[:len(logical)-appended]: the shards and the
// pending tail tile [0, rows) exactly, every zone map is the true
// extrema of its row range, loaded shards keep their size (they never
// merge), the tail-born shards below sealRows sit rightmost with
// strictly decreasing size classes (hence sizes), the shard count
// respects shard.MaxShards, and the rows the table holds — its loaded
// shards' slices of the loaded column, the buffers its seals built, or a
// settled shard's index's leaves, are the only copy — are the logical
// rows. A loaded shard's read back in order, sorted once it has settled;
// a tail-born shard's are its row range's multiset, since a seal merges
// its parts as they are held, settled ones sorted.
func checkShardStructure(t *testing.T, sh *shard.Sharded, logical []int64, loaded, appended, sealRows int) {
	t.Helper()
	infos := sh.ShardStats()
	if got, bound := len(infos), shard.MaxShards(loaded, appended, sealRows); got > bound {
		t.Fatalf("%d shards exceed the bound %d (loaded %d, appended %d, sealRows %d)", got, bound, loaded, appended, sealRows)
	}
	start := 0
	prevClass, seenSmall := 0, false
	for i, inf := range infos {
		if inf.Rows <= 0 || start+inf.Rows > len(logical) {
			t.Fatalf("shard %d: %d rows from row %d overruns the %d-row table", i, inf.Rows, start, len(logical))
		}
		if mn, mx := column.MinMax(logical[start : start+inf.Rows]); inf.MinValue != mn || inf.MaxValue != mx {
			t.Fatalf("shard %d rows [%d, %d): zone [%d, %d], want [%d, %d]", i, start, start+inf.Rows, inf.MinValue, inf.MaxValue, mn, mx)
		}
		start += inf.Rows
		if i < loaded {
			if n := len(logical) - appended; inf.Rows != (i+1)*n/loaded-i*n/loaded {
				t.Fatalf("loaded shard %d has %d rows: loaded shards must never merge", i, inf.Rows)
			}
			continue
		}
		if inf.Rows >= sealRows {
			if seenSmall {
				t.Fatalf("shard %d (%d rows ≥ sealRows) follows a smaller tail-born shard", i, inf.Rows)
			}
			continue
		}
		class := bits.Len(uint(inf.Rows))
		if seenSmall && class >= prevClass {
			t.Fatalf("tail-born shard %d (%d rows) is not in a lower size class than its left neighbour", i, inf.Rows)
		}
		prevClass, seenSmall = class, true
	}
	if start+sh.PendingRows() != len(logical) {
		t.Fatalf("shards cover %d rows + %d pending, want %d", start, sh.PendingRows(), len(logical))
	}
	// The rows read back are the logical ones shard by shard: a loaded
	// shard's in row order, and sorted where its settled index's leaves
	// hold them; a tail-born shard's as a multiset.
	rows := sh.MaterializeRows()
	start = 0
	for i, inf := range infos {
		got, want := rows[start:start+inf.Rows], slices.Clone(logical[start:start+inf.Rows])
		if i >= loaded {
			got = slices.Sorted(slices.Values(got))
		}
		if i >= loaded || inf.Form == shard.FormSettled {
			slices.Sort(want)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("shard %d (%s): MaterializeRows differs from its logical rows", i, inf.Form)
		}
		start += inf.Rows
	}
	if !slices.Equal(rows[start:], logical[start:]) {
		t.Fatal("MaterializeRows differs from the pending rows")
	}
}

// TestShardedMergeProperty is the acceptance property test of the
// logarithmic seal path: seeded random interleavings of appends (from
// one row to three seal thresholds), idle slices and queries, in raw
// and compressed storage, for the four progressive strategies at fan-out
// widths 1 and 4, on a table loaded as four shards and as one — the
// unsharded serving handle, whose seal threshold (an eighth of the
// loaded rows, floor 1024) comes to the same 1024 rows. At every step
// each answer equals the branching scan over the grown column and the
// structure passes checkShardStructure — shards that converge along the
// way settle, and the rows read back from their packed blocks.
func TestShardedMergeProperty(t *testing.T) {
	const (
		n        = 4096
		sealRows = 1024
		steps    = 70
	)
	sizes := []int{1, 7, 256, sealRows - 1, sealRows, 3 * sealRows}
	strategies := []Strategy{StrategyQuicksort, StrategyRadixMSD, StrategyBucketsort, StrategyRadixLSD}
	seed := int64(0)
	for _, enc := range []Encoding{EncodingRaw, EncodingFORBP, EncodingDict} {
		for _, strat := range strategies {
			for _, leg := range []struct{ workers, loaded int }{{1, 4}, {4, 4}, {1, 1}, {4, 1}} {
				seed++
				seed, workers, loaded := seed, leg.workers, leg.loaded
				name := fmt.Sprintf("%v/%v/workers=%d", enc, strat, workers)
				if loaded == 1 {
					name += "/shards=1"
				}
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					// Values drift upward with the row number, so loaded and
					// tail-born shards carry distinct zones and queries prune.
					value := func(row int) int64 { return int64(row/8) + rng.Int63n(300) }
					logical := make([]int64, n)
					for i := range logical {
						logical[i] = value(i)
					}
					sh, err := NewHandle(append([]int64(nil), logical...), Options{
						Strategy: strat, Delta: 0.25, Seed: 5, Shards: loaded, Workers: workers,
						Encoding: enc, ClaimHeat: 3,
					})
					if err != nil {
						t.Fatal(err)
					}
					appended := 0
					tl := obs.NewTimeline(4096)
					sh.SetEventSink(tl)
					for step := 0; step < steps; step++ {
						switch rng.Intn(4) {
						case 0, 1:
							batch := make([]int64, sizes[rng.Intn(len(sizes))])
							for i := range batch {
								batch[i] = value(len(logical) + i)
							}
							if err := sh.Append(batch); err != nil {
								t.Fatal(err)
							}
							logical = append(logical, batch...)
							appended += len(batch)
						case 2:
							// A few idle slices, or a quiet spell long enough
							// to drain: both reach the flush.
							slices := rng.Intn(40)
							if rng.Intn(3) == 0 {
								slices = 20_000
							}
							for i := 0; i < slices; i++ {
								if _, done := sh.RefineStep(); done {
									break
								}
							}
						}
						for q := rng.Intn(3); q >= 0; q-- {
							lo := rng.Int63n(int64(len(logical)/8 + 300))
							p := Range(lo, lo+rng.Int63n(400))
							if q == 0 {
								p = AtLeast(int64(len(logical)/8 - 200)) // the newest rows
							}
							ans, err := sh.Execute(Request{Pred: p, Aggs: AllAggregates})
							if err != nil {
								t.Fatal(err)
							}
							checkAnswer(t, fmt.Sprintf("step %d", step), p, AllAggregates, ans, oracleAnswer(logical, p))
						}
						checkShardStructure(t, sh, logical, loaded, appended, sealRows)
					}
					// The trace must have exercised what it claims to check.
					merges, claims, settles := 0, 0, 0
					for _, e := range tl.Snapshot() {
						switch {
						case e.Kind == obs.EvShardSeal && e.B > 0:
							merges++
						case e.Kind == obs.EvShardClaim:
							claims++
						case e.Kind == obs.EvShardSettle:
							settles++
						}
					}
					if merges == 0 || (enc.Compressed() && claims == 0) || settles == 0 {
						t.Fatalf("vacuous trace: %d merging seals, %d claims, %d settles", merges, claims, settles)
					}
				})
			}
		}
	}
}

// TestShardedOneRowAppendsDrain pins the idle flush's contract under
// the smallest possible appends: 1 000 one-row appends, each followed
// by idle slices, leave a table that converges with nothing pending and
// a logarithmic number of shards — not one per append.
func TestShardedOneRowAppendsDrain(t *testing.T) {
	const n, loaded = 4000, 4
	logical := boundedColumn(n, 31)
	sh, err := NewHandle(append([]int64(nil), logical...), Options{Strategy: StrategyQuicksort, Delta: 0.25, Shards: loaded, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		v := int64(10_000 + i)
		if err := sh.Append([]int64{v}); err != nil {
			t.Fatal(err)
		}
		logical = append(logical, v)
		for k := 0; k < 8; k++ {
			sh.RefineStep()
		}
	}
	for i := 0; i < 100_000 && !sh.Converged(); i++ {
		sh.RefineStep()
	}
	if !sh.Converged() || sh.PendingRows() != 0 || sh.Progress() != 1 {
		t.Fatalf("quiet table: converged=%v pending=%d progress=%v", sh.Converged(), sh.PendingRows(), sh.Progress())
	}
	checkShardStructure(t, sh, logical, loaded, 1000, n/loaded)
	p := AtLeast(10_000)
	ans, err := sh.Execute(Request{Pred: p, Aggs: AllAggregates})
	if err != nil {
		t.Fatal(err)
	}
	checkAnswer(t, sh.Name(), p, AllAggregates, ans, oracleAnswer(logical, p))
}

// TestShardedObserversRaceClaimsAndMerges is the regression test for
// the Phase()/claim() data race: the stats endpoints' observers —
// Phase, Progress, ShardStats, Converged — poll from their own
// goroutines while queries drive cold shards past ClaimHeat (a claim
// writes the shard's index) and appends plus idle slices drive merges.
// Meaningful under -race (CI runs it with -count=10); in a plain build
// it still checks the final answers.
func TestShardedObserversRaceClaimsAndMerges(t *testing.T) {
	const n = 2048
	logical := make([]int64, n)
	for i := range logical {
		logical[i] = int64(i)
	}
	sh, err := NewHandle(append([]int64(nil), logical...), Options{
		Strategy: StrategyQuicksort, Delta: 0.25, Shards: 4, Workers: 2,
		Encoding: EncodingFORBP, ClaimHeat: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var observers sync.WaitGroup
	for o := 0; o < 2; o++ {
		observers.Add(1)
		go func() {
			defer observers.Done()
			for !stop.Load() {
				sh.Phase()
				sh.Progress()
				sh.ShardStats()
				sh.Converged()
			}
		}()
	}
	var work sync.WaitGroup
	work.Add(2)
	go func() { // queries: claims on loaded and tail-born shards alike
		defer work.Done()
		for q := 0; q < 400; q++ {
			lo := int64(q * 37 % 3000)
			if _, err := sh.Execute(Request{Pred: Range(lo, lo+600)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // ingestion: small appends, each flushed and merged
		defer work.Done()
		for b := 0; b < 60; b++ {
			batch := make([]int64, 5)
			for i := range batch {
				batch[i] = int64(n + b*5 + i)
			}
			if err := sh.Append(batch); err != nil {
				t.Error(err)
				return
			}
			for k := 0; k < 20; k++ {
				sh.RefineStep()
			}
		}
	}()
	work.Wait()
	stop.Store(true)
	observers.Wait()
	for i := 0; i < 60*5; i++ {
		logical = append(logical, int64(n+i))
	}
	for _, p := range []Predicate{Range(0, 5000), AtLeast(n), Range(1000, 2100)} {
		ans, err := sh.Execute(Request{Pred: p, Aggs: AllAggregates})
		if err != nil {
			t.Fatal(err)
		}
		checkAnswer(t, sh.Name(), p, AllAggregates, ans, oracleAnswer(logical, p))
	}
}
