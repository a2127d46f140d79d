package shard_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/oracle"
	"repro/internal/plan"
)

// TestShardedObserversRaceClaimsAndMerges is the regression test for
// the Phase()/claim() data race: the stats endpoints' observers —
// Phase, Progress, ShardStats, Converged — poll from their own
// goroutines while queries drive cold shards past shard.ClaimHeat (a claim
// writes the shard's index) and appends plus idle slices drive merges.
// Meaningful under -race (CI runs it with -count=10); in a plain build
// it still checks the final answers.
func TestShardedObserversRaceClaimsAndMerges(t *testing.T) {
	const n = 2048
	logical := make([]int64, n)
	for i := range logical {
		logical[i] = int64(i)
	}
	sh := newColumn(t, append([]int64(nil), logical...), plan.Options{
		Strategy: StrategyQuicksort, Delta: 0.25, Shards: 4, Workers: 2, Encoding: EncodingFORBP,
	})
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
		checkAnswer(t, sh.Name(), p, AllAggregates, ans, oracle.Agg(logical, p))
	}
}
