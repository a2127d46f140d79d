package progidx

import (
	"sync"
	"testing"
)

// TestSynchronizedParallelKernelsRace exercises Synchronized.Execute
// from many goroutines while the inner index runs the multi-worker
// scan and creation kernels, so `go test -race` patrols the boundary
// between the coarse outer lock and the pool's internal fan-out. The
// column is sized so that creation segments and tail scans exceed the
// parallel chunk cutoffs — with 200k rows and δ=0.25 the first
// queries run both parallel code paths.
func TestSynchronizedParallelKernelsRace(t *testing.T) {
	const (
		n          = 200_000
		goroutines = 8
		perG       = 12
	)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64((i * 2654435761) % n)
	}
	for _, strategy := range []Strategy{
		StrategyQuicksort, StrategyRadixMSD, StrategyBucketsort, StrategyRadixLSD, StrategyFullScan,
	} {
		idx := Synchronize(MustNew(vals, Options{Strategy: strategy, Delta: 0.25, Workers: 4}))
		want := sumCount(idx, 0, n-1) // serialized reference answer

		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					// Mix full-range queries (checkable against the
					// reference) with narrow ones (drive refinement).
					if i%3 == 0 {
						ans, err := idx.Execute(Request{Pred: Range(0, n-1)})
						if err != nil {
							t.Errorf("%v: %v", strategy, err)
							return
						}
						if ans.Sum != want.Sum || ans.Count != want.Count {
							t.Errorf("%v: concurrent full-range answer %d/%d, want %d/%d",
								strategy, ans.Sum, ans.Count, want.Sum, want.Count)
							return
						}
						if ans.Stats.Workers != 4 {
							t.Errorf("%v: Stats.Workers = %d, want 4", strategy, ans.Stats.Workers)
							return
						}
					} else {
						lo := int64((g*perG + i) * 1000 % n)
						if _, err := idx.Execute(Request{Pred: Range(lo, lo+5000), Aggs: AllAggregates}); err != nil {
							t.Errorf("%v: %v", strategy, err)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
