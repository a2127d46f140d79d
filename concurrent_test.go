package progidx

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/column"
	"repro/internal/data"
)

func TestSynchronizedConcurrentQueriesExact(t *testing.T) {
	vals := data.Uniform(20_000, 1)
	for _, s := range []Strategy{StrategyRadixMSD, StrategyStandardCracking} {
		idx := Synchronize(MustNew(vals, Options{Strategy: s, Delta: 0.2}))
		var wg sync.WaitGroup
		errs := make(chan string, 64)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for q := 0; q < 100; q++ {
					lo := rng.Int63n(20_000)
					hi := lo + rng.Int63n(4_000)
					got := sumCount(idx, lo, hi)
					want := column.SumRangeBranching(vals, lo, hi)
					if got != want {
						select {
						case errs <- idx.Name():
						default:
						}
						return
					}
				}
			}(int64(g))
		}
		wg.Wait()
		close(errs)
		if name, bad := <-errs; bad {
			t.Fatalf("%s returned a wrong answer under concurrency", name)
		}
	}
}

// TestSynchronizedStats pins where the wrapper's per-query stats are:
// inline in the Answer of the call that did the work.
func TestSynchronizedStats(t *testing.T) {
	vals := data.Uniform(5000, 2)
	prog := Synchronize(MustNew(vals, Options{Strategy: StrategyQuicksort, Delta: 0.5}))
	ans, err := prog.Execute(Request{Pred: Range(0, 100)})
	if err != nil || ans.Stats.Phase != PhaseCreation || ans.Stats.Delta <= 0 {
		t.Fatalf("first query's stats = %+v, %v; want a creation step", ans.Stats, err)
	}
	base := Synchronize(MustNew(vals, Options{Strategy: StrategyFullScan}))
	if ans, err := base.Execute(Request{Pred: Range(0, 100)}); err != nil || ans.Stats.Delta != 0 {
		t.Fatalf("FullScan reported indexing work: %+v, %v", ans.Stats, err)
	}
	if base.Name() != "FS" || base.Converged() {
		t.Fatal("wrapper must delegate Name/Converged")
	}
}
