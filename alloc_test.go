package progidx

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/column"
	"repro/internal/data"
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

// liveHeap forces a collection and returns the live heap.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
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
