package shard_test

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/column"
	"repro/internal/encode"
	"repro/internal/plan"
	"repro/internal/query"
)

// The tests of this package that build a column the way a served table
// does (plan.NewColumn) speak of requests, aggregates and strategies by
// these short names.
type (
	Request    = query.Request
	Answer     = query.Answer
	Predicate  = query.Predicate
	Aggregates = column.Aggregates
	Result     = column.Result
	Strategy   = plan.Strategy
)

var (
	Range   = query.Range
	Point   = query.Point
	AtLeast = query.AtLeast
	AtMost  = query.AtMost
)

const (
	Sum           = column.AggSum
	Count         = column.AggCount
	Min           = column.AggMin
	Max           = column.AggMax
	Avg           = column.AggAvg
	AllAggregates = column.AggAll

	PhaseCreation = query.PhaseCreation
	PhaseDone     = query.PhaseDone

	StrategyQuicksort = plan.StrategyQuicksort
	StrategyRadixMSD  = plan.StrategyRadixMSD
	EncodingFORBP     = encode.ModeFORBP
)

// progressiveStrategies are the four a table serves: the axis of every
// test over newColumn.
var progressiveStrategies = []plan.Strategy{plan.StrategyQuicksort, plan.StrategyRadixMSD, plan.StrategyBucketsort, plan.StrategyRadixLSD}

// sumCount answers SUM/COUNT over the inclusive range [lo, hi] through
// Execute, the paper's workload.
func sumCount(idx query.Index, lo, hi int64) Result {
	ans, err := idx.Execute(Request{Pred: Range(lo, hi)})
	if err != nil {
		panic(err)
	}
	return ans.Result()
}

// checkAnswer verifies ans against the oracle under the mask semantics:
// Count is always populated; Sum when requested (or pulled in by Avg);
// Min/Max/Avg only when requested and at least one row matched.
func checkAnswer(t *testing.T, name string, p Predicate, aggs Aggregates, ans Answer, want column.Agg) {
	t.Helper()
	norm := aggs.Normalize()
	if ans.Aggs != norm {
		t.Fatalf("%s %v %v: Answer.Aggs = %v, want normalized %v", name, p, aggs, ans.Aggs, norm)
	}
	if ans.Count != want.Count {
		t.Fatalf("%s %v %v: Count = %d, want %d", name, p, aggs, ans.Count, want.Count)
	}
	if norm.Has(Sum) && ans.Sum != want.Sum {
		t.Fatalf("%s %v %v: Sum = %d, want %d", name, p, aggs, ans.Sum, want.Sum)
	}
	if norm.Has(Min) && want.Count > 0 && ans.Min != want.Min {
		t.Fatalf("%s %v %v: Min = %d, want %d", name, p, aggs, ans.Min, want.Min)
	}
	if norm.Has(Max) && want.Count > 0 && ans.Max != want.Max {
		t.Fatalf("%s %v %v: Max = %d, want %d", name, p, aggs, ans.Max, want.Max)
	}
	if norm.Has(Avg) && want.Count > 0 {
		if wantAvg := float64(want.Sum) / float64(want.Count); ans.Avg != wantAvg {
			t.Fatalf("%s %v %v: Avg = %v, want %v", name, p, aggs, ans.Avg, wantAvg)
		}
	}
}

// testColumn builds a deterministic column that exercises negatives,
// duplicates and both in-domain extremes: the first two values sit at
// ±(MaxMagnitude-1), the largest magnitudes a column accepts, so the
// kernels' overflow headroom is actually exercised (the pair cancels
// in SUM, keeping the other aggregate expectations readable).
func testColumn(n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(8000) - 4000
	}
	vals[0] = column.MaxMagnitude - 1
	vals[1] = -column.MaxMagnitude + 1
	return vals
}

// predicatePool returns the predicate shapes the property test cycles
// through: every kind, plus the empty-range and extreme-bound cases the
// clamping layer must survive.
func predicatePool(rng *rand.Rand, vals []int64) []Predicate {
	n := int64(len(vals))
	lo := rng.Int63n(n) - n/2
	return []Predicate{
		Range(lo, lo+rng.Int63n(2000)),
		Range(lo+1000, lo), // inverted: valid, empty
		Range(math.MinInt64, math.MaxInt64),
		Range(-column.MaxMagnitude, 0),
		Point(vals[rng.Intn(len(vals))]),
		Point(9_999_999), // outside the domain
		Point(math.MaxInt64),
		Point(-column.MaxMagnitude),
		AtLeast(lo),
		AtLeast(math.MaxInt64),
		AtLeast(-column.MaxMagnitude),
		AtMost(lo),
		AtMost(math.MinInt64),
		AtMost(column.MaxMagnitude),
	}
}

var aggMaskPool = []Aggregates{
	0, // default: SUM+COUNT, the v1 contract
	Sum,
	Count,
	Min,
	Max,
	Avg,
	Min | Max,
	Sum | Avg,
	AllAggregates,
}

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
