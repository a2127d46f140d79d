package progidx

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/column"
	"repro/internal/oracle"
	"repro/internal/query"
)

// sumCount answers SUM/COUNT over the inclusive range [lo, hi] through
// Execute, the paper's workload.
func sumCount(idx Index, lo, hi int64) Result {
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

// TestExecuteMatchesOracleAllStrategies is the acceptance-criteria
// property test: every predicate kind × aggregate mask × all 13
// strategies, checked against the branching oracle while the index
// advances through its lifecycle (each Execute call also performs
// indexing work, so the sequence visits creation, refinement and
// consolidation states).
func TestExecuteMatchesOracleAllStrategies(t *testing.T) {
	vals := testColumn(4000, 11)
	for _, s := range allStrategies {
		idx := MustNew(vals, Options{Strategy: s, Delta: 0.3, Seed: 7})
		rng := rand.New(rand.NewSource(int64(s)))
		for round := 0; round < 10; round++ {
			for pi, p := range predicatePool(rng, vals) {
				aggs := aggMaskPool[(round+pi)%len(aggMaskPool)]
				ans, err := idx.Execute(Request{Pred: p, Aggs: aggs})
				if err != nil {
					t.Fatalf("%v Execute(%v, %v): %v", s, p, aggs, err)
				}
				checkAnswer(t, s.String(), p, aggs, ans, oracle.Agg(vals, p))
			}
		}
	}
}

// TestExecuteConvergedMatchesOracle re-runs the oracle check after the
// progressive strategies have fully converged, so the B+-tree and
// sorted-run kernels (AggSorted, Tree.AggRange) are the paths under
// test rather than the scan fallbacks.
func TestExecuteConvergedMatchesOracle(t *testing.T) {
	vals := testColumn(3000, 12)
	for _, s := range []Strategy{StrategyQuicksort, StrategyRadixMSD, StrategyBucketsort, StrategyRadixLSD, StrategyFullIndex} {
		idx := MustNew(vals, Options{Strategy: s, Delta: 1})
		for q := 0; q < 400 && !idx.Converged(); q++ {
			sumCount(idx, -4000, 4000)
		}
		if !idx.Converged() {
			t.Fatalf("%v did not converge", s)
		}
		rng := rand.New(rand.NewSource(21))
		for round := 0; round < 6; round++ {
			for pi, p := range predicatePool(rng, vals) {
				aggs := aggMaskPool[(round+pi)%len(aggMaskPool)]
				ans, err := idx.Execute(Request{Pred: p, Aggs: aggs})
				if err != nil {
					t.Fatalf("%v Execute(%v, %v): %v", s, p, aggs, err)
				}
				checkAnswer(t, s.String()+"/converged", p, aggs, ans, oracle.Agg(vals, p))
			}
		}
	}
}

// TestExecuteStatsInline verifies that the Stats in the Answer are the
// stats of that same call — there is no side channel — and that
// progressive indexes report phase progress through them.
func TestExecuteStatsInline(t *testing.T) {
	vals := testColumn(4000, 14)
	for _, s := range []Strategy{StrategyQuicksort, StrategyRadixMSD, StrategyBucketsort, StrategyRadixLSD} {
		idx := MustNew(vals, Options{Strategy: s, Delta: 0.5})
		sawDone := false
		for q := 0; q < 200 && !sawDone; q++ {
			ans, err := idx.Execute(Request{Pred: Range(-1000, 1000)})
			if err != nil {
				t.Fatal(err)
			}
			if was := idx.(query.Budgeted).Phase(); ans.Stats.Phase > was {
				t.Fatalf("%v: Answer.Stats.Phase %v is past the index's phase %v", s, ans.Stats.Phase, was)
			}
			if q == 0 && ans.Stats.Phase != PhaseCreation {
				t.Fatalf("%v: first query phase = %v, want creation", s, ans.Stats.Phase)
			}
			if q == 0 && ans.Stats.Delta <= 0 {
				t.Fatalf("%v: first query did no indexing work: %+v", s, ans.Stats)
			}
			sawDone = idx.Converged()
		}
		if !sawDone {
			t.Fatalf("%v never converged under Execute", s)
		}
	}
	// Non-progressive strategies answer with zero work Stats; only the
	// worker count of the scan kernels is reported.
	fs := MustNew(vals, Options{Strategy: StrategyFullScan})
	ans, err := fs.Execute(Request{Pred: Point(0)})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Stats.Workers < 1 {
		t.Fatalf("FullScan Stats.Workers = %d, want >= 1", ans.Stats.Workers)
	}
	ans.Stats.Workers = 0
	if ans.Stats != (Stats{}) {
		t.Fatalf("FullScan Stats = %+v, want zero work stats", ans.Stats)
	}
}

// TestExecuteRejectsMalformedRequests covers the error path: unknown
// predicate kinds and undefined aggregate bits fail loudly instead of
// answering something undefined.
func TestExecuteRejectsMalformedRequests(t *testing.T) {
	vals := testColumn(500, 15)
	for _, s := range allStrategies {
		idx := MustNew(vals, Options{Strategy: s})
		if _, err := idx.Execute(Request{Pred: Predicate{Kind: 99}}); err == nil {
			t.Fatalf("%v accepted an unknown predicate kind", s)
		}
		if _, err := idx.Execute(Request{Pred: Range(0, 1), Aggs: Aggregates(0x80)}); err == nil {
			t.Fatalf("%v accepted unknown aggregate bits", s)
		}
	}
}

// TestPointFastPathsStayExact pins the point-query surface of the two
// point-optimized strategies: a Point request must be answered exactly
// both for present and absent values while the index fills in.
func TestPointFastPathsStayExact(t *testing.T) {
	vals := testColumn(6000, 16)
	for _, s := range []Strategy{StrategyProgressiveHash, StrategyRadixLSD} {
		idx := MustNew(vals, Options{Strategy: s, Delta: 0.2})
		rng := rand.New(rand.NewSource(41))
		for q := 0; q < 40; q++ {
			var p Predicate
			if q%3 == 0 {
				p = Point(rng.Int63n(10000) - 5000) // often absent
			} else {
				p = Point(vals[rng.Intn(len(vals))])
			}
			ans, err := idx.Execute(Request{Pred: p, Aggs: AllAggregates})
			if err != nil {
				t.Fatal(err)
			}
			checkAnswer(t, s.String(), p, AllAggregates, ans, oracle.Agg(vals, p))
		}
	}
}

// TestQueryClampsExtremeBounds pins Execute's domain clamping:
// open-ended ranges spelled with the int64 extremes must be clamped to
// the column domain instead of overflowing the branch-free kernels and
// silently dropping every match.
func TestQueryClampsExtremeBounds(t *testing.T) {
	vals := []int64{5, 20, -8, 20}
	for _, s := range allStrategies {
		idx := MustNew(vals, Options{Strategy: s, Seed: 1})
		if got := sumCount(idx, math.MinInt64, 10); got.Sum != -3 || got.Count != 2 {
			t.Fatalf("%v Range(MinInt64, 10) = %+v, want {-3 2}", s, got)
		}
		if got := sumCount(idx, 10, math.MaxInt64); got.Sum != 40 || got.Count != 2 {
			t.Fatalf("%v Range(10, MaxInt64) = %+v, want {40 2}", s, got)
		}
		if got := sumCount(idx, math.MinInt64, math.MaxInt64); got.Sum != 37 || got.Count != 4 {
			t.Fatalf("%v Range(MinInt64, MaxInt64) = %+v, want {37 4}", s, got)
		}
	}
}
