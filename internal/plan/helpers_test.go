package plan_test

import (
	"math/rand"
	"testing"

	"repro/internal/column"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/shard"
)

// The tests of this package that build one served column
// (plan.NewColumn, plan.Layout) speak of requests, aggregates and
// strategies by these short names.
type (
	Request    = query.Request
	Answer     = query.Answer
	Predicate  = query.Predicate
	Aggregates = column.Aggregates
)

var Range = query.Range

const (
	Sum           = column.AggSum
	Min           = column.AggMin
	Max           = column.AggMax
	Avg           = column.AggAvg
	AllAggregates = column.AggAll

	PhaseCreation = query.PhaseCreation
	PhaseDone     = query.PhaseDone

	StrategyQuicksort = plan.StrategyQuicksort
	StrategyRadixMSD  = plan.StrategyRadixMSD
)

// Strategies returns every strategy, in declaration order.
func Strategies() []plan.Strategy {
	var all []plan.Strategy
	for s := plan.StrategyQuicksort; s <= plan.StrategyImprints; s++ {
		all = append(all, s)
	}
	return all
}

// newColumn builds a column over vals the way a served table does.
func newColumn(t testing.TB, vals []int64, opts plan.Options) *shard.Sharded {
	t.Helper()
	h, err := plan.NewColumn(column.MustNew(vals), opts)
	if err != nil {
		t.Fatal(err)
	}
	return h
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
