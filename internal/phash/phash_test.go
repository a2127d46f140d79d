package phash

import (
	"math/rand"
	"testing"

	"repro/internal/column"
	"repro/internal/data"
	"repro/internal/query"
)

// sumCount answers SUM/COUNT over the inclusive range [lo, hi] through
// Execute.
func sumCount(idx query.Index, lo, hi int64) column.Result {
	ans, err := idx.Execute(query.Request{Pred: query.Range(lo, hi)})
	if err != nil {
		panic(err)
	}
	return ans.Result()
}

func TestPointQueriesExactThroughout(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := data.Skewed(20_000, 2) // duplicates matter for count aggregation
	col := column.MustNew(vals)
	ix := New(col, 0.1)
	for q := 0; q < 300; q++ {
		v := vals[rng.Intn(len(vals))]
		got := sumCount(ix, v, v)
		want := column.SumRangeBranching(vals, v, v)
		if got != want {
			t.Fatalf("point query #%d on %d: got %+v want %+v", q, v, got, want)
		}
	}
	if !ix.Converged() {
		t.Fatal("should have converged after 300 queries at δ=0.1")
	}
}

func TestAbsentValue(t *testing.T) {
	col := column.MustNew([]int64{1, 3, 5})
	ix := New(col, 1)
	if got := sumCount(ix, 2, 2); got.Count != 0 || got.Sum != 0 {
		t.Fatalf("absent value: %+v", got)
	}
	if got := sumCount(ix, 3, 3); got.Sum != 3 || got.Count != 1 {
		t.Fatalf("present value: %+v", got)
	}
}

func TestRangeQueriesFallBackToScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := data.Uniform(10_000, 4)
	col := column.MustNew(vals)
	ix := New(col, 0.5)
	for q := 0; q < 50; q++ {
		lo := rng.Int63n(10_000)
		hi := lo + rng.Int63n(3_000)
		got := sumCount(ix, lo, hi)
		want := column.SumRangeBranching(vals, lo, hi)
		if got != want {
			t.Fatalf("range [%d,%d]: got %+v want %+v", lo, hi, got, want)
		}
	}
}

func TestConvergenceIsDeterministic(t *testing.T) {
	vals := data.Uniform(10_000, 5)
	col := column.MustNew(vals)
	ix := New(col, 0.25)
	queries := 0
	for !ix.Converged() {
		sumCount(ix, 1, 1)
		queries++
		if queries > 100 {
			t.Fatal("did not converge")
		}
	}
	if queries != 4 {
		t.Fatalf("δ=0.25 should converge in 4 queries, took %d", queries)
	}
	if ix.Distinct() != 10_000 {
		t.Fatalf("distinct = %d, want 10000 (unique permutation)", ix.Distinct())
	}
}

func TestBadDeltaDefaults(t *testing.T) {
	col := column.MustNew([]int64{1})
	for _, d := range []float64{-1, 0, 1.5} {
		ix := New(col, d)
		if ix.delta != 0.25 {
			t.Fatalf("delta %v not defaulted: %v", d, ix.delta)
		}
	}
}
