package imprints

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

func TestQueriesExactThroughout(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := data.Uniform(20_000, 2)
	col := column.MustNew(vals)
	ix := New(col, 0.1)
	for q := 0; q < 200; q++ {
		lo := rng.Int63n(20_000)
		hi := lo + rng.Int63n(5_000)
		got := sumCount(ix, lo, hi)
		want := column.SumRangeBranching(vals, lo, hi)
		if got != want {
			t.Fatalf("query #%d [%d,%d]: got %+v want %+v", q, lo, hi, got, want)
		}
	}
	if !ix.Converged() {
		t.Fatal("should have converged")
	}
}

func TestSkewedDataStillExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := data.Skewed(15_000, 4)
	col := column.MustNew(vals)
	ix := New(col, 0.3)
	for q := 0; q < 100; q++ {
		lo := rng.Int63n(15_000)
		hi := lo + rng.Int63n(4_000)
		got := sumCount(ix, lo, hi)
		want := column.SumRangeBranching(vals, lo, hi)
		if got != want {
			t.Fatalf("query #%d: got %+v want %+v", q, got, want)
		}
	}
}

func TestImprintsPruneSelectiveQueries(t *testing.T) {
	// On sorted data every cacheline covers a narrow value range, so a
	// selective query must touch only a small fraction of cachelines.
	vals := make([]int64, 64_000)
	for i := range vals {
		vals[i] = int64(i)
	}
	col := column.MustNew(vals)
	ix := New(col, 1)
	sumCount(ix, 0, 10) // builds all imprints
	if !ix.Converged() {
		t.Fatal("δ=1 must converge on the first query")
	}
	sel := ix.Selectivity(1000, 1640) // 1% of the domain
	if sel > 0.05 {
		t.Fatalf("selective query touches %.1f%% of cachelines, want <5%%", sel*100)
	}
	wide := ix.Selectivity(0, 64_000)
	if wide < 0.99 {
		t.Fatalf("full-domain query should touch everything, got %.2f", wide)
	}
}

func TestPointQueryUsesOneBin(t *testing.T) {
	vals := data.Uniform(32_000, 5)
	col := column.MustNew(vals)
	ix := New(col, 1)
	sumCount(ix, 0, 0)
	for trial := 0; trial < 50; trial++ {
		v := vals[trial*13]
		got := sumCount(ix, v, v)
		want := column.SumRangeBranching(vals, v, v)
		if got != want {
			t.Fatalf("point %d: got %+v want %+v", v, got, want)
		}
		if sel := ix.Selectivity(v, v); sel > 0.3 {
			t.Fatalf("point query touches %.0f%% of cachelines", sel*100)
		}
	}
}

func TestBinMaskEdges(t *testing.T) {
	vals := data.Uniform(10_000, 6)
	col := column.MustNew(vals)
	ix := New(col, 1)
	if m := ix.binMask(col.Min(), col.Max()); m != ^uint64(0) {
		t.Fatalf("full-domain mask = %x", m)
	}
	m := ix.binMask(col.Min(), col.Min())
	if m == 0 || m&1 == 0 {
		t.Fatalf("min-value mask = %x, want bit 0 set", m)
	}
}

func TestTailScanBeforeImprinted(t *testing.T) {
	// Before any imprints exist, queries must still be exact.
	vals := data.Uniform(5_000, 7)
	col := column.MustNew(vals)
	ix := New(col, 0.01)
	got := sumCount(ix, 100, 2000)
	want := column.SumRangeBranching(vals, 100, 2000)
	if got != want {
		t.Fatalf("got %+v want %+v", got, want)
	}
}
