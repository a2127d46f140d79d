package baseline

import (
	"math/rand"
	"testing"

	"repro/internal/column"
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

func TestFullScanExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, 10_000)
	for i := range vals {
		vals[i] = rng.Int63n(1 << 16)
	}
	col := column.MustNew(vals)
	fs := NewFullScan(col)
	if fs.Name() != "FS" || fs.Converged() {
		t.Fatal("FS identity wrong")
	}
	for q := 0; q < 200; q++ {
		lo := rng.Int63n(1 << 16)
		hi := lo + rng.Int63n(1<<14)
		got := sumCount(fs, lo, hi)
		want := column.SumRangeBranching(vals, lo, hi)
		if got != want {
			t.Fatalf("FS [%d,%d]: got %+v want %+v", lo, hi, got, want)
		}
	}
	if fs.Converged() {
		t.Fatal("FS must never converge")
	}
}

func TestFullIndexExactAndConverged(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vals := make([]int64, 10_000)
	for i := range vals {
		vals[i] = rng.Int63n(1 << 16)
	}
	col := column.MustNew(vals)
	fi := NewFullIndex(col, 16)
	if fi.Converged() {
		t.Fatal("FI converged before first query")
	}
	for q := 0; q < 200; q++ {
		lo := rng.Int63n(1 << 16)
		hi := lo + rng.Int63n(1<<14)
		got := sumCount(fi, lo, hi)
		want := column.SumRangeBranching(vals, lo, hi)
		if got != want {
			t.Fatalf("FI [%d,%d]: got %+v want %+v", lo, hi, got, want)
		}
		if !fi.Converged() {
			t.Fatal("FI must be converged from the first query on")
		}
	}
}

func TestFullIndexBadFanoutDefaults(t *testing.T) {
	col := column.MustNew([]int64{3, 1, 2})
	fi := NewFullIndex(col, 0)
	got := sumCount(fi, 1, 3)
	if got.Sum != 6 || got.Count != 3 {
		t.Fatalf("got %+v", got)
	}
}

func TestFullIndexDoesNotMutateColumn(t *testing.T) {
	vals := []int64{5, 3, 9, 1}
	col := column.MustNew(vals)
	fi := NewFullIndex(col, 4)
	sumCount(fi, 0, 10)
	want := []int64{5, 3, 9, 1}
	for i, v := range col.Values() {
		if v != want[i] {
			t.Fatal("FullIndex mutated the base column")
		}
	}
}
