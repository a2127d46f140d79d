package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/column"
	"repro/internal/costmodel"
)

func shuffled(rng *rand.Rand, n int, domain int64) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(domain)
	}
	return vals
}

func TestQTreeRefineToCompletion(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 100, 5000} {
		arr := shuffled(rng, n, int64(n))
		tr := newQTree(arr, 64, newQNode(0, n, 0, int64(n)), nil)
		steps := 0
		for !tr.sorted() {
			tr.refine(tr.root, 500, 1)
			steps++
			if steps > 100_000 {
				t.Fatalf("n=%d: refinement did not terminate", n)
			}
		}
		if !slices.IsSorted(arr) {
			t.Fatalf("n=%d: array unsorted after refinement", n)
		}
	}
}

func TestQTreeQueryExactMidPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n, domain = 10_000, 10_000
	arr := shuffled(rng, n, domain)
	orig := make([]int64, n)
	copy(orig, arr)
	tr := newQTree(arr, 128, newQNode(0, n, 0, domain), nil)
	for !tr.sorted() {
		tr.refine(tr.root, 177, 1) // odd budget: pause in all states
		lo := rng.Int63n(domain)
		hi := lo + rng.Int63n(domain/4)
		got := tr.query(tr.root, lo, hi, column.AggSum|column.AggCount).Result()
		want := column.SumRangeBranching(orig, lo, hi)
		if got != want {
			t.Fatalf("mid-refinement query [%d,%d]: got %+v want %+v", lo, hi, got, want)
		}
	}
}

func TestQTreeBudgetOfOneStillProgresses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	arr := shuffled(rng, 2000, 2000)
	tr := newQTree(arr, 32, newQNode(0, len(arr), 0, 2000), nil)
	for i := 0; i < 5_000_000 && !tr.sorted(); i++ {
		tr.refine(tr.root, 1, 1)
	}
	if !tr.sorted() {
		t.Fatal("budget=1 refinement never finished")
	}
}

func TestQTreeRangePrioritization(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n, domain = 50_000, 50_000
	arr := shuffled(rng, n, domain)
	tr := newQTree(arr, 256, newQNode(0, n, 0, domain), nil)
	// Refine only the low tenth of the value domain with a bounded
	// budget; α for queries in that range should shrink much faster
	// than for the untouched top of the domain.
	for i := 0; i < 40; i++ {
		tr.refineRange(tr.root, 0, domain/10, 5000, 1)
	}
	alphaHot := tr.alphaElems(tr.root, 0, domain/10)
	alphaCold := tr.alphaElems(tr.root, domain-domain/10, domain)
	if alphaHot*2 >= alphaCold {
		t.Fatalf("range-first refinement ineffective: hot α=%d, cold α=%d", alphaHot, alphaCold)
	}
}

func TestQTreeAlphaNeverUnderestimatesMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, domain = 8000, 8000
	arr := shuffled(rng, n, domain)
	orig := make([]int64, n)
	copy(orig, arr)
	tr := newQTree(arr, 64, newQNode(0, n, 0, domain), nil)
	for round := 0; round < 50; round++ {
		tr.refine(tr.root, 997, 1)
		lo := rng.Int63n(domain)
		hi := lo + rng.Int63n(domain/3)
		alpha := tr.alphaElems(tr.root, lo, hi)
		matches := column.SumRangeBranching(orig, lo, hi).Count
		if int64(alpha) < matches {
			t.Fatalf("α=%d below the %d matching elements — a scan that small cannot be exact", alpha, matches)
		}
	}
}

func TestSortCost(t *testing.T) {
	if sortCost(0) != 0 || sortCost(1) != 1 {
		t.Fatal("trivial sort costs wrong")
	}
	if sortCost(1024) != 1024*11 { // bits.Len(1024) = 11
		t.Fatalf("sortCost(1024) = %d", sortCost(1024))
	}
}

func TestCalibrateParamsValid(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration loop skipped in -short mode")
	}
	p := CalibrateParams()
	if err := p.Validate(); err != nil {
		t.Fatalf("CalibrateParams invalid: %v", err)
	}
	// The kernel-true constants must reflect that refinement visits
	// cost at least a nanosecond-ish, scans are not free and neither is
	// packing a row.
	if p.SigmaSwap <= 0 || p.OmegaReadPage <= 0 || p.PackRow <= 0 {
		t.Fatalf("degenerate params: %+v", p)
	}
	// A scan of 1M elements takes between 10µs and 1s on anything that
	// can run this test.
	if scan := costmodel.New(p).ScanTime(1 << 20); scan < 1e-5 || scan > 1.0 {
		t.Fatalf("calibrated 1M-element scan time %g out of plausible range", scan)
	}
}
