package core

import (
	"math/rand"
	"testing"

	"repro/internal/column"
	"repro/internal/oracle"
	"repro/internal/query"
)

func TestBucketsortConvergesUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n, domain = 20_000, 20_000
	vals := randomValues(rng, n, domain)
	idx := NewBucketsort(column.MustNew(vals), Config{Mode: FixedDelta, Delta: 0.1})
	checkConvergesAndAnswers(t, idx, vals, rng, domain, 5000)
	if idx.final != nil {
		t.Fatal("final array kept after convergence")
	}
	checkTreeHoldsSorted(t, &idx.progressive, vals)
}

func TestBucketsortDeltaOne(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const n, domain = 10_000, 10_000
	vals := randomValues(rng, n, domain)
	idx := NewBucketsort(column.MustNew(vals), Config{Mode: FixedDelta, Delta: 1})
	q := checkConvergesAndAnswers(t, idx, vals, rng, domain, 200)
	if q > 40 {
		t.Fatalf("δ=1 took %d queries", q)
	}
}

func TestBucketsortSkewedDataBalancedBuckets(t *testing.T) {
	// Equi-height bucketing is the whole point of Bucketsort: with 90%
	// of data in the middle tenth of the domain, bucket sizes must stay
	// within a reasonable factor of each other.
	rng := rand.New(rand.NewSource(33))
	const n = 40_000
	vals := make([]int64, n)
	for i := range vals {
		if rng.Intn(10) == 0 {
			vals[i] = rng.Int63n(n)
		} else {
			vals[i] = int64(n/2-n/20) + rng.Int63n(int64(n/10))
		}
	}
	idx := NewBucketsort(column.MustNew(vals), Config{Mode: FixedDelta, Delta: 0.25})
	// Run creation to completion.
	for idx.Phase() == PhaseCreation {
		sumCount(idx, 0, 10)
	}
	counts := make([]int, len(idx.bks))
	maxCount := 0
	for i, bk := range idx.bks {
		c := bk.list.Count()
		if bk.state != bPending {
			c = bk.regEnd - bk.regStart
		}
		counts[i] = c
		if c > maxCount {
			maxCount = c
		}
	}
	// A perfectly balanced split would be n/64 = 625; the evenly spaced
	// sample should keep the largest bucket within ~6x of that.
	if maxCount > 6*(n/len(idx.bks)) {
		t.Fatalf("equi-height bucketing failed under skew: max bucket %d, ideal %d (counts=%v)",
			maxCount, n/len(idx.bks), counts)
	}
	// And finish the workload correctly.
	checkConvergesAndAnswers(t, idx, vals, rng, int64(n), 10_000)
}

func TestBucketsortConstantColumn(t *testing.T) {
	vals := make([]int64, 8000)
	for i := range vals {
		vals[i] = 7
	}
	rng := rand.New(rand.NewSource(34))
	idx := NewBucketsort(column.MustNew(vals), Config{Mode: FixedDelta, Delta: 0.5})
	for qn := 0; qn < 200 && !idx.Converged(); qn++ {
		got := sumCount(idx, 0, 10)
		if got.Count != 8000 || got.Sum != 7*8000 {
			t.Fatalf("query #%d: %+v", qn, got)
		}
		_ = rng
	}
	if !idx.Converged() {
		t.Fatal("constant column did not converge")
	}
}

func TestBucketsortSmallDeltaConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	const n, domain = 2000, 2000
	vals := randomValues(rng, n, domain)
	idx := NewBucketsort(column.MustNew(vals), Config{Mode: FixedDelta, Delta: 0.01})
	checkConvergesAndAnswers(t, idx, vals, rng, domain, 100_000)
}

func TestBucketsortAdaptiveBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	const n, domain = 50_000, 50_000
	vals := randomValues(rng, n, domain)
	idx := NewBucketsort(column.MustNew(vals), Config{
		Mode:          AdaptiveTime,
		BudgetSeconds: 0.2 * 6.0e-7 * float64(n) / 512,
	})
	for qn := 0; qn < 5000 && !idx.Converged(); qn++ {
		lo, hi := randQuery(rng, domain)
		got := sumCount(idx, lo, hi)
		if want := oracle.Agg(vals, query.Range(lo, hi)).Result(); got != want {
			t.Fatalf("query #%d: got %+v want %+v", qn, got, want)
		}
	}
	if !idx.Converged() {
		t.Fatal("adaptive budget did not converge")
	}
}

func TestBucketsortBucketIndexConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	vals := randomValues(rng, 10_000, 1_000_000)
	idx := NewBucketsort(column.MustNew(vals), Config{Mode: FixedDelta, Delta: 0.25})
	sumCount(idx, 0, 1) // triggers initBuckets
	for trial := 0; trial < 1000; trial++ {
		v := vals[rng.Intn(len(vals))] // bucket bounds only cover the column domain
		i := idx.bucketIndexOf(v)
		bk := idx.bks[i]
		if v < bk.lo || v > bk.hi {
			t.Fatalf("value %d mapped to bucket %d covering [%d,%d]", v, i, bk.lo, bk.hi)
		}
	}
}
