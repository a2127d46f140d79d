package core

import (
	"math/rand"
	"testing"

	"repro/internal/column"
	"repro/internal/oracle"
	"repro/internal/query"
)

func TestRadixMSDConvergesUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const n, domain = 20_000, 20_000
	vals := randomValues(rng, n, domain)
	idx := NewRadixMSD(column.MustNew(vals), Config{Mode: FixedDelta, Delta: 0.1})
	checkConvergesAndAnswers(t, idx, vals, rng, domain, 5000)
	if idx.final != nil {
		t.Fatal("final array kept after convergence")
	}
	checkTreeHoldsSorted(t, &idx.progressive, vals)
}

func TestRadixMSDDeltaOne(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const n, domain = 10_000, 10_000
	vals := randomValues(rng, n, domain)
	idx := NewRadixMSD(column.MustNew(vals), Config{Mode: FixedDelta, Delta: 1})
	q := checkConvergesAndAnswers(t, idx, vals, rng, domain, 100)
	// Radix partitioning needs ceil(bits/6) passes; with δ=1 that is a
	// handful of queries (paper: "Radixsort converges the fastest").
	if q > 20 {
		t.Fatalf("δ=1 took %d queries", q)
	}
}

func TestRadixMSDSmallDomain(t *testing.T) {
	// Domain smaller than the bucket count: single radix level.
	rng := rand.New(rand.NewSource(23))
	vals := make([]int64, 5000)
	for i := range vals {
		vals[i] = int64(rng.Intn(40))
	}
	idx := NewRadixMSD(column.MustNew(vals), Config{Mode: FixedDelta, Delta: 0.3})
	checkConvergesAndAnswers(t, idx, vals, rng, 40, 1000)
}

func TestRadixMSDHugeDuplicateBucket(t *testing.T) {
	// One value holds 90% of the column: the single-value bucket far
	// exceeds L1 and must be drained resumably, not sorted.
	rng := rand.New(rand.NewSource(24))
	vals := make([]int64, 30_000)
	for i := range vals {
		if rng.Intn(10) == 0 {
			vals[i] = rng.Int63n(1 << 20)
		} else {
			vals[i] = 555_555
		}
	}
	idx := NewRadixMSD(column.MustNew(vals), Config{Mode: FixedDelta, Delta: 0.05, L1Elements: 256})
	for qn := 0; qn < 20_000 && !idx.Converged(); qn++ {
		lo := rng.Int63n(1 << 20)
		hi := lo + rng.Int63n(1<<18)
		got := sumCount(idx, lo, hi)
		if want := oracle.Agg(vals, query.Range(lo, hi)).Result(); got != want {
			t.Fatalf("query #%d [%d,%d] phase=%v: got %+v want %+v", qn, lo, hi, idx.Phase(), got, want)
		}
	}
	if !idx.Converged() {
		t.Fatal("did not converge")
	}
}

func TestRadixMSDSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	const n = 20_000
	vals := make([]int64, n)
	for i := range vals {
		if rng.Intn(10) == 0 {
			vals[i] = rng.Int63n(n)
		} else {
			vals[i] = int64(n/2-n/20) + rng.Int63n(int64(n/10))
		}
	}
	idx := NewRadixMSD(column.MustNew(vals), Config{Mode: FixedDelta, Delta: 0.2})
	checkConvergesAndAnswers(t, idx, vals, rng, int64(n), 5000)
}

func TestRadixMSDNegativeValues(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	vals := make([]int64, 10_000)
	for i := range vals {
		vals[i] = rng.Int63n(100_000) - 50_000
	}
	idx := NewRadixMSD(column.MustNew(vals), Config{Mode: FixedDelta, Delta: 0.25})
	for qn := 0; qn < 3000 && !idx.Converged(); qn++ {
		lo := rng.Int63n(120_000) - 60_000
		hi := lo + rng.Int63n(30_000)
		got := sumCount(idx, lo, hi)
		if want := oracle.Agg(vals, query.Range(lo, hi)).Result(); got != want {
			t.Fatalf("query #%d [%d,%d]: got %+v want %+v", qn, lo, hi, got, want)
		}
	}
	if !idx.Converged() {
		t.Fatal("did not converge")
	}
}

func TestRadixMSDAdaptiveBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	const n, domain = 50_000, 50_000
	vals := randomValues(rng, n, domain)
	idx := NewRadixMSD(column.MustNew(vals), Config{
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

func TestRadixMSDStats(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	const n, domain = 20_000, 20_000
	vals := randomValues(rng, n, domain)
	idx := NewRadixMSD(column.MustNew(vals), Config{Mode: FixedDelta, Delta: 0.25})
	st := execRange(idx, 0, 100).Stats
	if st.Phase != PhaseCreation || st.Delta < 0.2 || st.Delta > 0.3 {
		t.Fatalf("first-query stats: %+v", st)
	}
	if st.Predicted != st.BaseSeconds+st.WorkSeconds {
		t.Fatalf("Predicted must equal Base+Work: %+v", st)
	}
}

func TestChildShiftFor(t *testing.T) {
	cases := []struct {
		lo, hi int64
		bits   int
		want   uint
	}{
		{0, 63, 6, 0},
		{0, 64, 6, 1},
		{0, 1023, 6, 4},
		{0, 0, 6, 0},
		{100, 100, 6, 0},
		{0, (1 << 30) - 1, 6, 24},
	}
	for _, tc := range cases {
		if got := childShiftFor(tc.lo, tc.hi, tc.bits); got != tc.want {
			t.Errorf("childShiftFor(%d,%d,%d) = %d, want %d", tc.lo, tc.hi, tc.bits, got, tc.want)
		}
	}
}
