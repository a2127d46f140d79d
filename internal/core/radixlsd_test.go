package core

import (
	"math/rand"
	"testing"

	"repro/internal/column"
	"repro/internal/oracle"
	"repro/internal/query"
)

func TestRadixLSDConvergesUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n, domain = 20_000, 20_000
	vals := randomValues(rng, n, domain)
	idx := NewRadixLSD(column.MustNew(vals), Config{Mode: FixedDelta, Delta: 0.25})
	checkConvergesAndAnswers(t, idx, vals, rng, domain, 5000)
	if idx.final != nil {
		t.Fatal("final array kept after convergence")
	}
	checkTreeHoldsSorted(t, &idx.progressive, vals)
}

func TestRadixLSDSortIsStableAcrossPasses(t *testing.T) {
	// The concatenated buckets after the last pass must be globally
	// sorted; this only holds if every distribute pass is FIFO-stable.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		n := 1000 + rng.Intn(4000)
		domain := int64(1) << (3 + rng.Intn(18)) // spans 1..3 passes at 6 bits
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(domain)
		}
		idx := NewRadixLSD(column.MustNew(vals), Config{Mode: FixedDelta, Delta: 1})
		for q := 0; q < 200 && !idx.Converged(); q++ {
			sumCount(idx, 0, domain)
		}
		if !idx.Converged() {
			t.Fatalf("trial %d: did not converge", trial)
		}
		checkTreeHoldsSorted(t, &idx.progressive, vals)
	}
}

func TestRadixLSDPointQueriesUseBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const n, domain = 30_000, 1 << 20
	vals := randomValues(rng, n, domain)
	idx := NewRadixLSD(column.MustNew(vals), Config{Mode: FixedDelta, Delta: 0.2})
	for qn := 0; qn < 3000 && !idx.Converged(); qn++ {
		v := vals[rng.Intn(n)] // point query on an existing value
		ans := execRange(idx, v, v)
		if got, want := ans.Result(), oracle.Agg(vals, query.Range(v, v)).Result(); got != want {
			t.Fatalf("point query #%d on %d: got %+v want %+v (phase=%v)", qn, v, got, want, idx.Phase())
		}
		// Point queries must not trigger the full-scan fallback: the α
		// estimate must stay well below n.
		if st := ans.Stats; st.Phase == PhaseCreation && st.AlphaElems >= n {
			t.Fatalf("point query #%d scanned everything (alpha=%d)", qn, st.AlphaElems)
		}
	}
	if !idx.Converged() {
		t.Fatal("did not converge")
	}
}

func TestRadixLSDWideRangeFallback(t *testing.T) {
	const n, domain = 10_000, 1 << 16
	// Workers 0 is GOMAXPROCS, whatever this host has; 1 forces the
	// serial kernels, where the parallel estimate must collapse to the
	// plain scan time.
	for _, workers := range []int{0, 1} {
		rng := rand.New(rand.NewSource(44))
		vals := randomValues(rng, n, domain)
		idx := NewRadixLSD(column.MustNew(vals), Config{Mode: FixedDelta, Delta: 0.1, Workers: workers})
		st := execRange(idx, 0, domain).Stats // wide range on the very first query
		// Fallback means the base prediction is a single full scan, on the
		// parallel kernels the fallback actually runs on.
		m := idx.model
		want := m.ParScanTime(n, idx.pool.Workers())
		if workers == 1 {
			want = m.ScanTime(n)
		}
		if st.BaseSeconds != want {
			t.Fatalf("workers=%d: wide-range base = %g, want full scan %g", workers, st.BaseSeconds, want)
		}
		checkConvergesAndAnswers(t, idx, vals, rng, domain, 10_000)
	}
}

func TestRadixLSDNarrowRangesDuringRefinement(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	const n, domain = 20_000, 1 << 18
	vals := randomValues(rng, n, domain)
	idx := NewRadixLSD(column.MustNew(vals), Config{Mode: FixedDelta, Delta: 0.3})
	for qn := 0; qn < 5000 && !idx.Converged(); qn++ {
		lo := rng.Int63n(domain)
		hi := lo + rng.Int63n(40) // narrow: a few buckets per pass
		got := sumCount(idx, lo, hi)
		if want := oracle.Agg(vals, query.Range(lo, hi)).Result(); got != want {
			t.Fatalf("narrow query #%d [%d,%d] phase=%v merging=%v: got %+v want %+v",
				qn, lo, hi, idx.Phase(), idx.merging, got, want)
		}
	}
	if !idx.Converged() {
		t.Fatal("did not converge")
	}
}

func TestRadixLSDTinyDomainSinglePass(t *testing.T) {
	// Domain < 64: one distribute pass, then merge directly.
	rng := rand.New(rand.NewSource(46))
	vals := make([]int64, 5000)
	for i := range vals {
		vals[i] = int64(rng.Intn(50))
	}
	idx := NewRadixLSD(column.MustNew(vals), Config{Mode: FixedDelta, Delta: 0.5})
	if idx.passes != 1 {
		t.Fatalf("passes = %d, want 1 for domain < 64", idx.passes)
	}
	checkConvergesAndAnswers(t, idx, vals, rng, 50, 2000)
}

func TestRadixLSDNegativeValues(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	vals := make([]int64, 10_000)
	for i := range vals {
		vals[i] = rng.Int63n(100_000) - 50_000
	}
	idx := NewRadixLSD(column.MustNew(vals), Config{Mode: FixedDelta, Delta: 0.25})
	for qn := 0; qn < 5000 && !idx.Converged(); qn++ {
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

func TestRadixLSDPassCount(t *testing.T) {
	cases := []struct {
		domain int64
		want   int
	}{
		{50, 1},      // 6 bits
		{1 << 10, 2}, // 11 bits -> ceil(11/6)=2
		{1 << 12, 3}, // 13 bits -> ceil(13/6)=3
		{1 << 17, 3}, // 18 bits
		{1 << 18, 4}, // 19 bits
		{1 << 29, 5}, // 30 bits
	}
	for _, tc := range cases {
		vals := []int64{0, tc.domain}
		idx := NewRadixLSD(column.MustNew(vals), Config{})
		if idx.passes != tc.want {
			t.Errorf("domain %d: passes = %d, want %d", tc.domain, idx.passes, tc.want)
		}
	}
}
