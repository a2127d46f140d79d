package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/column"
	"repro/internal/oracle"
	"repro/internal/query"
)

// execRange runs the range [lo, hi] through Execute; the per-query work
// Stats travel in the answer.
func execRange(idx query.Index, lo, hi int64) query.Answer {
	ans, err := idx.Execute(query.Request{Pred: query.Range(lo, hi)})
	if err != nil {
		panic(err)
	}
	return ans
}

// sumCount is the SUM/COUNT pair of execRange.
func sumCount(idx query.Index, lo, hi int64) column.Result {
	return execRange(idx, lo, hi).Result()
}

// randQuery draws an inclusive range inside (and slightly outside) the
// domain [0, domain).
func randQuery(rng *rand.Rand, domain int64) (int64, int64) {
	lo := rng.Int63n(domain+40) - 20
	hi := lo + rng.Int63n(domain/4+1)
	return lo, hi
}

// checkConvergesAndAnswers runs queries until convergence (plus slack),
// verifying every answer against the oracle, and returns the number of
// queries needed to converge.
func checkConvergesAndAnswers(t *testing.T, idx query.Budgeted, vals []int64, rng *rand.Rand, domain int64, maxQueries int) int {
	t.Helper()
	converged := -1
	for qn := 0; qn < maxQueries; qn++ {
		lo, hi := randQuery(rng, domain)
		got := sumCount(idx, lo, hi)
		want := oracle.Agg(vals, query.Range(lo, hi)).Result()
		if got != want {
			t.Fatalf("%s query #%d [%d,%d] phase=%v: got %+v, want %+v",
				idx.Name(), qn, lo, hi, idx.Phase(), got, want)
		}
		if idx.Converged() && converged < 0 {
			converged = qn
			// Run a few more queries post-convergence to check the
			// B+-tree path, then stop.
			for extra := 0; extra < 20; extra++ {
				lo, hi := randQuery(rng, domain)
				got := sumCount(idx, lo, hi)
				want := oracle.Agg(vals, query.Range(lo, hi)).Result()
				if got != want {
					t.Fatalf("%s post-convergence [%d,%d]: got %+v, want %+v",
						idx.Name(), lo, hi, got, want)
				}
			}
			return converged
		}
	}
	t.Fatalf("%s did not converge within %d queries (phase=%v)", idx.Name(), maxQueries, idx.Phase())
	return -1
}

// checkTreeHoldsSorted holds a converged index to its end state: the
// sorted array and the builder are gone, and the tree that is left places
// every value where the sorted column has it.
func checkTreeHoldsSorted(t *testing.T, d *progressive, vals []int64) {
	t.Helper()
	if !d.Converged() || d.cons.sorted != nil || d.cons.builder != nil {
		t.Fatalf("%s: converged %v, sorted array or builder kept", d.Name(), d.Converged())
	}
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	if got := d.cons.tree.Len(); got != len(sorted) {
		t.Fatalf("%s: the tree holds %d rows, want %d", d.Name(), got, len(sorted))
	}
	for i, v := range sorted {
		if i > 0 && sorted[i-1] == v {
			continue
		}
		if got := d.cons.tree.LowerBound(v); got != i {
			t.Fatalf("%s: the tree has %d at %d, the sorted column at %d", d.Name(), v, got, i)
		}
	}
}

func randomValues(rng *rand.Rand, n int, domain int64) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(domain)
	}
	return vals
}

func TestQuicksortConvergesUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n, domain = 20_000, 20_000
	vals := randomValues(rng, n, domain)
	col := column.MustNew(vals)
	idx := NewQuicksort(col, Config{Mode: FixedDelta, Delta: 0.1})
	q := checkConvergesAndAnswers(t, idx, vals, rng, domain, 5000)
	if q < 3 {
		t.Fatalf("converged suspiciously fast (query %d) for δ=0.1", q)
	}
	if idx.index != nil || idx.tree != nil {
		t.Fatal("index array or pivot tree kept after convergence")
	}
	checkTreeHoldsSorted(t, &idx.progressive, vals)
}

func TestQuicksortDeltaOneConvergesFast(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n, domain = 10_000, 10_000
	vals := randomValues(rng, n, domain)
	idx := NewQuicksort(column.MustNew(vals), Config{Mode: FixedDelta, Delta: 1})
	q := checkConvergesAndAnswers(t, idx, vals, rng, domain, 200)
	// δ=1 does a full pass per query: creation in query 1, refinement
	// needs ~log2(n/L1) more, consolidation a couple extra.
	if q > 30 {
		t.Fatalf("δ=1 took %d queries to converge", q)
	}
}

func TestQuicksortSmallDeltaStillConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n, domain = 2000, 2000
	vals := randomValues(rng, n, domain)
	idx := NewQuicksort(column.MustNew(vals), Config{Mode: FixedDelta, Delta: 0.01})
	checkConvergesAndAnswers(t, idx, vals, rng, domain, 100_000)
}

func TestQuicksortPhasesAdvanceInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n, domain = 30_000, 30_000
	vals := randomValues(rng, n, domain)
	idx := NewQuicksort(column.MustNew(vals), Config{Mode: FixedDelta, Delta: 0.05})
	seen := []Phase{idx.Phase()}
	for i := 0; i < 10_000 && !idx.Converged(); i++ {
		lo, hi := randQuery(rng, domain)
		sumCount(idx, lo, hi)
		if p := idx.Phase(); p != seen[len(seen)-1] {
			if p < seen[len(seen)-1] {
				t.Fatalf("phase went backwards: %v -> %v", seen[len(seen)-1], p)
			}
			seen = append(seen, p)
		}
	}
	if seen[len(seen)-1] != PhaseDone {
		t.Fatalf("final phase = %v, want done (saw %v)", seen[len(seen)-1], seen)
	}
}

func TestQuicksortSkewedData(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 20_000
	vals := make([]int64, n)
	for i := range vals {
		// 90% concentrated in the middle tenth of the domain.
		if rng.Intn(10) == 0 {
			vals[i] = rng.Int63n(n)
		} else {
			vals[i] = int64(n/2-n/20) + rng.Int63n(int64(n/10))
		}
	}
	idx := NewQuicksort(column.MustNew(vals), Config{Mode: FixedDelta, Delta: 0.2})
	checkConvergesAndAnswers(t, idx, vals, rng, int64(n), 5000)
}

func TestQuicksortDuplicatesOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	vals := make([]int64, 5000)
	for i := range vals {
		vals[i] = int64(rng.Intn(3)) // heavy duplicates
	}
	idx := NewQuicksort(column.MustNew(vals), Config{Mode: FixedDelta, Delta: 0.25})
	checkConvergesAndAnswers(t, idx, vals, rng, 3, 2000)
}

func TestQuicksortSingleElement(t *testing.T) {
	vals := []int64{42}
	idx := NewQuicksort(column.MustNew(vals), Config{Mode: FixedDelta, Delta: 0.5})
	for i := 0; i < 10; i++ {
		if got := sumCount(idx, 0, 100); got.Sum != 42 || got.Count != 1 {
			t.Fatalf("query %d: %+v", i, got)
		}
		if got := sumCount(idx, 43, 100); got.Count != 0 {
			t.Fatalf("query %d out of range: %+v", i, got)
		}
	}
	if !idx.Converged() {
		t.Fatal("single-element index should converge almost immediately")
	}
}

func TestQuicksortNegativeValues(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]int64, 10_000)
	for i := range vals {
		vals[i] = rng.Int63n(10_000) - 5000
	}
	idx := NewQuicksort(column.MustNew(vals), Config{Mode: FixedDelta, Delta: 0.25})
	for qn := 0; qn < 2000 && !idx.Converged(); qn++ {
		lo := rng.Int63n(12_000) - 6000
		hi := lo + rng.Int63n(3000)
		got := sumCount(idx, lo, hi)
		if want := oracle.Agg(vals, query.Range(lo, hi)).Result(); got != want {
			t.Fatalf("query #%d [%d,%d]: got %+v want %+v", qn, lo, hi, got, want)
		}
	}
	if !idx.Converged() {
		t.Fatal("did not converge")
	}
}

func TestQuicksortStatsProgression(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n, domain = 20_000, 20_000
	vals := randomValues(rng, n, domain)
	idx := NewQuicksort(column.MustNew(vals), Config{Mode: FixedDelta, Delta: 0.25})

	st := execRange(idx, 10, 20).Stats
	if st.Phase != PhaseCreation {
		t.Fatalf("first query phase = %v, want creation", st.Phase)
	}
	if st.WorkSeconds <= 0 || st.Predicted <= st.BaseSeconds {
		t.Fatalf("first query stats implausible: %+v", st)
	}
	// δ=0.25 should be honored within rounding on the first query.
	if st.Delta < 0.2 || st.Delta > 0.3 {
		t.Fatalf("first query delta = %v, want ≈0.25", st.Delta)
	}

	for i := 0; i < 2000 && !idx.Converged(); i++ {
		lo, hi := randQuery(rng, domain)
		sumCount(idx, lo, hi)
	}
	if !idx.Converged() {
		t.Fatal("did not converge")
	}
	// The inline stats prove the query did no work.
	ans, err := idx.Execute(query.Request{Pred: query.Range(5, 50)})
	if err != nil {
		t.Fatal(err)
	}
	if st = ans.Stats; st.Phase != PhaseDone || st.WorkSeconds != 0 {
		t.Fatalf("post-convergence stats: %+v", st)
	}
}

// TestQuicksortAdaptiveBudgetConstantCost pins the adaptive budget: until
// convergence every query's predicted total hugs the target, exceeding it
// by at most one of invariant 3's atoms — an outright node sort in
// creation and refinement (creation spills into refinement), a block of
// leaves in consolidation. The atoms are absolute while the target's
// scan part shrinks with the workers, so the bound is an atom, not a
// share of the target.
func TestQuicksortAdaptiveBudgetConstantCost(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n, domain = 50_000, 50_000
	vals := randomValues(rng, n, domain)
	idx := NewQuicksort(column.MustNew(vals), Config{
		Mode:          AdaptiveTime,
		BudgetSeconds: 0.2 * 6.0e-7 * float64(n) / 512, // 0.2 * default tscan
		// Small L1 keeps the atomic node-sort overshoot well below the
		// per-query budget at this test's small N.
		L1Elements: 256,
	})
	target := idx.budget.target
	for qn := 0; qn < 5000 && !idx.Converged(); qn++ {
		lo, hi := randQuery(rng, domain)
		ans := execRange(idx, lo, hi)
		if got, want := ans.Result(), oracle.Agg(vals, query.Range(lo, hi)).Result(); got != want {
			t.Fatalf("query #%d: got %+v want %+v", qn, got, want)
		}
		st := ans.Stats
		atom := idx.model.SwapTime(sortCost(idx.cfg.L1Elements))
		if st.Phase == PhaseConsolidation {
			atom = idx.cons.perBlock
		}
		if !idx.Converged() && st.Predicted > target+atom {
			t.Fatalf("query #%d (%v) predicted %g exceeds adaptive target %g by more than one %g-second atom", qn, st.Phase, st.Predicted, target, atom)
		}
	}
	if !idx.Converged() {
		t.Fatal("adaptive budget did not converge")
	}
}

func TestQuicksortFixedTimeBudgetResolvesDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const n, domain = 30_000, 30_000
	vals := randomValues(rng, n, domain)
	idx := NewQuicksort(column.MustNew(vals), Config{
		Mode:          FixedTime,
		BudgetSeconds: 1e-5,
	})
	sumCount(idx, 0, 100)
	d := idx.budget.delta
	if d <= 0 || d > 1 {
		t.Fatalf("resolved delta = %v", d)
	}
	sumCount(idx, 0, 100)
	if idx.budget.delta != d {
		t.Fatalf("fixed-time delta changed between queries: %v -> %v", d, idx.budget.delta)
	}
}

// Convergence must be deterministic: same data, same δ, same query
// sequence → same convergence query.
func TestQuicksortDeterministicConvergence(t *testing.T) {
	run := func() int {
		rng := rand.New(rand.NewSource(11))
		vals := randomValues(rng, 10_000, 10_000)
		idx := NewQuicksort(column.MustNew(vals), Config{Mode: FixedDelta, Delta: 0.1})
		for qn := 0; qn < 10_000; qn++ {
			lo, hi := randQuery(rng, 10_000)
			sumCount(idx, lo, hi)
			if idx.Converged() {
				return qn
			}
		}
		return -1
	}
	a, b := run(), run()
	if a != b || a < 0 {
		t.Fatalf("convergence not deterministic: %d vs %d", a, b)
	}
}
