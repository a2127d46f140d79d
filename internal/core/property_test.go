package core

import (
	"math/rand"
	"testing"

	"repro/internal/column"
	"repro/internal/oracle"
	"repro/internal/query"
)

// constructors for all four algorithms, shared by the property tests.
var constructors = []struct {
	name string
	make func(*column.Column, Config) query.Budgeted
}{
	{"PQ", func(c *column.Column, cfg Config) query.Budgeted { return NewQuicksort(c, cfg) }},
	{"PMSD", func(c *column.Column, cfg Config) query.Budgeted { return NewRadixMSD(c, cfg) }},
	{"PB", func(c *column.Column, cfg Config) query.Budgeted { return NewBucketsort(c, cfg) }},
	{"PLSD", func(c *column.Column, cfg Config) query.Budgeted { return NewRadixLSD(c, cfg) }},
}

// Property 1 (DESIGN.md): any index, at any point of any query
// sequence, returns the same answer as a brute-force scan — across
// random data shapes, deltas, and query mixes.
func TestAllAlgorithmsAlwaysExact(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 6; trial++ {
		n := 500 + rng.Intn(8000)
		domain := int64(1) << (2 + rng.Intn(22))
		vals := make([]int64, n)
		for i := range vals {
			switch trial % 3 {
			case 0: // uniform
				vals[i] = rng.Int63n(domain)
			case 1: // skewed to the middle
				if rng.Intn(10) == 0 {
					vals[i] = rng.Int63n(domain)
				} else {
					vals[i] = domain/2 + rng.Int63n(domain/10+1) - domain/20
				}
			default: // few distinct values
				vals[i] = int64(rng.Intn(5)) * (domain / 5)
			}
		}
		delta := []float64{0.02, 0.1, 0.5, 1}[rng.Intn(4)]
		col := column.MustNew(vals)
		for _, c := range constructors {
			idx := c.make(col, Config{Mode: FixedDelta, Delta: delta, L1Elements: 512})
			for qn := 0; qn < 400; qn++ {
				var lo, hi int64
				switch rng.Intn(3) {
				case 0: // point
					lo = vals[rng.Intn(n)]
					hi = lo
				case 1: // narrow
					lo = rng.Int63n(domain)
					hi = lo + rng.Int63n(16)
				default: // wide
					lo = rng.Int63n(domain)
					hi = lo + rng.Int63n(domain)
				}
				got := sumCount(idx, lo, hi)
				if want := oracle.Agg(vals, query.Range(lo, hi)).Result(); got != want {
					t.Fatalf("trial %d %s δ=%v query #%d [%d,%d] phase=%v: got %+v want %+v",
						trial, c.name, delta, qn, lo, hi, idx.Phase(), got, want)
				}
				if idx.Converged() && qn > 50 {
					break
				}
			}
		}
	}
}

// Property 2: deterministic convergence — the paper's core claim
// against cracking. Convergence must not depend on the query pattern:
// under FixedDelta the number of queries to converge is bounded
// regardless of what is queried, including adversarial repeats of the
// same query.
func TestConvergenceIndependentOfWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	const n, domain = 10_000, 1 << 16
	vals := randomValues(rng, n, domain)
	col := column.MustNew(vals)

	workloads := map[string]func(int) (int64, int64){
		"same-point":  func(int) (int64, int64) { return 7, 7 },
		"same-range":  func(int) (int64, int64) { return 1000, 9000 },
		"sweep":       func(q int) (int64, int64) { lo := int64(q*13) % domain; return lo, lo + 100 },
		"full-domain": func(int) (int64, int64) { return 0, domain },
	}
	for _, c := range constructors {
		converge := map[string]int{}
		for wname, w := range workloads {
			idx := c.make(col, Config{Mode: FixedDelta, Delta: 0.25})
			q := 0
			for ; q < 10_000 && !idx.Converged(); q++ {
				lo, hi := w(q)
				sumCount(idx, lo, hi)
			}
			if !idx.Converged() {
				t.Fatalf("%s under %s did not converge", c.name, wname)
			}
			converge[wname] = q
		}
		// All workloads must converge within a small factor of each
		// other: progressive indexing is workload-independent. (Exact
		// equality is not required: range-targeted refinement can
		// reorder work slightly.)
		minQ, maxQ := 1<<30, 0
		for _, q := range converge {
			if q < minQ {
				minQ = q
			}
			if q > maxQ {
				maxQ = q
			}
		}
		if maxQ > 3*minQ+10 {
			t.Fatalf("%s convergence varies too much across workloads: %v", c.name, converge)
		}
	}
}

// Property 3: the budget is respected — with a tiny δ, the creation
// phase must progress by roughly δ·N per query, not more than one block
// worth of overshoot.
func TestCreationBudgetGranularity(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	const n, domain = 100_000, 1 << 20
	vals := randomValues(rng, n, domain)
	col := column.MustNew(vals)
	for _, c := range constructors {
		idx := c.make(col, Config{Mode: FixedDelta, Delta: 0.01})
		st := execRange(idx, 0, domain).Stats
		if st.Phase != PhaseCreation {
			t.Fatalf("%s: first query not in creation phase", c.name)
		}
		if st.Delta > 0.02 {
			t.Fatalf("%s: asked δ=0.01, got δ=%v", c.name, st.Delta)
		}
		if st.Delta < 0.005 {
			t.Fatalf("%s: δ collapsed to %v", c.name, st.Delta)
		}
	}
}

// Property 4: Stats bookkeeping is internally consistent on every query
// of a full run.
func TestStatsConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	const n, domain = 20_000, 1 << 16
	vals := randomValues(rng, n, domain)
	col := column.MustNew(vals)
	for _, radixBits := range []int{0, 4} { // the default 6, and 16 buckets
		for _, c := range constructors {
			idx := c.make(col, Config{Mode: FixedDelta, Delta: 0.2, RadixBits: radixBits})
			prevPhase := PhaseCreation
			for qn := 0; qn < 3000 && !idx.Converged(); qn++ {
				lo, hi := randQuery(rng, domain)
				st := execRange(idx, lo, hi).Stats
				if st.Predicted != st.BaseSeconds+st.WorkSeconds {
					t.Fatalf("%s #%d: Predicted != Base+Work: %+v", c.name, qn, st)
				}
				if st.WorkSeconds < 0 || st.BaseSeconds < 0 || st.Delta < 0 {
					t.Fatalf("%s #%d: negative stats: %+v", c.name, qn, st)
				}
				if st.Phase < prevPhase {
					t.Fatalf("%s #%d: phase regressed %v -> %v", c.name, qn, prevPhase, st.Phase)
				}
				prevPhase = st.Phase
				if st.AlphaElems < 0 || st.AlphaElems > n {
					t.Fatalf("%s #%d: alpha out of range: %d", c.name, qn, st.AlphaElems)
				}
			}
			if !idx.Converged() {
				t.Fatalf("%s did not converge", c.name)
			}
		}
	}

	// PB's refinement lookup term follows its bucket count: a probe that
	// matches nothing in a finished bucket is billed log2(b)+1 levels and
	// nothing else.
	even := make([]int64, n)
	for i, v := range vals {
		even[i] = 2 * v
	}
	pb := NewBucketsort(column.MustNew(even), Config{Mode: FixedDelta, Delta: 0.2, RadixBits: 4})
	for pb.Phase() == PhaseCreation || pb.active == 0 {
		execRange(pb, 0, 2*domain)
	}
	odd := pb.final[pb.bks[0].regStart] + 1
	st := execRange(pb, odd, odd).Stats
	if want := pb.model.TreeLookupTime(4 + 1); st.Phase != PhaseRefinement || st.AlphaElems != 0 || st.BaseSeconds != want {
		t.Fatalf("PB at 16 buckets, empty probe of a finished bucket: %+v, want a refinement base of %g", st, want)
	}
}

// Property 5: after convergence, repeated queries do no indexing work
// and answer from the B+-tree.
func TestConvergedIndexIsQuiescent(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	const n, domain = 10_000, 1 << 14
	vals := randomValues(rng, n, domain)
	col := column.MustNew(vals)
	for _, c := range constructors {
		idx := c.make(col, Config{Mode: FixedDelta, Delta: 1})
		for qn := 0; qn < 500 && !idx.Converged(); qn++ {
			sumCount(idx, 0, domain)
		}
		if !idx.Converged() {
			t.Fatalf("%s did not converge", c.name)
		}
		for qn := 0; qn < 50; qn++ {
			lo, hi := randQuery(rng, domain)
			ans, err := idx.Execute(query.Request{Pred: query.Range(lo, hi)})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := ans.Result(), oracle.Agg(vals, query.Range(lo, hi)).Result(); got != want {
				t.Fatalf("%s post-convergence: got %+v want %+v", c.name, got, want)
			}
			// The inline stats prove quiescence.
			if st := ans.Stats; st.WorkSeconds != 0 || st.Phase != PhaseDone {
				t.Fatalf("%s post-convergence still working: %+v", c.name, st)
			}
		}
	}
}

// Property 5b: a converged index answers without its base column. Before
// Done ReleaseBase does nothing (every phase still reads the column);
// after, the rows are dropped — a column the index shares with nobody
// else becomes garbage — the zone stays, and every aggregate of every
// predicate shape is what it was.
func TestConvergedIndexReleasesBase(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	const n, domain = 10_000, 1 << 14
	vals := randomValues(rng, n, domain)
	for _, c := range constructors {
		idx := c.make(column.MustNew(append([]int64(nil), vals...)), Config{Mode: FixedDelta, Delta: 0.5})
		for qn := 0; qn < 500 && !idx.Converged(); qn++ {
			if idx.ReleaseBase() { // not yet: creation and refinement read the column
				t.Fatalf("%s released its base in phase %v", c.name, idx.Phase())
			}
			sumCount(idx, 0, domain)
		}
		if !idx.Converged() {
			t.Fatalf("%s did not converge", c.name)
		}
		preds := []query.Predicate{query.Range(100, 9000), query.Point(vals[7]), query.AtLeast(domain / 2), query.AtMost(50), query.Range(5, 4), query.Range(-9, domain*2)}
		var want []query.Answer
		for _, p := range preds {
			ans, err := idx.Execute(query.Request{Pred: p, Aggs: column.AggAll})
			if err != nil {
				t.Fatal(err)
			}
			if got, o := ans.Result(), oracle.Agg(vals, query.Range(max(p.Lo, 0), min(p.Hi, domain))).Result(); got != o {
				t.Fatalf("%s converged: %s = %+v, want %+v", c.name, p, got, o)
			}
			want = append(want, ans)
		}
		if !idx.ReleaseBase() {
			t.Fatalf("%s converged and did not release its base", c.name)
		}
		for i, p := range preds {
			if got, err := idx.Execute(query.Request{Pred: p, Aggs: column.AggAll}); err != nil || got != want[i] {
				t.Fatalf("%s after the release: %s = %+v err=%v, want %+v", c.name, p, got, err, want[i])
			}
		}
	}
}

// Property 6: adaptive budgets hold the predicted per-query cost at the
// target until convergence, then strictly below it (the Figure 9 shape).
func TestAdaptiveBudgetShape(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	const n, domain = 50_000, 1 << 18
	vals := randomValues(rng, n, domain)
	col := column.MustNew(vals)
	for _, c := range constructors {
		budget := 0.2 * 6.0e-7 * float64(n) / 512
		idx := c.make(col, Config{Mode: AdaptiveTime, BudgetSeconds: budget, L1Elements: 256})
		target := 6.0e-7*float64(n)/512 + budget
		for qn := 0; qn < 10_000 && !idx.Converged(); qn++ {
			lo, hi := randQuery(rng, domain)
			st := execRange(idx, lo, hi).Stats
			if st.Predicted > target*1.3 {
				t.Fatalf("%s #%d: predicted %g far above target %g (%+v)", c.name, qn, st.Predicted, target, st)
			}
		}
		if !idx.Converged() {
			t.Fatalf("%s did not converge under adaptive budget", c.name)
		}
		if st := execRange(idx, 0, 1).Stats; st.Predicted > target {
			t.Fatalf("%s converged but still predicts %g >= target %g", c.name, st.Predicted, target)
		}
	}
}
