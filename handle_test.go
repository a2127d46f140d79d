package progidx

import (
	"sync"
	"testing"

	"repro/internal/column"
	"repro/internal/data"
	"repro/internal/query"
	"repro/internal/shard"
)

// converge drives a handle to its terminal state via refine steps, with
// a safety bound.
func converge(t *testing.T, idx *shard.Sharded) {
	t.Helper()
	for i := 0; i < 1_000_000; i++ {
		if _, done := idx.RefineStep(); done {
			return
		}
	}
	t.Fatalf("%s: did not converge within bound", idx.Name())
}

// unshardedHandle builds the serving handle of an unsharded table.
func unshardedHandle(t *testing.T, vals []int64, opts Options) *shard.Sharded {
	t.Helper()
	h, err := NewHandle(vals, opts)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// executeBatch runs reqs the way a table runs one batch on a column: the
// first request leads — it carries the indexing budget — unless
// opts.Clamp withholds it, and the rest run with indexing suspended.
func executeBatch(sh *shard.Sharded, reqs []Request, opts query.BatchOpts) ([]Answer, []error) {
	answers := make([]Answer, len(reqs))
	errs := make([]error, len(reqs))
	for i, req := range reqs {
		answers[i], errs[i] = sh.ExecuteAs(req, i == 0 && !opts.Clamp, opts.Trace(i))
	}
	return answers, errs
}

func TestExecuteBatchAmortizesIndexingWork(t *testing.T) {
	vals := data.Uniform(40_000, 3)
	idx := unshardedHandle(t, vals, Options{Strategy: StrategyQuicksort, Delta: 0.25})

	reqs := make([]Request, 6)
	for i := range reqs {
		lo := int64(i * 3000)
		reqs[i] = Request{Pred: Range(lo, lo+8000), Aggs: AllAggregates}
	}
	answers, errs := executeBatch(idx, reqs, query.BatchOpts{})
	if len(answers) != len(reqs) || len(errs) != len(reqs) {
		t.Fatalf("batch shape: %d answers, %d errs", len(answers), len(errs))
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("req %d: %v", i, err)
		}
	}

	// Exactness: every batched answer equals the serial oracle.
	for i, req := range reqs {
		lo, hi := req.Pred.Lo, req.Pred.Hi
		want := column.AggRangeBranching(vals, lo, hi)
		if answers[i].Sum != want.Sum || answers[i].Count != want.Count {
			t.Fatalf("req %d: batched answer %d/%d, want %d/%d",
				i, answers[i].Sum, answers[i].Count, want.Sum, want.Count)
		}
	}

	// Amortization: the first request paid the full δ=0.25 step; the
	// suspended remainder did at most one element of creation work each
	// (δ = 1/n), two orders of magnitude less.
	if d := answers[0].Stats.Delta; d < 0.2 {
		t.Fatalf("first request's delta = %v, want ~0.25", d)
	}
	for i := 1; i < len(answers); i++ {
		if d := answers[i].Stats.Delta; d > answers[0].Stats.Delta/100 {
			t.Fatalf("suspended request %d still did delta %v of work", i, d)
		}
	}
}

func TestExecuteBatchEmpty(t *testing.T) {
	idx := unshardedHandle(t, []int64{1, 2, 3}, Options{})
	answers, errs := executeBatch(idx, nil, query.BatchOpts{})
	if len(answers) != 0 || len(errs) != 0 {
		t.Fatal("empty batch should return empty slices")
	}
}

func TestRefineStepConvergesEveryConvergentStrategy(t *testing.T) {
	vals := data.Uniform(20_000, 5)
	for _, s := range progressiveStrategies {
		idx := unshardedHandle(t, vals, Options{Strategy: s, Delta: 0.25})
		if p := idx.Progress(); p != 0 {
			t.Fatalf("%v: fresh progress = %v, want 0", s, p)
		}
		converge(t, idx)
		if !idx.Converged() || idx.Progress() != 1 {
			t.Fatalf("%v: converged=%v progress=%v after RefineStep loop",
				s, idx.Converged(), idx.Progress())
		}
		// RefineStep on a converged index is a cheap no-op.
		if st, done := idx.RefineStep(); !done || st.WorkSeconds != 0 {
			t.Fatalf("%v: post-convergence RefineStep = %+v, %v", s, st, done)
		}
		// And the converged index answers exactly.
		want := column.AggRangeBranching(vals, 500, 12_000)
		ans, err := idx.Execute(Request{Pred: Range(500, 12_000)})
		if err != nil {
			t.Fatal(err)
		}
		if ans.Sum != want.Sum || ans.Count != want.Count {
			t.Fatalf("%v: post-convergence answer %d/%d, want %d/%d",
				s, ans.Sum, ans.Count, want.Sum, want.Count)
		}
	}
}

func TestRefineStepStatsReuseBudgetMapping(t *testing.T) {
	vals := data.Uniform(50_000, 6)
	idx := unshardedHandle(t, vals, Options{Strategy: StrategyQuicksort, Delta: 0.25})
	st, done := idx.RefineStep()
	if done {
		t.Fatal("one step cannot converge a 50k index at δ=0.25")
	}
	// The idle slice runs through the same budgeter as a real query:
	// one creation step indexes the configured δ of the data.
	if st.Phase != PhaseCreation || st.Delta < 0.2 || st.Delta > 0.3 {
		t.Fatalf("idle slice stats = %+v, want a creation step of ~δ=0.25", st)
	}
}

// TestConvergedConcurrentReads exercises the post-convergence shared
// read lock: many goroutines querying a converged index in parallel
// (under -race this patrols the read-only contract of Done-phase
// Execute) with every answer checked against the oracle.
func TestConvergedConcurrentReads(t *testing.T) {
	vals := data.Uniform(30_000, 9)
	for _, s := range progressiveStrategies {
		idx := unshardedHandle(t, vals, Options{Strategy: s, Delta: 0.25})
		converge(t, idx)

		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int64) {
				defer wg.Done()
				for q := int64(0); q < 50; q++ {
					lo := (g*997 + q*131) % 30_000
					hi := lo + 5_000
					ans, err := idx.Execute(Request{Pred: Range(lo, hi), Aggs: AllAggregates})
					if err != nil {
						t.Error(err)
						return
					}
					want := column.AggRangeBranching(vals, lo, hi)
					if ans.Sum != want.Sum || ans.Count != want.Count {
						t.Errorf("%v: converged read %d/%d, want %d/%d",
							s, ans.Sum, ans.Count, want.Sum, want.Count)
						return
					}
					if !idx.Converged() || idx.Progress() != 1 {
						t.Errorf("%v: convergence observability regressed", s)
						return
					}
				}
			}(int64(g))
		}
		wg.Wait()
	}
}
