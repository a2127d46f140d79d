package plan_test

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/column"
	"repro/internal/data"
	"repro/internal/oracle"
	"repro/internal/plan"
	"repro/internal/shard"
)

// TestStrategiesMeetTheOneContract is the conformance test of
// query.Budgeted over the four a table serves, each built the way the
// shard layer builds it (plan.Layout's factory): a suspended slice
// indexes nothing (the creation step still moves its minimum one
// element, part of its answer path) where an open one does; Progress is
// monotone in [0, 1] and 1 with Converged and PhaseDone; ReleaseBase
// reports true only once converged. And as a table they settle. Every
// other strategy plan.NewColumn refuses, with the one message that
// points to cmd/experiments.
func TestStrategiesMeetTheOneContract(t *testing.T) {
	const n = 3 * shard.BlockRows
	vals := data.Uniform(n, 5)
	req := Request{Pred: Range(100, 4000), Aggs: AllAggregates}
	want := oracle.Agg(vals, req.Pred)
	for _, s := range Strategies() {
		opts := plan.Options{Strategy: s, Delta: 0.25, Workers: 1}
		if !s.Progressive() {
			if _, err := plan.NewColumn(column.MustNew(append([]int64(nil), vals...)), opts); err == nil || !strings.Contains(err.Error(), "cmd/experiments") {
				t.Fatalf("%v: a table of a baseline was not refused: %v", s, err)
			}
			continue
		}
		_, factory := plan.Layout(opts, n)
		idx := factory(column.MustNew(append([]int64(nil), vals...)))
		slice := func(suspend bool) float64 {
			t.Helper()
			before := idx.Progress()
			ans, err := idx.ExecuteSlice(req, 1, suspend)
			if err != nil {
				t.Fatalf("%v: %v", s, err)
			}
			checkAnswer(t, s.String(), req.Pred, req.Aggs, ans, want)
			after := idx.Progress()
			if after < before || after > 1 || (after == 1) != idx.Converged() || idx.Converged() != (idx.Phase() == PhaseDone) {
				t.Fatalf("%v: progress %v -> %v, converged=%v, phase %v", s, before, after, idx.Converged(), idx.Phase())
			}
			return after - before
		}
		if moved := slice(true); moved > 1.0/n {
			t.Fatalf("%v: a suspended slice moved progress by %v", s, moved)
		}
		if moved := slice(false); moved < 0.05 {
			t.Fatalf("%v: an open slice at δ=0.25 moved progress by %v", s, moved)
		}
		for q := 0; q < 100 && !idx.Converged(); q++ {
			if idx.ReleaseBase() {
				t.Fatalf("%v released its base before it converged", s)
			}
			slice(false)
		}
		if !idx.Converged() || !idx.ReleaseBase() {
			t.Fatalf("%v: converged=%v, ReleaseBase refused", s, idx.Converged())
		}

		h := newColumn(t, append([]int64(nil), vals...), opts)
		for q := 0; q < 200 && !h.Converged(); q++ {
			h.RefineStep()
		}
		if si := h.ShardStats()[0]; si.Form != shard.FormSettled || si.Bytes >= 8*n || !h.Converged() {
			t.Fatalf("%v: %+v, want a settled shard", s, si)
		}
	}
}

// TestUnshardedHandleKeepsWorkers pins the other rule of a one-shard
// handle: with no fan-out to spread over the workers, the shard's own
// index keeps Options.Workers. Stats.Workers reports the option, a
// wall-clock budget plans its creation step against the parallel
// kernel's cost (so the same budget indexes more rows per query at four
// workers than at one), and the answers are the same at both.
func TestUnshardedHandleKeepsWorkers(t *testing.T) {
	vals := data.Uniform(200_000, 37)
	var answers [2][]Answer
	for wi, workers := range []int{1, 4} {
		h := newColumn(t, vals, plan.Options{Strategy: StrategyRadixMSD, Budget: 20 * time.Microsecond, Workers: workers})
		for q := int64(0); q < 4; q++ {
			p := Range(q*20_000, q*20_000+50_000)
			ans, err := h.Execute(Request{Pred: p, Aggs: AllAggregates})
			if err != nil {
				t.Fatal(err)
			}
			if ans.Stats.Phase != PhaseCreation {
				t.Fatalf("workers=%d query %d ran in phase %v, want creation throughout", workers, q, ans.Stats.Phase)
			}
			if ans.Stats.Workers != workers {
				t.Fatalf("workers=%d: Stats.Workers = %d", workers, ans.Stats.Workers)
			}
			checkAnswer(t, h.Name(), p, AllAggregates, ans, oracle.Agg(vals, p))
			answers[wi] = append(answers[wi], ans)
		}
	}
	for q := range answers[0] {
		one, four := answers[0][q], answers[1][q]
		if one.Sum != four.Sum || one.Count != four.Count || one.Min != four.Min || one.Max != four.Max {
			t.Fatalf("query %d differs across worker counts: %+v vs %+v", q, one, four)
		}
		if four.Stats.Delta <= one.Stats.Delta {
			t.Fatalf("query %d: δ %g at four workers, %g at one: the shard index lost its workers", q, four.Stats.Delta, one.Stats.Delta)
		}
	}
}

// TestUnshardedTailStaysBounded pins the rule an unsharded table's seal
// threshold follows: an eighth of the loaded rows, floor 1024 — not the
// whole-table shard size — so under appends with no idle slice in
// between, the unindexed tail every query scans never reaches that
// many rows, and every answer stays exact.
func TestUnshardedTailStaysBounded(t *testing.T) {
	for _, n := range []int{3_000, 20_000} {
		bound := max(n/8, 1024)
		logical := testColumn(n, 43)
		h := newColumn(t, append([]int64(nil), logical...), plan.Options{Strategy: StrategyQuicksort, Delta: 0.25})
		rng := rand.New(rand.NewSource(int64(n)))
		sealed := false
		for round := 0; round < 120; round++ {
			batch := make([]int64, 1+rng.Intn(bound/2))
			for i := range batch {
				batch[i] = rng.Int63n(8000) - 4000
			}
			if err := h.Append(batch); err != nil {
				t.Fatal(err)
			}
			logical = append(logical, batch...)
			if p := h.PendingRows(); p >= bound {
				t.Fatalf("n=%d round %d: %d rows pending, bound %d", n, round, p, bound)
			}
			sealed = sealed || h.Shards() > 1
			lo := rng.Int63n(8000) - 4000
			hi := lo + rng.Int63n(3000)
			ans, err := h.Execute(Request{Pred: Range(lo, hi), Aggs: AllAggregates})
			if err != nil {
				t.Fatal(err)
			}
			want := column.AggRangeBranching(logical, lo, hi)
			if ans.Sum != want.Sum || ans.Count != want.Count {
				t.Fatalf("n=%d round %d Range(%d, %d): %d/%d, want %d/%d", n, round, lo, hi, ans.Sum, ans.Count, want.Sum, want.Count)
			}
		}
		if !sealed {
			t.Fatalf("n=%d: the trace never sealed the tail", n)
		}
	}
}
