package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/column"
	"repro/internal/data"
	"repro/internal/query"
)

// The stub's cost constants are powers of two, so every seconds figure
// the driver derives from them is exact and the tests compare with ==.
const (
	stubN         = 64
	stubFull      = 1.0 // creation: seconds per element a δ budget buys
	stubMarginal  = 0.5 // creation: seconds per element reported as work
	stubRefine    = 4.0 // refinement: seconds of work until sorted
	stubRefineAll = 8.0 // refinement: δ = 1 unit cost
)

// stubAlg is the smallest implementation of the algorithm interface:
// creation appends the column to the index as it is, refinement is
// stubRefine seconds of nothing followed by one sort. It records what
// the driver asked of it, which is what TestDriverPhaseMachine checks.
type stubAlg struct {
	progressive
	index       []int64
	refining    bool
	refineLeft  float64
	createUnits []int     // units of each create call
	refineSecs  []float64 // sec of each refine call
}

func newStub(vals []int64, cfg Config) *stubAlg {
	s := &stubAlg{refineLeft: stubRefine}
	s.progressive = newProgressive("STUB", s, column.MustNew(vals), cfg)
	return s
}

func (s *stubAlg) predict(lo, hi int64) (float64, int) { return 0.25, len(s.index) }

func (s *stubAlg) unitFull(p Phase) float64 {
	if p == PhaseCreation {
		return stubFull * float64(s.n)
	}
	return stubRefineAll
}

func (s *stubAlg) createCosts() (float64, float64) { return stubFull, stubMarginal }

func (s *stubAlg) create(units int, lo, hi int64, aggs column.Aggregates) (column.Agg, int) {
	s.createUnits = append(s.createUnits, units)
	res := column.AggRange(s.index, lo, hi, aggs)
	seg := s.col.Slice(s.copied, min(s.copied+units, s.n))
	res.Merge(column.AggRange(seg, lo, hi, aggs))
	s.index = append(s.index, seg...)
	s.copied += len(seg)
	return res, len(seg)
}

func (s *stubAlg) startRefinement() { s.refining = true }

func (s *stubAlg) answer(lo, hi int64, aggs column.Aggregates) column.Agg {
	return column.AggRange(s.index, lo, hi, aggs)
}

func (s *stubAlg) refine(sec float64, _, _ int64) (float64, bool) {
	s.refineSecs = append(s.refineSecs, sec)
	did := math.Min(sec, s.refineLeft)
	if s.refineLeft -= did; s.refineLeft == 0 {
		slices.Sort(s.index)
	}
	return did, did > 0
}

func (s *stubAlg) refineProgress() float64 { return 1 - s.refineLeft/stubRefine }

func (s *stubAlg) takeSorted() []int64 {
	if !s.refining || s.refineLeft > 0 {
		return nil
	}
	sorted := s.index
	s.index = nil
	return sorted
}

// TestDriverPhaseMachine checks the lifecycle driver once, against a
// stub algorithm, instead of four times through the real ones: phase
// order, budget spill across both phase boundaries, a slice's scale and
// suspension, and the read-only Done path.
func TestDriverPhaseMachine(t *testing.T) {
	vals := data.Uniform(stubN, 3)
	req := query.Request{Pred: query.Range(10, 40), Aggs: column.AggAll}
	want := column.AggRangeBranching(vals, 10, 40)
	slice := func(t *testing.T, s *stubAlg, scale float64, suspend bool) Stats {
		t.Helper()
		ans, err := s.ExecuteSlice(req, scale, suspend)
		if err != nil {
			t.Fatal(err)
		}
		if got := query.AnswerAgg(ans); got != want {
			t.Fatalf("phase %v: got %+v, want %+v", ans.Stats.Phase, got, want)
		}
		return ans.Stats
	}
	exec := func(t *testing.T, s *stubAlg) Stats { t.Helper(); return slice(t, s, 1, false) }
	quarter := Config{Mode: FixedDelta, Delta: 0.25, Fanout: 4}

	t.Run("phases in order", func(t *testing.T) {
		s := newStub(vals, quarter)
		var seen []Phase
		for q := 0; q < 100 && !s.Converged(); q++ {
			st := exec(t, s)
			// The stub predicts 0.25 s; from consolidation on the base
			// cost is the driver's own binary-search estimate.
			if st.Predicted != st.BaseSeconds+st.WorkSeconds || (st.Phase < PhaseConsolidation) != (st.BaseSeconds == 0.25) {
				t.Fatalf("query %d: stats %+v", q, st)
			}
			seen = append(seen, st.Phase)
		}
		// δ = ¼ is 16 of 64 elements per creation query and 2 of the 4
		// refinement seconds: no budget is left over at either boundary.
		head := []Phase{PhaseCreation, PhaseCreation, PhaseCreation, PhaseCreation, PhaseRefinement, PhaseRefinement, PhaseConsolidation}
		if len(seen) < len(head) || !slices.Equal(seen[:len(head)], head) || !slices.IsSorted(seen) {
			t.Fatalf("phase sequence %v", seen)
		}
		if !slices.Equal(s.createUnits, []int{16, 16, 16, 16}) || !slices.Equal(s.refineSecs, []float64{2, 2}) {
			t.Fatalf("planned creation units %v, refinement seconds %v", s.createUnits, s.refineSecs)
		}
		if !s.Converged() || s.Phase() != PhaseDone || s.Progress() != 1 {
			t.Fatalf("end state: phase %v progress %v", s.Phase(), s.Progress())
		}
	})

	t.Run("spill and scale", func(t *testing.T) {
		// δ = 1 doubled by the slice's scale plans 128 s: creation uses 64,
		// the rest spills through refinement (4 s) into consolidation,
		// which it finishes — one query, creation to Done.
		s := newStub(vals, Config{Mode: FixedDelta, Delta: 1, Fanout: 4})
		st := slice(t, s, 2, false)
		if st.Phase != PhaseCreation || s.Phase() != PhaseDone {
			t.Fatalf("started in %v, ended in %v", st.Phase, s.Phase())
		}
		if !slices.Equal(s.createUnits, []int{128}) || !slices.Equal(s.refineSecs, []float64{64}) {
			t.Fatalf("planned creation units %v, spilled refinement seconds %v", s.createUnits, s.refineSecs)
		}
		if work := stubN*stubMarginal + stubRefine + s.cons.unit; st.WorkSeconds != work || st.Delta != 1 {
			t.Fatalf("work %v, want %v; δ %v", st.WorkSeconds, work, st.Delta)
		}
	})

	t.Run("suspended", func(t *testing.T) {
		s := newStub(vals, quarter)
		if st := slice(t, s, 1, true); s.copied != 1 || st.WorkSeconds != stubMarginal || st.Delta != 1.0/stubN {
			t.Fatalf("suspended creation copied %d elements, stats %+v", s.copied, st)
		}
		for s.Phase() == PhaseCreation {
			exec(t, s)
		}
		calls, left := len(s.refineSecs), s.refineLeft
		if st := slice(t, s, 2, true); st.Phase != PhaseRefinement || st.WorkSeconds != 0 || len(s.refineSecs) != calls || s.refineLeft != left {
			t.Fatalf("suspended refinement worked: stats %+v", st)
		}
		if slice(t, s, 2, false); s.refineSecs[len(s.refineSecs)-1] != 4 {
			t.Fatalf("scale 2 planned %v refinement seconds, want 4", s.refineSecs)
		}
	})

	t.Run("done is read-only", func(t *testing.T) {
		s := newStub(vals, Config{Mode: FixedTime, BudgetSeconds: 1000, Fanout: 4})
		for q := 0; q < 100 && !s.Converged(); q++ {
			exec(t, s)
		}
		before, creates, refines := s.progressive, len(s.createUnits), len(s.refineSecs)
		if st := exec(t, s); st.Phase != PhaseDone || st.WorkSeconds != 0 || st.Delta != 0 {
			t.Fatalf("done stats %+v", st)
		}
		if s.progressive != before || len(s.createUnits) != creates || len(s.refineSecs) != refines {
			t.Fatal("a Done call mutated the index")
		}
		if allocs := testing.AllocsPerRun(100, func() { s.Execute(req) }); allocs != 0 {
			t.Fatalf("a Done call allocates %.1f/op, want 0", allocs)
		}
	})
}
