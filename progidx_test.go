package progidx

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/column"
	"repro/internal/data"
	"repro/internal/query"
)

var allStrategies = []Strategy{
	StrategyQuicksort, StrategyRadixMSD, StrategyBucketsort, StrategyRadixLSD,
	StrategyFullScan, StrategyFullIndex,
	StrategyStandardCracking, StrategyStochasticCracking,
	StrategyProgressiveStochastic, StrategyCoarseGranular, StrategyAdaptiveAdaptive,
	StrategyProgressiveHash, StrategyImprints,
}

func TestNewAllStrategiesAnswerExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := data.Uniform(10_000, 2)
	for _, s := range allStrategies {
		idx, err := New(vals, Options{Strategy: s, Delta: 0.25, Seed: 3})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if idx.Name() != s.String() {
			t.Fatalf("Name %q != strategy %q", idx.Name(), s.String())
		}
		for q := 0; q < 60; q++ {
			lo := rng.Int63n(10_000)
			hi := lo + rng.Int63n(2000)
			got := sumCount(idx, lo, hi)
			want := column.SumRangeBranching(vals, lo, hi)
			if got != want {
				t.Fatalf("%v query [%d,%d]: got %+v want %+v", s, lo, hi, got, want)
			}
		}
	}
}

func TestNewRejectsEmptyAndUnknown(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := New([]int64{1}, Options{Strategy: Strategy(99)}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

// TestProgressiveInterfaceUpgrade: cmd/progidx prints phases for
// Strategy.Progressive(), and that static table is exactly the set of
// strategies whose Stats ever report a phase past creation, and the set
// of strategies that are a query.Budgeted: the four progressive
// algorithms.
func TestProgressiveInterfaceUpgrade(t *testing.T) {
	vals := data.Uniform(5000, 5)
	for _, s := range allStrategies {
		idx := MustNew(vals, Options{Strategy: s, Delta: 0.5})
		pastCreation := false
		for q := 0; q < 60; q++ {
			ans, err := idx.Execute(Request{Pred: Range(0, 5000)})
			if err != nil {
				t.Fatal(err)
			}
			pastCreation = pastCreation || ans.Stats.Phase > PhaseCreation
		}
		if pastCreation != s.Progressive() {
			t.Fatalf("%v: Stats past creation=%v, Strategy.Progressive=%v", s, pastCreation, s.Progressive())
		}
		_, native := idx.(query.Budgeted)
		if want := s.Progressive(); native != want {
			t.Fatalf("%v: natively query.Budgeted=%v, want %v", s, native, want)
		}
	}
}

func TestProgressiveConvergesToDone(t *testing.T) {
	vals := data.Uniform(5000, 6)
	for _, s := range []Strategy{StrategyQuicksort, StrategyRadixMSD, StrategyBucketsort, StrategyRadixLSD} {
		idx := MustNew(vals, Options{Strategy: s, Delta: 1}).(query.Budgeted)
		for q := 0; q < 300 && !idx.Converged(); q++ {
			sumCount(idx, 0, 5000)
		}
		if !idx.Converged() || idx.Phase() != PhaseDone || idx.Progress() != 1 {
			t.Fatalf("%v: converged=%v phase=%v progress=%v", s, idx.Converged(), idx.Phase(), idx.Progress())
		}
	}
}

func TestBudgetModesSelectCorrectly(t *testing.T) {
	vals := data.Uniform(20_000, 7)
	// Fixed-time budget.
	idx := MustNew(vals, Options{Strategy: StrategyQuicksort, Budget: time.Millisecond})
	ans, err := idx.Execute(Request{Pred: Range(0, 100)})
	if st := ans.Stats; err != nil || st.WorkSeconds <= 0 {
		t.Fatalf("fixed-time budget did no work: %+v", st)
	}
	// Adaptive budget.
	idx2 := MustNew(vals, Options{Strategy: StrategyRadixMSD, Budget: time.Millisecond, Adaptive: true})
	ans, err = idx2.Execute(Request{Pred: Range(0, 100)})
	if st := ans.Stats; err != nil || st.WorkSeconds <= 0 {
		t.Fatalf("adaptive budget did no work: %+v", st)
	}
}

func TestStrategyStrings(t *testing.T) {
	want := map[Strategy]string{
		StrategyQuicksort:             "PQ",
		StrategyRadixMSD:              "PMSD",
		StrategyBucketsort:            "PB",
		StrategyRadixLSD:              "PLSD",
		StrategyFullScan:              "FS",
		StrategyFullIndex:             "FI",
		StrategyStandardCracking:      "STD",
		StrategyStochasticCracking:    "STC",
		StrategyProgressiveStochastic: "PSTC",
		StrategyCoarseGranular:        "CGI",
		StrategyAdaptiveAdaptive:      "AA",
		StrategyProgressiveHash:       "PHASH",
		StrategyImprints:              "PIMP",
	}
	for s, w := range want {
		if s.String() != w {
			t.Fatalf("%d.String() = %q, want %q", int(s), s.String(), w)
		}
	}
}

// TestRecommendDecisionTree covers every hint combination (all eight),
// pinning the Figure 11 branch precedence. In particular,
// MemoryConstrained must win over PointQueriesOnly: Radix LSD's
// intermediate buckets transiently need base column + buckets + final
// array, which contradicts the MemoryConstrained contract (at most one
// extra copy of the column), so a memory-constrained point workload
// gets the fully in-place Progressive Quicksort.
func TestRecommendDecisionTree(t *testing.T) {
	cases := []struct {
		hints WorkloadHints
		want  Strategy
	}{
		{WorkloadHints{}, StrategyRadixMSD},
		{WorkloadHints{SkewedData: true}, StrategyBucketsort},
		{WorkloadHints{PointQueriesOnly: true}, StrategyRadixLSD},
		{WorkloadHints{PointQueriesOnly: true, SkewedData: true}, StrategyRadixLSD},
		{WorkloadHints{MemoryConstrained: true}, StrategyQuicksort},
		{WorkloadHints{MemoryConstrained: true, SkewedData: true}, StrategyQuicksort},
		{WorkloadHints{MemoryConstrained: true, PointQueriesOnly: true}, StrategyQuicksort},
		{WorkloadHints{MemoryConstrained: true, PointQueriesOnly: true, SkewedData: true}, StrategyQuicksort},
	}
	if want := 1 << 3; len(cases) != want {
		t.Fatalf("decision tree regression must cover all %d hint combinations, has %d", want, len(cases))
	}
	for _, tc := range cases {
		if got := Recommend(tc.hints); got != tc.want {
			t.Fatalf("Recommend(%+v) = %v, want %v", tc.hints, got, tc.want)
		}
	}
}

// TestRecommendMemoryPrecedence is the narrow regression for the bug
// this tree once had: PointQueriesOnly outranking MemoryConstrained.
func TestRecommendMemoryPrecedence(t *testing.T) {
	h := WorkloadHints{PointQueriesOnly: true, MemoryConstrained: true}
	if got := Recommend(h); got != StrategyQuicksort {
		t.Fatalf("memory-constrained point workload recommends %v (needs >1 extra copy), want PQ", got)
	}
}

func TestRecommendedStrategiesAreProgressive(t *testing.T) {
	for _, h := range []WorkloadHints{
		{}, {PointQueriesOnly: true}, {SkewedData: true}, {MemoryConstrained: true},
	} {
		if s := Recommend(h); !s.Progressive() {
			t.Fatalf("Recommend(%+v) returned non-progressive %v", h, s)
		}
	}
}

// TestConvergedSumReadsBoundaryOnly holds the prefix sums beside the
// B+-tree to a counter, not a timing: whatever the selectivity, a
// converged SUM reads at most the 2β leaves between its run's ends and
// the nearest node boundaries (Stats.AlphaElems), a COUNT none, and the
// answers are the scan's.
func TestConvergedSumReadsBoundaryOnly(t *testing.T) {
	const n, fanout = 1_000_000, 64
	vals := data.Uniform(n, 21)
	rng := rand.New(rand.NewSource(22))
	for _, s := range []Strategy{StrategyQuicksort, StrategyRadixMSD, StrategyBucketsort, StrategyRadixLSD, StrategyFullIndex} {
		idx := MustNew(vals, Options{Strategy: s, Delta: 1})
		for q := 0; q < 1_000 && !idx.Converged(); q++ {
			if _, err := idx.Execute(Request{Pred: Range(0, n)}); err != nil {
				t.Fatal(err)
			}
		}
		if !idx.Converged() {
			t.Fatalf("%v did not converge", s)
		}
		for _, sel := range []float64{1e-4, 1e-3, 1e-2, 1e-1, 0.5, 1} {
			width := int64(sel * n)
			read := 0
			for trial := 0; trial < 8; trial++ {
				lo := rng.Int63n(n - width + 1)
				pred := Range(lo, lo+width-1)
				ans, err := idx.Execute(Request{Pred: pred, Aggs: Sum | Count})
				if err != nil {
					t.Fatal(err)
				}
				// The data is a permutation of [0, n): the run is the range.
				if wantSum := (2*lo + width - 1) * width / 2; ans.Sum != wantSum || ans.Count != width {
					t.Fatalf("%v sel %g [%d, %d]: sum %d count %d, want %d and %d", s, sel, pred.Lo, pred.Hi, ans.Sum, ans.Count, wantSum, width)
				}
				if ans.Stats.AlphaElems > 2*fanout {
					t.Fatalf("%v sel %g [%d, %d]: a converged SUM read %d elements, more than 2β = %d", s, sel, pred.Lo, pred.Hi, ans.Stats.AlphaElems, 2*fanout)
				}
				read += ans.Stats.AlphaElems
				ans, err = idx.Execute(Request{Pred: pred, Aggs: Count})
				if err != nil || ans.Count != width || ans.Stats.AlphaElems != 0 {
					t.Fatalf("%v sel %g [%d, %d]: a converged COUNT = %d (%v) read %d elements, want %d reading none", s, sel, pred.Lo, pred.Hi, ans.Count, err, ans.Stats.AlphaElems, width)
				}
			}
			if read == 0 && sel < 1 { // the whole column is whole nodes: n = 15625·β
				t.Fatalf("%v sel %g: eight unaligned SUMs report reading nothing at all", s, sel)
			}
		}
	}
}
