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

func TestProgressiveInterfaceUpgrade(t *testing.T) {
	vals := data.Uniform(5000, 5)
	for _, s := range allStrategies {
		idx := MustNew(vals, Options{Strategy: s, Delta: 0.5})
		// cmd/progidx prints phases for Strategy.Progressive(): that is
		// exactly the set of indexes with the phase capability.
		_, isProg := idx.(query.Phaser)
		if isProg != s.Progressive() {
			t.Fatalf("%v: query.Phaser=%v, Strategy.Progressive=%v", s, isProg, s.Progressive())
		}
	}
}

func TestProgressiveConvergesToDone(t *testing.T) {
	vals := data.Uniform(5000, 6)
	for _, s := range []Strategy{StrategyQuicksort, StrategyRadixMSD, StrategyBucketsort, StrategyRadixLSD} {
		idx := MustNew(vals, Options{Strategy: s, Delta: 1})
		for q := 0; q < 300 && !idx.Converged(); q++ {
			sumCount(idx, 0, 5000)
		}
		if phase := idx.(query.Phaser).Phase(); !idx.Converged() || phase != PhaseDone {
			t.Fatalf("%v: converged=%v phase=%v", s, idx.Converged(), phase)
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
		hints   WorkloadHints
		want    Strategy
		wantEnc Encoding
	}{
		{WorkloadHints{}, StrategyRadixMSD, EncodingRaw},
		{WorkloadHints{SkewedData: true}, StrategyBucketsort, EncodingRaw},
		{WorkloadHints{PointQueriesOnly: true}, StrategyRadixLSD, EncodingRaw},
		{WorkloadHints{PointQueriesOnly: true, SkewedData: true}, StrategyRadixLSD, EncodingRaw},
		{WorkloadHints{MemoryConstrained: true}, StrategyQuicksort, EncodingFORBP},
		{WorkloadHints{MemoryConstrained: true, SkewedData: true}, StrategyQuicksort, EncodingFORBP},
		{WorkloadHints{MemoryConstrained: true, PointQueriesOnly: true}, StrategyQuicksort, EncodingFORBP},
		{WorkloadHints{MemoryConstrained: true, PointQueriesOnly: true, SkewedData: true}, StrategyQuicksort, EncodingFORBP},
	}
	if want := 1 << 3; len(cases) != want {
		t.Fatalf("decision tree regression must cover all %d hint combinations, has %d", want, len(cases))
	}
	for _, tc := range cases {
		if got := Recommend(tc.hints); got != tc.want {
			t.Fatalf("Recommend(%+v) = %v, want %v", tc.hints, got, tc.want)
		}
		// The storage-mode branch rides the same tree: only the
		// memory-constrained deployments pay the compressed-scan
		// penalty, and they pay it with FOR-BP, never an eager decode.
		if got := RecommendEncoding(tc.hints); got != tc.wantEnc {
			t.Fatalf("RecommendEncoding(%+v) = %v, want %v", tc.hints, got, tc.wantEnc)
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
