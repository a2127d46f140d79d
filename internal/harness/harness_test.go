package harness

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/column"
	"repro/internal/core"
	"repro/internal/cracking"
	"repro/internal/data"
	"repro/internal/query"
	"repro/internal/workload"
)

func makeQueries(g workload.Generator, n int) []Query {
	return g.Queries(n)
}

func TestExecuteVerifiedAcrossAllIndexTypes(t *testing.T) {
	const n = 20_000
	vals := data.Uniform(n, 1)
	col := column.MustNew(vals)
	qs := makeQueries(workload.Random(int64(n), 2), 100)

	indexes := []query.Index{
		baseline.NewFullScan(col),
		baseline.NewFullIndex(col, 64),
		cracking.NewStandard(col, cracking.Config{}),
		cracking.NewStochastic(col, cracking.Config{Seed: 1}),
		cracking.NewProgressiveStochastic(col, cracking.Config{Seed: 1}),
		cracking.NewCoarseGranular(col, cracking.Config{}),
		cracking.NewAdaptiveAdaptive(col, cracking.Config{}),
		core.NewQuicksort(col, core.Config{Mode: core.FixedDelta, Delta: 0.25}),
		core.NewRadixMSD(col, core.Config{Mode: core.FixedDelta, Delta: 0.25}),
		core.NewBucketsort(col, core.Config{Mode: core.FixedDelta, Delta: 0.25}),
		core.NewRadixLSD(col, core.Config{Mode: core.FixedDelta, Delta: 0.25}),
	}
	for _, idx := range indexes {
		run, err := ExecuteQueries(idx, qs, Options{Verify: col})
		if err != nil {
			t.Fatalf("%s: %v", idx.Name(), err)
		}
		if len(run.Times) != 100 {
			t.Fatalf("%s: %d times recorded", idx.Name(), len(run.Times))
		}
		if run.Cumulative() <= 0 || run.FirstQuery() <= 0 {
			t.Fatalf("%s: non-positive timings", idx.Name())
		}
	}
}

func TestExecuteRecordsPredictionsForProgressive(t *testing.T) {
	const n = 10_000
	col := column.MustNew(data.Uniform(n, 3))
	qs := makeQueries(workload.Random(int64(n), 4), 50)
	idx := core.NewQuicksort(col, core.Config{Mode: core.FixedDelta, Delta: 0.25})
	run, err := ExecuteQueries(idx, qs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Predicted) != len(run.Times) {
		t.Fatalf("predictions %d != times %d", len(run.Predicted), len(run.Times))
	}
	for i, p := range run.Predicted {
		if p <= 0 {
			t.Fatalf("prediction %d non-positive", i)
		}
	}
	if run.Phases[0] != core.PhaseCreation {
		t.Fatalf("first phase = %v", run.Phases[0])
	}
}

func TestExecuteNoPredictionsForBaselines(t *testing.T) {
	col := column.MustNew(data.Uniform(1000, 5))
	qs := makeQueries(workload.Random(1000, 6), 10)
	run, err := ExecuteQueries(baseline.NewFullScan(col), qs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range run.Predicted {
		if p != 0 {
			t.Fatalf("FS predicts %g for query %d, want nothing", p, i)
		}
	}
	if run.ConvergedAt != -1 {
		t.Fatal("FS never converges")
	}
}

func TestStopAfterConverged(t *testing.T) {
	col := column.MustNew(data.Uniform(5000, 7))
	qs := makeQueries(workload.Random(5000, 8), 5000)
	idx := core.NewQuicksort(col, core.Config{Mode: core.FixedDelta, Delta: 1})
	run, err := ExecuteQueries(idx, qs, Options{StopAfterConverged: 5})
	if err != nil {
		t.Fatal(err)
	}
	if run.ConvergedAt < 0 {
		t.Fatal("did not converge")
	}
	if len(run.Times) > run.ConvergedAt+6 {
		t.Fatalf("ran %d queries, expected stop ~%d", len(run.Times), run.ConvergedAt+5)
	}
}

func TestVarianceMetric(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if v := Variance(xs, len(xs)); math.Abs(v-4.0) > 1e-12 {
		t.Fatalf("Variance = %v, want 4", v)
	}
	if v := Variance(nil, 100); v != 0 {
		t.Fatalf("Variance(nil) = %v", v)
	}
	if v := Variance([]float64{3}, 100); v != 0 {
		t.Fatalf("Variance(single) = %v", v)
	}
}

func TestPayoffQuery(t *testing.T) {
	r := &Run{Times: []float64{10, 1, 1, 1, 1}}
	// scan = 2: cumulative 10,11,12,13,14 vs budget 2,4,6,8,10... never.
	if got := r.PayoffQuery(2); got != -1 {
		t.Fatalf("PayoffQuery(2) = %d, want -1", got)
	}
	// scan = 3: budget 3,6,9,12,15; cumulative 10,11,12,13,14 → q=3 (13<=12? no) q=4: 14<=15 yes.
	if got := r.PayoffQuery(3); got != 4 {
		t.Fatalf("PayoffQuery(3) = %d, want 4", got)
	}
	// Immediate payoff.
	if got := r.PayoffQuery(11); got != 0 {
		t.Fatalf("PayoffQuery(11) = %d, want 0", got)
	}
}

func TestMeasureScanTimePositive(t *testing.T) {
	col := column.MustNew(data.Uniform(100_000, 9))
	ts := MeasureScanTime(col, 3)
	if ts <= 0 || ts > 1 {
		t.Fatalf("scan time %v implausible", ts)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Table X", "Index", "First Q", "Cumulative")
	tb.AddRow("FS", 0.75, 118743.7)
	tb.AddRow("PQ", 0.0000003, 202.9)
	out := tb.Render()
	if !strings.Contains(out, "Table X") || !strings.Contains(out, "FS") {
		t.Fatalf("render missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "Index,First Q,Cumulative\n") {
		t.Fatalf("csv header wrong: %s", csv)
	}
	if tb.Rows() != 2 {
		t.Fatalf("Rows = %d", tb.Rows())
	}
}

func TestRandomizedCrossCheckSmall(t *testing.T) {
	// End-to-end: every index type answers a hostile mixed workload on
	// skewed data identically.
	rng := rand.New(rand.NewSource(10))
	vals := data.Skewed(8000, 11)
	col := column.MustNew(vals)
	var qs []Query
	for i := 0; i < 150; i++ {
		lo := rng.Int63n(8000)
		qs = append(qs, Query{Lo: lo, Hi: lo + rng.Int63n(2000)})
	}
	indexes := []query.Index{
		cracking.NewStandard(col, cracking.Config{}),
		cracking.NewAdaptiveAdaptive(col, cracking.Config{L2Elements: 512}),
		core.NewQuicksort(col, core.Config{Mode: core.FixedDelta, Delta: 0.1}),
		core.NewRadixLSD(col, core.Config{Mode: core.FixedDelta, Delta: 0.1}),
	}
	for _, idx := range indexes {
		if _, err := ExecuteQueries(idx, qs, Options{Verify: col}); err != nil {
			t.Fatal(err)
		}
	}
}
