package plan

import (
	"math/rand"
	"testing"

	"repro"
	"repro/internal/data"
	"repro/internal/query"
)

// driverWorkload is the driver-choice workload: the correlated
// three-column table, FOR-bit-packed so a block decode is real work,
// and 96 conjunctions of a 0.1 %-wide range on the correlated column b
// AND a ~99 %-pass filter on the uniform column c, aggregating the
// clustered a. Driving by c touches every involved column in every
// block; driving by b lets the zones prune nearly all of them.
func driverWorkload(tb testing.TB, n int) (*Table, []query.Conjunction) {
	tbl, err := New("t", []string{"a", "b", "c"}, data.MultiColumn(n, 3, 1234), progidx.Options{
		Strategy: progidx.StrategyQuicksort, Delta: 0.25, Encoding: progidx.EncodingFORBP,
	})
	if err != nil {
		tb.Fatal(err)
	}
	width, cMin := int64(n/1000), int64(n/100)
	rng := rand.New(rand.NewSource(17))
	conjs := make([]query.Conjunction, 96)
	for i := range conjs {
		lo := rng.Int63n(int64(n))
		conjs[i] = query.Conjunction{
			Preds: []query.ColPredicate{
				{Col: "b", Pred: query.Range(lo, lo+width)},
				{Col: "c", Pred: query.AtLeast(cMin)},
			},
			Target: "a",
			Aggs:   progidx.Sum | progidx.Count,
		}
	}
	return tbl, conjs
}

// TestPlannerBeatsWorstDriver pins what picking the driving column is
// worth, in the work the fused scan reports rather than in wall clock:
// the planner picks b every time, answers as both pinned drivers do,
// and scans a fraction of the blocks and rows the worst pinned driver
// does (604 against 4 704 blocks, 37 052 against 38 029 248 rows; the
// counters are exact). BenchmarkConjDriver is the same workload timed.
func TestPlannerBeatsWorstDriver(t *testing.T) {
	tbl, conjs := driverWorkload(t, 200_000)
	var blocks, rows [3]int64
	var matched int64
	for _, c := range conjs {
		var planned query.Answer
		for i, force := range []string{"", "b", "c"} {
			ans, ch, err := tbl.ExplainConj(c, force)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				planned = ans
				matched += ch.MatchedRows
				if ch.Driver != "b" {
					t.Fatalf("planner drives %s by %q, want b; candidates %+v", c, ch.Driver, ch.Candidates)
				}
			} else if !sameAnswer(ans, planned) {
				t.Fatalf("driver %s diverges from the planner for %s:\n got %+v\nwant %+v", force, c, ans, planned)
			}
			blocks[i] += int64(ch.ScannedBlocks)
			rows[i] += ch.DriverRows + ch.ResidualRows
		}
	}
	worstBlocks, worstRows := max(blocks[1], blocks[2]), max(rows[1], rows[2])
	t.Logf("blocks scanned: planner %d, b %d, c %d; rows examined: planner %d, b %d, c %d; rows matched: %d",
		blocks[0], blocks[1], blocks[2], rows[0], rows[1], rows[2], matched)
	// The claim is about a 0.1 %-selectivity workload: the conjunctions
	// must match in its neighbourhood.
	if sel := float64(matched) / float64(len(conjs)) / 200_000; sel <= 0 || sel > 0.005 {
		t.Errorf("mean selectivity %.5f is not near the 0.001 design point", sel)
	}
	if 4*blocks[0] > worstBlocks {
		t.Errorf("planner scanned %d blocks, the worst pinned driver %d: want at least 4x fewer", blocks[0], worstBlocks)
	}
	if 100*rows[0] > worstRows {
		t.Errorf("planner examined %d rows, the worst pinned driver %d: want at least 100x fewer", rows[0], worstRows)
	}
}

// BenchmarkConjDriver times the driver-choice workload under the
// planner and under each pinned driving column:
// go test -run '^$' -bench ConjDriver ./internal/plan
func BenchmarkConjDriver(b *testing.B) {
	tbl, conjs := driverWorkload(b, 2_000_000)
	for _, driver := range []string{"planner", "b", "c"} {
		force := driver
		if driver == "planner" {
			force = ""
		}
		b.Run(driver, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := tbl.ExplainConj(conjs[i%len(conjs)], force); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
