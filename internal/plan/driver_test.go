package plan

import (
	"math/rand"
	"testing"

	"repro/internal/column"
	"repro/internal/data"
	"repro/internal/encode"
	"repro/internal/oracle"
	"repro/internal/query"
	"repro/internal/shard"
)

// driverWorkload is the driver-choice workload: the correlated
// three-column table, FOR-bit-packed so a block decode is real work,
// and 96 conjunctions of a 0.1 %-wide range on the correlated column b
// AND a ~99 %-pass filter on the uniform column c, aggregating the
// clustered a. Driving by c touches every involved column in every
// block; driving by b lets the zones prune nearly all of them.
func driverWorkload(tb testing.TB, n int) (*Table, []query.Conjunction) {
	tbl, err := New("t", []string{"a", "b", "c"}, data.MultiColumn(n, 3, 1234), Options{
		Strategy: StrategyQuicksort, Delta: 0.25, Encoding: encode.ModeFORBP,
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
			Aggs:   column.AggSum | column.AggCount,
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

// unprunableWorkload is the workload of the admission test for
// conjunctions answered from a progressive index (ROADMAP items 19 and
// 25(b)). The table is the correlated four-column one, FOR-bit-packed
// and served at one worker. Each of its 64 conjunctions is a range 1 %
// of the domain wide on each of the two uniform columns, c ∈ [x, x+w]
// AND d ∈ [y, y+w], aggregating the clustered a. No zone prunes a
// uniform column, so every conjunction scans every block, while the
// rows of its driver's range are 1 % of them.
func unprunableWorkload(tb testing.TB, n int) (*Table, []query.Conjunction, []int64) {
	flat := data.MultiColumn(n, 4, 1234)
	tbl, err := New("t", []string{"a", "b", "c", "d"}, flat, Options{
		Strategy: StrategyQuicksort, Delta: 0.25, Encoding: encode.ModeFORBP, Workers: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	w := int64(n / 100)
	rng := rand.New(rand.NewSource(19))
	conjs := make([]query.Conjunction, 64)
	for i := range conjs {
		x, y := rng.Int63n(int64(n)-w), rng.Int63n(int64(n)-w)
		conjs[i] = query.Conjunction{
			Preds: []query.ColPredicate{
				{Col: "c", Pred: query.Range(x, x+w)},
				{Col: "d", Pred: query.Range(y, y+w)},
			},
			Target: "a",
			Aggs:   column.AggSum | column.AggCount,
		}
	}
	return tbl, conjs, flat
}

// scanCounts sums what the fused scan reports in ExplainConj's Choice.
type scanCounts struct{ scanned, pruned, driver, matched int64 }

func (sc *scanCounts) add(ch Choice) {
	sc.scanned += int64(ch.ScannedBlocks)
	sc.pruned += int64(ch.PrunedBlocks)
	sc.driver += ch.DriverRows
	sc.matched += ch.MatchedRows
}

// TestConjUnprunableCounts pins what the fused scan does on the
// admission workload, on 2^16 rows; the counters are exact. Every block
// of every conjunction is scanned (16 a conjunction, none pruned), the
// drivers' ranges hold 41 903 of the 4 194 304 rows examined (1.0 %, so
// the scan examines 100× the rows of its driver's range), and 433 rows
// match, 9 687 rows examined each. The answers are the oracle's.
func TestConjUnprunableCounts(t *testing.T) {
	const n = 1 << 16
	tbl, conjs, flat := unprunableWorkload(t, n)
	cols, names := oracle.Columns(flat, 4), []string{"a", "b", "c", "d"}
	var sc scanCounts
	for _, c := range conjs {
		ans, ch, err := tbl.ExplainConj(c, "")
		if err != nil {
			t.Fatal(err)
		}
		if want := oracle.Conj(cols, names, c); !sameAnswer(ans, want) {
			t.Fatalf("%s:\n got %+v\nwant %+v", c, ans, want)
		}
		sc.add(ch)
	}
	if want := (scanCounts{scanned: 64 * n / shard.BlockRows, driver: 41_903, matched: 433}); sc != want {
		t.Errorf("the fused scan reports %+v, want %+v", sc, want)
	}
}

// BenchmarkConjUnprunable is the admission test of ROADMAP item 19, on
// 2^20 rows. It reports the time per table row, the rows examined per
// matching row, and the share of the table's rows that the drivers'
// ranges hold. The variant is admitted if the rows examined exceed 20×
// the rows of the driver's range, that is, if driver_share is below
// 1/20 while every block is scanned:
// go test -run '^$' -bench ConjUnprunable ./internal/plan
func BenchmarkConjUnprunable(b *testing.B) {
	const n = 1 << 20
	tbl, conjs, _ := unprunableWorkload(b, n)
	var sc scanCounts
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ch, err := tbl.ExplainConj(conjs[i%len(conjs)], "")
		if err != nil {
			b.Fatal(err)
		}
		sc.add(ch)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
	b.ReportMetric(float64(sc.scanned*shard.BlockRows)/float64(max(sc.matched, 1)), "examined/match")
	b.ReportMetric(float64(sc.driver)/float64(sc.scanned*shard.BlockRows), "driver_share")
}
