package plan

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/column"
	"repro/internal/encode"
	"repro/internal/query"
	"repro/internal/shard"
)

// genTuples builds a k-column test table with planner-relevant shape:
// column 0 is clustered (values correlate with row position, so zone
// maps prune it well), column 2 is low-cardinality (64 distinct values,
// so the automatic encoding picks dictionary blocks), the others are
// uniform over [0, n).
func genTuples(n, k int, seed int64) [][]int64 {
	rng := rand.New(rand.NewSource(seed))
	cols := make([][]int64, k)
	for c := range cols {
		cols[c] = make([]int64, n)
		for i := 0; i < n; i++ {
			switch c {
			case 0:
				noise := int64(n/100) + 1
				cols[c][i] = int64(i) + rng.Int63n(2*noise+1) - noise
			case 2:
				cols[c][i] = int64(rng.Intn(64)) * int64(n/64)
			default:
				cols[c][i] = rng.Int63n(int64(n))
			}
		}
	}
	return cols
}

// testEncodings is every storage mode the planner tests sweep.
var testEncodings = []encode.Mode{
	encode.ModeRaw, encode.ModeFORBP, encode.ModeDict, encode.ModeAuto,
}

func flatten(cols [][]int64, from, to int) []int64 {
	k := len(cols)
	flat := make([]int64, 0, (to-from)*k)
	for r := from; r < to; r++ {
		for c := 0; c < k; c++ {
			flat = append(flat, cols[c][r])
		}
	}
	return flat
}

// oracleConj is the branching full-scan oracle: evaluate every
// predicate on every row, aggregate the target values of the rows that
// pass all of them.
func oracleConj(cols [][]int64, names []string, rows int, c query.Conjunction) query.Answer {
	byName := map[string]int{}
	for i, n := range names {
		byName[n] = i
	}
	target := c.TargetCol()
	if target == "" {
		target = names[0]
	}
	aggs := c.Aggs.Normalize()
	agg := column.NewAgg()
	for r := 0; r < rows; r++ {
		ok := true
		for _, cp := range c.Preds {
			col := cp.Col
			if col == "" {
				col = names[0]
			}
			if !cp.Pred.Matches(cols[byName[col]][r]) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		v := cols[byName[target]][r]
		agg.Sum += v
		agg.Count++
		if v < agg.Min {
			agg.Min = v
		}
		if v > agg.Max {
			agg.Max = v
		}
	}
	return query.NewAnswer(agg, aggs, query.Stats{})
}

func sameAnswer(a, b query.Answer) bool {
	if a.Count != b.Count {
		return false
	}
	if a.Aggs.Has(column.AggSum) && a.Sum != b.Sum {
		return false
	}
	av, aok := a.MinOk()
	bv, bok := b.MinOk()
	if aok != bok || (aok && av != bv) {
		return false
	}
	av, aok = a.MaxOk()
	bv, bok = b.MaxOk()
	if aok != bok || (aok && av != bv) {
		return false
	}
	af, aok2 := a.AvgOk()
	bf, bok2 := b.AvgOk()
	if aok2 != bok2 || (aok2 && af != bf) {
		return false
	}
	return true
}

// randomConj builds a random conjunction over 1..k distinct columns
// with mixed predicate kinds, a random target, and a random aggregate
// set.
func randomConj(rng *rand.Rand, names []string, n int64) query.Conjunction {
	perm := rng.Perm(len(names))
	np := 1 + rng.Intn(len(names))
	preds := make([]query.ColPredicate, 0, np)
	for _, ci := range perm[:np] {
		var p query.Predicate
		switch rng.Intn(5) {
		case 0:
			p = query.Point(rng.Int63n(n))
		case 1:
			p = query.AtLeast(rng.Int63n(n))
		case 2:
			p = query.AtMost(rng.Int63n(n))
		default:
			lo := rng.Int63n(n)
			p = query.Range(lo, lo+rng.Int63n(n/2+1))
		}
		preds = append(preds, query.ColPredicate{Col: names[ci], Pred: p})
	}
	aggsChoices := []column.Aggregates{
		0, // defaults to SUM+COUNT
		column.AggSum | column.AggCount,
		column.AggAll,
		column.AggMin | column.AggMax,
		column.AggCount,
	}
	return query.Conjunction{
		Preds:  preds,
		Target: names[rng.Intn(len(names))],
		Aggs:   aggsChoices[rng.Intn(len(aggsChoices))],
	}
}

// TestConjunctionsMatchOracle is the planner property test:
// conjunctions × aggregates × strategies × shard counts must answer
// bit-identically to the branching full-scan oracle, with appends
// interleaved mid-stream. A table of FS, a baseline, is refused at every
// shard count.
func TestConjunctionsMatchOracle(t *testing.T) {
	const (
		n       = 30_000
		k       = 3
		queries = 60
	)
	names := []string{"a", "b", "c"}
	strategies := []Strategy{
		StrategyQuicksort,
		StrategyRadixMSD,
		StrategyRadixLSD,
		StrategyFullScan,
	}
	for _, strat := range strategies {
		for _, shards := range []int{1, 3, 8} {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("%s/shards=%d/workers=%d", strat, shards, workers)
				t.Run(name, func(t *testing.T) {
					cols := genTuples(n, k, 11)
					loaded := n / 2
					tbl, err := New("t", names, flatten(cols, 0, loaded),
						Options{Strategy: strat, Delta: 0.25, Shards: shards, Workers: workers})
					if strat == StrategyFullScan {
						if err == nil || !strings.Contains(err.Error(), "cmd/experiments") {
							t.Fatalf("a table of %v: %v, want it refused", strat, err)
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(31))
					rows := loaded
					for q := 0; q < queries; q++ {
						// Interleave appends: grow the table by a random slice
						// every few queries until all rows are in.
						if q%5 == 1 && rows < n {
							grow := rows + 1 + rng.Intn(2000)
							if grow > n {
								grow = n
							}
							if err := tbl.Append(flatten(cols, rows, grow)); err != nil {
								t.Fatal(err)
							}
							rows = grow
						}
						c := randomConj(rng, names, int64(n))
						got, err := tbl.ExecuteConj(c)
						if err != nil {
							t.Fatalf("query %d (%s): %v", q, c, err)
						}
						want := oracleConj(cols, names, rows, c)
						if !sameAnswer(got, want) {
							t.Fatalf("query %d (%s) at %d rows:\n got %+v\nwant %+v", q, c, rows, got, want)
						}
					}
				})
			}
		}
	}
}

// TestDriverChoiceIrrelevantToAnswer pins the bit-identity property:
// for any conjunction, the planner's choice and every predicate column
// forced as the driver all yield exactly the oracle's answer — under
// every encoding and worker count, with appends interleaved so the scan
// always ends in a partial, unsealed tail block.
func TestDriverChoiceIrrelevantToAnswer(t *testing.T) {
	const n = 20_000
	names := []string{"a", "b", "c"}
	cols := genTuples(n, 3, 5)
	for _, enc := range testEncodings {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", enc, workers), func(t *testing.T) {
				rows := n/2 + 7
				tbl, err := New("t", names, flatten(cols, 0, rows),
					Options{Strategy: StrategyQuicksort, Delta: 0.25, Encoding: enc, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(7))
				for q := 0; q < 40; q++ {
					if q%4 == 1 && rows < n {
						grow := min(n, rows+1+rng.Intn(1500))
						if err := tbl.Append(flatten(cols, rows, grow)); err != nil {
							t.Fatal(err)
						}
						rows = grow
					}
					c := randomConj(rng, names, n)
					want := oracleConj(cols, names, rows, c)
					planned, _, err := tbl.ExplainConj(c, "")
					if err != nil {
						t.Fatal(err)
					}
					if !sameAnswer(planned, want) {
						t.Fatalf("planned answer diverges for %s at %d rows:\n got %+v\nwant %+v", c, rows, planned, want)
					}
					for _, cp := range c.Preds {
						forcedAns, ch, err := tbl.ExplainConj(c, cp.Col)
						if err != nil {
							t.Fatal(err)
						}
						if ch.Driver != cp.Col || !ch.Forced {
							t.Fatalf("forced driver not honored: %+v", ch)
						}
						if !sameAnswer(forcedAns, want) {
							t.Fatalf("driver %s diverges for %s at %d rows:\n got %+v\nwant %+v", cp.Col, c, rows, forcedAns, want)
						}
					}
				}
			})
		}
	}
}

// claimedShards counts the shards of column col that are not cold: on a
// compressed table, the ones a claim has decoded and indexed, whether
// they still hold the decoded rows or have settled since.
func claimedShards(tbl *Table, col int) int {
	n := 0
	for _, si := range tbl.cols[col].idx.ShardStats() {
		if si.Form != "cold" {
			n++
		}
	}
	return n
}

// directConj is a direct-route conjunction on col: one predicate on the
// aggregate target, or none at all.
func directConj(rng *rand.Rand, col string, n int64) query.Conjunction {
	c := query.Conjunction{Target: col, Aggs: column.AggAll}
	if rng.Intn(3) > 0 {
		lo := rng.Int63n(n)
		c.Preds = []query.ColPredicate{{Col: col, Pred: query.Range(lo, lo+rng.Int63n(n/4+1))}}
	}
	return c
}

// TestCompressedColumnsMatchOracle walks a compressed table through the
// cold → claim lifecycle of its columns' shards. Columns are born cold
// — no index, the packed blocks their only copy, every query a scan
// over them — and report the terminal state a cold shard does until
// rows are appended: those ride raw in the tail, pending, until a seal.
// Direct-route and composite answers must match the oracle before the
// claim, on the batch that triggers it and after it, with appends
// interleaved; and the Handle surface the catalog, scheduler and
// checkpoints drive (MaterializeRows, PendingRows, Append, Progress,
// Phase) must be correct while a column has no index.
func TestCompressedColumnsMatchOracle(t *testing.T) {
	const (
		n         = 25_000
		claimHeat = 5
	)
	names := []string{"a", "b", "c"}
	cols := genTuples(n, 3, 13)
	for _, enc := range testEncodings[1:] {
		t.Run(enc.String(), func(t *testing.T) {
			rows := n/2 + 11
			tbl, err := New("t", names, flatten(cols, 0, rows), Options{
				Strategy: StrategyQuicksort, Delta: 0.25, Shards: 2, Encoding: enc, ClaimHeat: claimHeat})
			if err != nil {
				t.Fatal(err)
			}
			if st := tbl.ColumnStates()[0]; st.EncodedBlocks == 0 || st.EncodedBlocks != st.Blocks {
				t.Fatalf("%d of %d blocks encoded on a loaded compressed table", st.EncodedBlocks, st.Blocks)
			}
			// checkCold: no shard claimed, and the table terminal exactly
			// when no appended row is waiting in the tail.
			checkCold := func(when string) {
				t.Helper()
				for i, cs := range tbl.cols {
					if claimedShards(tbl, i) != 0 {
						t.Fatalf("%s: column %q has a claimed shard, want cold", when, cs.name)
					}
				}
				sealed := tbl.PendingRows() == 0
				if p := tbl.Phase(); tbl.Converged() != sealed || (tbl.Progress() == 1) != sealed || (p == query.PhaseDone) != sealed {
					t.Fatalf("%s: cold table with %d pending rows reports converged=%v progress=%g phase=%v",
						when, tbl.PendingRows(), tbl.Converged(), tbl.Progress(), p)
				}
				if got, want := tbl.MaterializeRows(), flatten(cols, 0, rows); !slices.Equal(got, want) {
					t.Fatalf("%s: MaterializeRows of a cold table differs from the %d loaded rows", when, rows)
				}
			}
			check := func(c query.Conjunction) {
				t.Helper()
				got, err := tbl.ExecuteConj(c)
				if err != nil {
					t.Fatal(err)
				}
				if want := oracleConj(cols, names, rows, c); !sameAnswer(got, want) {
					t.Fatalf("%s at %d rows:\n got %+v\nwant %+v", c, rows, got, want)
				}
			}
			grow := func(rng *rand.Rand) {
				t.Helper()
				to := min(n, rows+1+rng.Intn(3000))
				if err := tbl.Append(flatten(cols, rows, to)); err != nil {
					t.Fatal(err)
				}
				rows = to
			}

			// Composite queries heat every column but claim none of them:
			// an index would not have served them.
			rng := rand.New(rand.NewSource(3))
			checkCold("at birth")
			if tbl.PendingRows() != 0 {
				t.Fatal("pending rows on a loaded table")
			}
			for q := 0; q < 3*claimHeat; q++ {
				if q%4 == 1 {
					// Below the seal threshold the rows ride raw in the tail, and
					// the table owes their seal, until a batch's spare δ (or an
					// idle slice) flushes every column's.
					grow(rng)
					if tbl.PendingRows() == 0 || tbl.Converged() {
						t.Fatalf("after an append: %d pending rows, converged=%v", tbl.PendingRows(), tbl.Converged())
					}
				}
				c := randomConj(rng, names, n)
				if len(c.Preds) == 1 {
					c.Target = names[(tbl.byName[c.Preds[0].Col]+1)%len(names)]
				}
				check(c)
			}
			checkCold("after composite queries and appends")

			// Direct-route queries on b: its shards' cold scans up to the
			// threshold, the first claim on the batch that reaches it (one
			// shard a batch), the shards' own indexes afterwards.
			for q := 0; q < 3*claimHeat; q++ {
				if q%3 == 1 {
					grow(rng)
				}
				check(directConj(rng, "b", n))
				// b is uniform: no direct query prunes its first loaded shard.
				// (A tail-born shard inherits the heat of the shards it
				// absorbed and may be claimed sooner.)
				if si := tbl.cols[1].idx.ShardStats()[0]; si.Heat < uint64(q+1) || (si.Form != "cold") != (si.Heat >= claimHeat) {
					t.Fatalf("after %d direct queries (threshold %d): first shard %+v", q+1, claimHeat, si)
				}
				check(randomConj(rng, names, n))
			}
			if claimedShards(tbl, 0) != 0 || claimedShards(tbl, 2) != 0 {
				t.Fatal("columns that served no direct-route query were claimed")
			}
			if si := tbl.cols[1].idx.ShardStats(); si[0].Form == "cold" || si[1].Form == "cold" {
				t.Fatalf("b's loaded shards not both claimed: %+v", si[:2])
			}
			// Claimed or cold, the direct route is the column's own table:
			// no block of the planner's is scanned, and a cold shard's scan
			// is what heats it.
			heatBefore := tbl.cols[0].idx.ShardStats()[0].Heat
			for _, col := range []string{"b", "a"} {
				c := query.Conjunction{Target: col, Aggs: column.AggAll}
				got, ch, err := tbl.ExplainConj(c, "")
				if err != nil || !ch.Direct || ch.ScannedBlocks != 0 {
					t.Fatalf("column %s's direct route did not reach its own table: %+v, %v", col, ch, err)
				}
				if want := oracleConj(cols, names, rows, c); !sameAnswer(got, want) {
					t.Fatalf("direct on %s:\n got %+v\nwant %+v", col, got, want)
				}
			}
			if heat := tbl.cols[0].idx.ShardStats()[0].Heat; heat != heatBefore+1 {
				t.Fatalf("cold direct query moved its shard's heat %d → %d", heatBefore, heat)
			}
			grow(rng)
			if got, want := tbl.MaterializeRows(), flatten(cols, 0, rows); !slices.Equal(got, want) {
				t.Fatal("MaterializeRows differs after the claim")
			}

			// The claimed shards converge under the table's δ like any
			// raw-mode column's, then the idle flush seals the tail on every
			// column together; the cold shards stay terminal.
			for i := 0; i < 400 && !tbl.Converged(); i++ {
				check(directConj(rng, "b", n))
			}
			if !tbl.Converged() || tbl.PendingRows() != 0 {
				t.Fatalf("claimed column did not converge (%d rows pending)", tbl.PendingRows())
			}
			if got, want := tbl.MaterializeRows(), flatten(cols, 0, rows); !slices.Equal(got, want) {
				t.Fatal("MaterializeRows differs after the flush")
			}
		})
	}
}

// TestConcurrentClaim races everything that can meet a cold → claim
// transition: direct-route and composite queries from several
// goroutines (each batch may claim), appends, and the lock-free status
// probes the scheduler polls. Appended rows lie above every queried
// range, so the loaded rows stay the oracle. Run under -race.
func TestConcurrentClaim(t *testing.T) {
	const n = 12_000
	names := []string{"a", "b", "c"}
	cols := genTuples(n, 3, 23)
	tbl, err := New("t", names, flatten(cols, 0, n), Options{
		Strategy: StrategyQuicksort, Delta: 0.25, Encoding: encode.ModeFORBP, ClaimHeat: 4})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var probes sync.WaitGroup
	probes.Add(2)
	go func() {
		defer probes.Done()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := tbl.Append([]int64{10*n + i, 10*n + i, 10*n + i}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer probes.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tbl.Progress()
			tbl.Converged()
			tbl.Phase()
			tbl.PendingRows()
			tbl.ColumnStates()
		}
	}()
	var queriers sync.WaitGroup
	for g := 0; g < 4; g++ {
		queriers.Add(1)
		go func(g int) {
			defer queriers.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for q := 0; q < 30; q++ {
				c := directConj(rng, names[g%len(names)], n)
				if q%2 == 1 {
					c = randomConj(rng, names, n)
				}
				if len(c.Preds) == 0 {
					continue // unconditional: would see the appended rows
				}
				for i, cp := range c.Preds {
					if cp.Pred.Kind == query.PredAtLeast {
						c.Preds[i].Pred = query.Range(cp.Pred.Lo, 2*n) // likewise
					}
				}
				got, err := tbl.ExecuteConj(c)
				if err != nil {
					t.Error(err)
					return
				}
				if want := oracleConj(cols, names, n, c); !sameAnswer(got, want) {
					t.Errorf("%s:\n got %+v\nwant %+v", c, got, want)
					return
				}
			}
		}(g)
	}
	queriers.Wait()
	close(stop)
	probes.Wait()
	claimed := 0
	for i := range tbl.cols {
		claimed += claimedShards(tbl, i)
	}
	if claimed == 0 {
		t.Fatal("no column was claimed")
	}
}

// TestNeverClaim: a negative ClaimHeat keeps compressed columns cold
// for life, like the shard layer's.
func TestNeverClaim(t *testing.T) {
	const n = 9_000
	names := []string{"a", "b"}
	cols := genTuples(n, 2, 17)
	tbl, err := New("t", names, flatten(cols, 0, n), Options{
		Strategy: StrategyQuicksort, Delta: 0.25, Encoding: encode.ModeFORBP, ClaimHeat: -1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for q := 0; q < 40; q++ {
		c := directConj(rng, "a", n)
		got, err := tbl.ExecuteConj(c)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleConj(cols, names, n, c); !sameAnswer(got, want) {
			t.Fatalf("%s:\n got %+v\nwant %+v", c, got, want)
		}
	}
	if claimedShards(tbl, 0) != 0 {
		t.Fatal("column claimed despite ClaimHeat < 0")
	}
}

// TestOutOfDomainRejectedAtomically: a value outside ±2^62 is refused
// by New and by Append under every encoding, and a refused batch leaves
// every column untouched, including the columns ahead of the bad value
// and a last block one row short of full.
func TestOutOfDomainRejectedAtomically(t *testing.T) {
	const n = shard.BlockRows - 1 // the next accepted row would fill the block
	names := []string{"a", "b"}
	cols := genTuples(n+1, 2, 29)
	for _, enc := range []encode.Mode{encode.ModeRaw, encode.ModeFORBP, encode.ModeDict, encode.ModeAuto} {
		t.Run(enc.String(), func(t *testing.T) {
			opts := Options{Strategy: StrategyQuicksort, Delta: 0.25, Encoding: enc}
			for _, bad := range []int64{1 << 62, -(1 << 62), math.MaxInt64, math.MinInt64} {
				if _, err := New("t", names, []int64{1, bad}, opts); err == nil {
					t.Fatalf("New accepted %d", bad)
				}
			}
			tbl, err := New("t", names, flatten(cols, 0, n), opts)
			if err != nil {
				t.Fatal(err)
			}
			before := tbl.MaterializeRows()
			for _, bad := range []int64{1 << 62, -(1 << 62)} {
				// The bad value sits in the last column of the last row: every
				// earlier value of the batch is fine.
				if err := tbl.Append([]int64{7, 8, 9, bad}); err == nil {
					t.Fatalf("Append accepted %d", bad)
				}
			}
			if got := tbl.MaterializeRows(); !slices.Equal(got, before) {
				t.Fatalf("rejected append changed the table: %d → %d values", len(before), len(got))
			}
			// The table still ingests — the row rides in every column's tail,
			// a block of its own — and answers exactly.
			if err := tbl.Append(flatten(cols, n, n+1)); err != nil {
				t.Fatal(err)
			}
			for i, st := range tbl.ColumnStates() {
				if st.Rows != n+1 || st.Blocks != 2 || tbl.PendingRows() != 1 {
					t.Fatalf("column %d: %d rows in %d blocks, %d pending after the append", i, st.Rows, st.Blocks, tbl.PendingRows())
				}
			}
			c := query.Conjunction{Preds: []query.ColPredicate{
				{Col: "a", Pred: query.AtLeast(0)}, {Col: "b", Pred: query.AtLeast(0)}},
				Target: "a", Aggs: column.AggAll}
			got, err := tbl.ExecuteConj(c)
			if err != nil {
				t.Fatal(err)
			}
			if want := oracleConj(cols, names, n+1, c); !sameAnswer(got, want) {
				t.Fatalf("got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestBadOptionsRefusedAtNew: a cold table builds no index at load, so
// the load itself must refuse the options the later claim and seal
// would choke on — for a planned table and for a single-column handle
// alike (the shard layer proves them once for both).
func TestBadOptionsRefusedAtNew(t *testing.T) {
	flat := []int64{1, 2, 3, 4}
	for _, opts := range []Options{
		{Strategy: Strategy(99)},
		{Strategy: Strategy(99), Encoding: encode.ModeFORBP},
		{Strategy: StrategyQuicksort, Encoding: encode.Mode(99)},
	} {
		if _, err := New("t", []string{"a", "b"}, flat, opts); err == nil {
			t.Errorf("New accepted %+v", opts)
		}
		if _, err := NewColumn(column.MustNew(flat), opts); err == nil {
			t.Errorf("NewColumn accepted %+v", opts)
		}
	}
}

// TestFusedScanAllocs pins the fused scan's heap behavior: a fixed
// handful of per-query slices, nothing per block — a query that scans
// every block allocates exactly what one that scans a single block
// does.
func TestFusedScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under -race")
	}
	const n = 40 * shard.BlockRows
	names := []string{"a", "b", "c"}
	cols := genTuples(n, 3, 19)
	for _, enc := range testEncodings {
		tbl, err := New("t", names, flatten(cols, 0, n),
			Options{Strategy: StrategyQuicksort, Encoding: enc, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		conj := func(alo, ahi int64) query.Conjunction {
			return query.Conjunction{Target: "c", Aggs: column.AggAll, Preds: []query.ColPredicate{
				{Col: "a", Pred: query.Range(alo, ahi)},
				{Col: "b", Pred: query.AtLeast(n / 3)},
			}}
		}
		var perQuery [2]float64
		for i, c := range []query.Conjunction{conj(shard.BlockRows/2, shard.BlockRows/2+10), conj(0, n)} {
			_, ch, err := tbl.ExplainConj(c, "")
			if err != nil {
				t.Fatal(err)
			}
			if wantAll := i == 1; wantAll != (ch.PrunedBlocks == 0) || ch.ScannedBlocks == 0 {
				t.Fatalf("%v query %d: scanned %d, pruned %d blocks", enc, i, ch.ScannedBlocks, ch.PrunedBlocks)
			}
			perQuery[i] = testing.AllocsPerRun(20, func() { tbl.ExplainConj(c, "") })
		}
		if perQuery[0] != perQuery[1] || perQuery[1] > 12 {
			t.Fatalf("%v: %.0f allocs scanning one block, %.0f scanning all 40; want equal and <= 12", enc, perQuery[0], perQuery[1])
		}
	}
}

// TestOneColumnTableAllocs pins the one-column table at what the handle
// it replaced cost (the root package's TestShardedConvergedZeroAllocs): a
// converged table answers Execute — the direct route, decided before
// anything is allocated — with no allocation, zone misses included, and
// an n-request batch with its two result slices.
func TestOneColumnTableAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under -race")
	}
	const n = 3000
	for _, shards := range []int{0, 4} {
		tbl, err := New("t", []string{"v"}, genTuples(n, 1, 31)[0],
			Options{Strategy: StrategyQuicksort, Delta: 1, Shards: shards, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000 && !tbl.Converged(); i++ {
			tbl.RefineStep()
		}
		if !tbl.Converged() {
			t.Fatalf("%s did not converge", tbl.Name())
		}
		inRange := query.Request{Pred: query.Range(n/4, n/2), Aggs: column.AggAll}
		if allocs := testing.AllocsPerRun(100, func() { tbl.Execute(inRange) }); allocs != 0 {
			t.Errorf("%s converged Execute allocates %.1f/op, want 0", tbl.Name(), allocs)
		}
		miss := query.Request{Pred: query.Range(100*n, 200*n)}
		if allocs := testing.AllocsPerRun(100, func() { tbl.Execute(miss) }); allocs != 0 {
			t.Errorf("%s pruned Execute allocates %.1f/op, want 0", tbl.Name(), allocs)
		}
		one := []query.ColPredicate{{Pred: inRange.Pred}}
		batch := []query.Conjunction{{Preds: one, Aggs: column.AggAll}, {Preds: one}, {Target: "v"}}
		if allocs := testing.AllocsPerRun(100, func() { tbl.ExecuteConjBatch(batch, query.BatchOpts{}) }); allocs != 2 {
			t.Errorf("%s converged ExecuteConjBatch allocates %.1f/op, want 2 (answers and errors)", tbl.Name(), allocs)
		}
	}
}

// TestSingleColumnCompat drives the v1 Handle surface (Execute)
// against a multi-column table: plain requests
// address the first column.
func TestSingleColumnCompat(t *testing.T) {
	const n = 10_000
	names := []string{"a", "b"}
	cols := genTuples(n, 2, 23)
	tbl, err := New("t", names, flatten(cols, 0, n), Options{Strategy: StrategyQuicksort, Delta: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for q := 0; q < 30; q++ {
		lo := rng.Int63n(n)
		hi := lo + rng.Int63n(n/3+1)
		req := query.Request{Pred: query.Range(lo, hi), Aggs: column.AggAll}
		got, err := tbl.Execute(req)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleConj(cols, names, n, query.Conjunction{
			Preds: []query.ColPredicate{{Col: "a", Pred: req.Pred}}, Target: "a", Aggs: req.Aggs,
		})
		if !sameAnswer(got, want) {
			t.Fatalf("Execute diverges at [%d,%d]:\n got %+v\nwant %+v", lo, hi, got, want)
		}
	}
	// Repeated execution must converge the first column (the only one
	// touched) and Progress must rise.
	for i := 0; i < 400 && !tbl.cols[0].idx.Converged(); i++ {
		if _, err := tbl.Execute(query.Request{Pred: query.Range(0, n)}); err != nil {
			t.Fatal(err)
		}
	}
	if !tbl.cols[0].idx.Converged() {
		t.Fatal("first column did not converge under repeated queries")
	}
	// Heat accounting: only the queried column accrued heat. (Cold
	// columns may still converge from leftover δ once the hot one is
	// done — that is the idle-refinement discipline, not a leak.)
	if tbl.cols[0].heat.Load() == 0 {
		t.Fatal("queried column accrued no heat")
	}
	if tbl.cols[1].heat.Load() != 0 {
		t.Fatalf("untouched column accrued heat %d", tbl.cols[1].heat.Load())
	}
}

// TestHeatSplitFavorsHotColumns: with all queries touching column b,
// refinement slices must flow to b, not a.
func TestHeatSplitFavorsHotColumns(t *testing.T) {
	const n = 8_000
	names := []string{"a", "b"}
	cols := genTuples(n, 2, 29)
	tbl, err := New("t", names, flatten(cols, 0, n), Options{Strategy: StrategyQuicksort, Delta: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 20; q++ {
		c := query.Conjunction{
			Preds:  []query.ColPredicate{{Col: "b", Pred: query.Range(0, n/4)}},
			Target: "b",
		}
		if _, err := tbl.ExecuteConj(c); err != nil {
			t.Fatal(err)
		}
	}
	a, b := tbl.cols[0], tbl.cols[1]
	if b.refines.Load() == 0 {
		t.Fatal("hot column b received no refine slices")
	}
	if a.refines.Load() > b.refines.Load() {
		t.Fatalf("cold column a out-refined hot column b: %d > %d", a.refines.Load(), b.refines.Load())
	}
}

// TestLeaderCarriesBudgetOnDirectRoute pins who spends a batch's δ. A
// leader on the direct route advances the column it reads inside its own
// pass, with no idle-style slice on any column afterwards; a batch led by
// a fused scan ends in exactly one RefineStep slice; a clamped batch
// spends nothing; and once the leader's column has converged the δ
// flows to the other one.
func TestLeaderCarriesBudgetOnDirectRoute(t *testing.T) {
	const n = 8_000
	names := []string{"a", "b"}
	cols := genTuples(n, 2, 31)
	tbl, err := New("t", names, flatten(cols, 0, n), Options{Strategy: StrategyQuicksort, Delta: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	a, b := tbl.cols[0], tbl.cols[1]
	// state is each column's granted slices and the idle-style slices
	// (RefineShard) its shards have taken.
	type state struct{ aGrants, bGrants, aSlices, bSlices uint64 }
	snap := func() state {
		st := state{aGrants: a.refines.Load(), bGrants: b.refines.Load()}
		for _, si := range a.idx.ShardStats() {
			st.aSlices += si.Refines
		}
		for _, si := range b.idx.ShardStats() {
			st.bSlices += si.Refines
		}
		return st
	}
	onB := query.Conjunction{Preds: []query.ColPredicate{{Col: "b", Pred: query.Range(0, n/4)}}, Target: "b"}
	fused := query.Conjunction{Preds: []query.ColPredicate{{Col: "a", Pred: query.Range(0, n/2)}, {Col: "b", Pred: query.AtLeast(n / 2)}}, Target: "a"}
	run := func(opts query.BatchOpts, conjs ...query.Conjunction) []query.Answer {
		t.Helper()
		answers, errs := tbl.ExecuteConjBatch(conjs, opts)
		for i, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
			if want := oracleConj(cols, names, n, conjs[i]); !sameAnswer(answers[i], want) {
				t.Fatalf("%s:\n got %+v\nwant %+v", conjs[i], answers[i], want)
			}
		}
		return answers
	}

	before, bProgress := snap(), b.idx.Progress()
	answers := run(query.BatchOpts{}, onB, fused, onB)
	if want := (state{bGrants: 1}); snap() != want || answers[0].Stats.Delta <= 0 || b.idx.Progress() <= bProgress {
		t.Fatalf("direct-led batch: %+v → %+v, leader δ %g, b's progress %g → %g; want b advanced by its leader alone",
			before, snap(), answers[0].Stats.Delta, bProgress, b.idx.Progress())
	}
	if answers[2].Stats.Delta > answers[0].Stats.Delta/100 {
		t.Fatalf("the follower on b did δ %g of work beside the leader's %g", answers[2].Stats.Delta, answers[0].Stats.Delta)
	}

	before = snap()
	answers = run(query.BatchOpts{}, fused, onB)
	after := snap()
	if after.aGrants+after.bGrants != before.aGrants+before.bGrants+1 || after.aSlices+after.bSlices != before.aSlices+before.bSlices+1 || answers[0].Stats.Delta <= 0 {
		t.Fatalf("scan-led batch: %+v → %+v, leader δ %g; want exactly one RefineStep on its account", before, after, answers[0].Stats.Delta)
	}

	before, bProgress = snap(), b.idx.Progress()
	run(query.BatchOpts{Clamp: true}, onB, fused)
	if snap() != before || b.idx.Progress()-bProgress > 1e-3 {
		t.Fatalf("clamped batch: %+v → %+v, b's progress %g → %g; want nothing spent", before, snap(), bProgress, b.idx.Progress())
	}

	for i := 0; i < 2_000 && !b.idx.Converged(); i++ {
		run(query.BatchOpts{}, onB)
	}
	if !b.idx.Converged() || a.idx.Converged() {
		t.Fatalf("after direct-led batches on b: b converged=%v, a converged=%v", b.idx.Converged(), a.idx.Converged())
	}
	before = snap()
	run(query.BatchOpts{}, onB)
	if after := snap(); after.aGrants != before.aGrants+1 || after.aSlices != before.aSlices+1 || after.bGrants != before.bGrants {
		t.Fatalf("direct-led batch on converged b: %+v → %+v; want the δ to reach a", before, after)
	}
}

// TestPlannerPicksSelectiveDriver: on clustered column a (tight zone
// maps) vs uniform column b, a narrow range on a must drive.
func TestPlannerPicksSelectiveDriver(t *testing.T) {
	const n = 50_000
	names := []string{"a", "b"}
	cols := genTuples(n, 2, 41)
	tbl, err := New("t", names, flatten(cols, 0, n), Options{Strategy: StrategyQuicksort, Delta: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	c := query.Conjunction{
		Preds: []query.ColPredicate{
			{Col: "b", Pred: query.Range(0, n/2)},           // ~50% of a uniform column
			{Col: "a", Pred: query.Range(1000, 1000+n/200)}, // ~0.5%, zone-prunable
		},
		Target: "b",
	}
	_, ch, err := tbl.ExplainConj(c, "")
	if err != nil {
		t.Fatal(err)
	}
	if ch.Driver != "a" {
		t.Fatalf("planner chose %q as driver, want clustered selective column a; candidates %+v", ch.Driver, ch.Candidates)
	}
	if ch.PrunedBlocks == 0 {
		t.Fatalf("no blocks pruned driving with a clustered column: %+v", ch)
	}
}

// TestValidateRejectsDuplicates pins Conjunction.Validate.
func TestValidateRejectsDuplicates(t *testing.T) {
	c := query.Conjunction{Preds: []query.ColPredicate{
		{Col: "a", Pred: query.Point(1)},
		{Col: "a", Pred: query.Point(2)},
	}}
	if err := c.Validate(); err == nil {
		t.Fatal("duplicate column predicates not rejected")
	}
	tbl, err := New("t", []string{"a"}, []int64{1, 2, 3}, Options{Strategy: StrategyQuicksort})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.ExecuteConj(c); err == nil {
		t.Fatal("table accepted duplicate-column conjunction")
	}
	if _, err := tbl.ExecuteConj(query.Conjunction{
		Preds: []query.ColPredicate{{Col: "zz", Pred: query.Point(1)}},
	}); err == nil {
		t.Fatal("table accepted unknown column")
	}
}
