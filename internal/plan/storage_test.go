package plan

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/column"
	"repro/internal/data"
	"repro/internal/encode"
	"repro/internal/oracle"
	"repro/internal/query"
	"repro/internal/shard"
)

// TestColumnsStayInLockstep drives everything that moves a column's
// structure — appends of every size (threshold seals, merges), idle
// slices (refinement, then the table's flush), direct queries that heat
// cold shards into claims — while readers run conjunctions, each of
// whose batches ends in claims and a δ slice of its own. After every
// step all columns must hold the same shard row ranges, the same pending
// tail and row-aligned blocks, and every answer must match the oracle.
// The readers' conjunctions carry a range on a below the loaded rows'
// values (a tracks the row number), so the loaded rows stay their oracle
// while the table grows. A capturer takes snapshots, as a checkpoint
// does, and reads each back, and the one before it, while the table
// moves: both must be the first rows of the table's tuples. One column's
// shard then settles, slice by slice, under the same readers and the same
// checks. Run under -race.
func TestColumnsStayInLockstep(t *testing.T) {
	const (
		n      = 90_000
		loaded = 10_000
		stable = 9_000 // every row with a <= stable was loaded: |a - row| <= n/100+1
	)
	names := []string{"a", "b", "c"}
	cols := genTuples(n, 3, 37)
	for _, enc := range []encode.Mode{encode.ModeRaw, encode.ModeFORBP} {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/shards=%d", enc, shards), func(t *testing.T) {
				tbl, err := New("t", names, flatten(cols, 0, loaded), Options{
					Strategy: StrategyQuicksort, Delta: 0.25, Shards: shards, Encoding: enc})
				if err != nil {
					t.Fatal(err)
				}
				stop := make(chan struct{})
				var readers sync.WaitGroup
				for g := 0; g < 2; g++ {
					readers.Add(1)
					go func(g int) {
						defer readers.Done()
						rng := rand.New(rand.NewSource(int64(100 + g)))
						for {
							select {
							case <-stop:
								return
							default:
							}
							c := randomConj(rng, names, n)
							lo := rng.Int63n(stable)
							onA := query.ColPredicate{Col: "a", Pred: query.Range(lo, min(stable, lo+rng.Int63n(stable)))}
							if i := slices.IndexFunc(c.Preds, func(cp query.ColPredicate) bool { return cp.Col == "a" }); i >= 0 {
								c.Preds[i] = onA
							} else {
								c.Preds = append(c.Preds, onA)
							}
							got, err := tbl.ExecuteConj(c)
							if err != nil {
								t.Error(err)
								return
							}
							if want := oracle.Conj(head(cols, loaded), names, c); !sameAnswer(got, want) {
								t.Errorf("reader: %s:\n got %+v\nwant %+v", c, got, want)
								return
							}
						}
					}(g)
				}
				readers.Add(1)
				go func() {
					defer readers.Done()
					for prev := tbl.Snapshot(); ; {
						select {
						case <-stop:
							return
						default:
						}
						sn := tbl.Snapshot()
						for _, s := range []Snapshot{prev, sn} {
							var got []int64
							if err := s.Each(func(run []int64) error { got = append(got, run...); return nil }); err != nil {
								t.Error(err)
								return
							}
							if len(got) != s.Len() || !slices.Equal(got, flatten(cols, 0, len(got)/3)) {
								t.Errorf("a capture of %d values does not hold the table's first %d rows", s.Len(), len(got)/3)
								return
							}
						}
						prev = sn
					}
				}()

				rows := loaded
				rng := rand.New(rand.NewSource(5))
				for step := 0; step < 40 && !t.Failed(); step++ {
					switch op := rng.Intn(4); {
					case op < 2 && rows < n:
						to := min(n, rows+1+rng.Intn(9_000))
						if err := tbl.Append(flatten(cols, rows, to)); err != nil {
							t.Fatal(err)
						}
						rows = to
					case op == 2:
						for i := rng.Intn(6); i >= 0; i-- {
							tbl.RefineStep()
						}
					default:
						col := names[rng.Intn(len(names))]
						for i := 0; i < 4; i++ {
							c := directConj(rng, col, n)
							got, err := tbl.ExecuteConj(c)
							if err != nil {
								t.Fatal(err)
							}
							if want := oracle.Conj(head(cols, rows), names, c); !sameAnswer(got, want) {
								t.Fatalf("step %d: %s at %d rows:\n got %+v\nwant %+v", step, c, rows, got, want)
							}
						}
					}
					checkLockstep(t, tbl, rows)
					c := randomConj(rng, names, n)
					got, err := tbl.ExecuteConj(c)
					if err != nil {
						t.Fatal(err)
					}
					if want := oracle.Conj(head(cols, rows), names, c); !sameAnswer(got, want) {
						t.Fatalf("step %d: %s at %d rows:\n got %+v\nwant %+v", step, c, rows, got, want)
					}
				}
				// One column settles on its own, slice by slice — b is claimed
				// where it is cold, its indexes converge, their rows are packed —
				// while the readers keep ANDing its blocks with the others': a
				// settle moves no block boundary, so lockstep holds at every slice.
				b := tbl.cols[1].idx
				settled := func() bool {
					return slices.ContainsFunc(b.ShardStats(), func(si shard.Info) bool { return si.Form == "settled" })
				}
				for i := 0; i < 20_000 && !settled() && !t.Failed(); i++ {
					if _, ok := b.RefineShard(); !ok {
						if _, err := tbl.ExecuteConj(directConj(rng, "b", n)); err != nil {
							t.Fatal(err)
						}
					}
					checkLockstep(t, tbl, rows)
				}
				if !settled() {
					t.Fatalf("column b never settled a shard: %+v", b.ShardStats())
				}
				c := randomConj(rng, names, n)
				if got, err := tbl.ExecuteConj(c); err != nil || !sameAnswer(got, oracle.Conj(head(cols, rows), names, c)) {
					t.Fatalf("after b settled: %s at %d rows: got %+v err=%v", c, rows, got, err)
				}
				close(stop)
				readers.Wait()
				checkLockstep(t, tbl, rows)
			})
		}
	}
}

// checkLockstep compares every column's structure with the first's,
// under the table's read lock: a reader's batch may flush the tails at
// any moment, but only under the write lock.
func checkLockstep(t *testing.T, tbl *Table, rows int) {
	t.Helper()
	tbl.mu.RLock()
	defer tbl.mu.RUnlock()
	var shards0, blocks0 []int
	for i, cs := range tbl.cols {
		var shards, blocks []int
		covered := cs.idx.PendingRows()
		for _, si := range cs.idx.ShardStats() {
			shards = append(shards, si.Rows)
			covered += si.Rows
		}
		shards = append(shards, cs.idx.PendingRows()) // the tail, last
		for _, b := range cs.idx.BlockView() {
			blocks = append(blocks, b.Len())
		}
		if covered != rows {
			t.Fatalf("column %q covers %d rows, want %d", cs.name, covered, rows)
		}
		if i == 0 {
			shards0, blocks0 = shards, blocks
		} else if !slices.Equal(shards, shards0) || !slices.Equal(blocks, blocks0) {
			t.Fatalf("column %q out of lockstep with %q:\nshards+tail %v vs %v\nblocks %v vs %v",
				cs.name, tbl.cols[0].name, shards, shards0, blocks, blocks0)
		}
	}
}

// liveHeap forces a collection and returns the live heap.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestPlannedRowsStoredOnce pins what one storage layer is for: a
// planned table holds each column's rows in one place, in one form, and
// a row-ordered column's packed blocks beside it. Raw, that is the
// column's array (8 B/row) while it indexes, next to the blocks it
// packed at load (the FOR-BP table's figure) — where a second row store
// beside the shard layer made the array alone 16.5 — and, once
// converged and settled, the rows packed twice, per block in row order
// and sorted under the index's B+-tree (12.2 B/row over three columns
// on this data, where a raw sorted copy in each index made it 31.0 and
// keeping the arrays too 51). FOR-BP, the packed blocks are the loaded
// table, at the per-block figure (6.30 B/row over three columns, 6.61
// when each block's words took a size class of their own; a frame per
// whole shard would be 7.6), and a claim that has converged has traded
// one column's blocks for the same rows packed again and the index's
// packed leaves (7.51, 7.82 with a size class per block), not for a raw
// sorted copy (14.8), index and raw rows (21) nor a second store beside
// them (23.2).
func TestPlannedRowsStoredOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under -race")
	}
	const n = 1 << 18
	names := []string{"a", "b", "c"}
	flat := data.MultiColumn(n, len(names), 1)
	for _, tc := range []struct {
		enc                 encode.Mode
		loaded, afterDirect float64 // B/row over the three columns
	}{
		{encode.ModeRaw, 3*8 + 7.09 + 0.1, 12.2 + 0.5},
		{encode.ModeFORBP, 6.30 + 0.05, 7.51 + 0.05},
	} {
		base := liveHeap()
		tbl, err := New("t", names, flat, Options{
			Strategy: StrategyQuicksort, Delta: 0.25, Encoding: tc.enc, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if held := float64(liveHeap()-base) / n; held > tc.loaded || held < 6 {
			t.Errorf("%s: loaded table holds %.2f B/row, want 6 … %.2f", tc.enc, held, tc.loaded)
		}
		// Direct queries on b: they claim it where it is cold; idle slices
		// then converge and settle whatever indexes (all three raw columns,
		// b alone compressed).
		c := query.Conjunction{Target: "b", Aggs: column.AggAll, Preds: []query.ColPredicate{{Col: "b", Pred: query.Range(0, n)}}}
		for i := 0; i < shard.ClaimHeat; i++ {
			if _, err := tbl.ExecuteConj(c); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4000 && !tbl.Converged(); i++ {
			tbl.RefineStep()
		}
		if st := tbl.ColumnStates()[1]; !tbl.Converged() || st.EncodedBlocks != st.Blocks || st.Refines == 0 {
			t.Fatalf("%s: column b after direct queries and idle slices: converged=%v %+v", tc.enc, tbl.Converged(), st)
		}
		if held := float64(liveHeap()-base) / n; held > tc.afterDirect {
			t.Errorf("%s: converged table holds %.2f B/row, want <= %.2f", tc.enc, held, tc.afterDirect)
		}
		runtime.KeepAlive(tbl)
	}
	runtime.KeepAlive(flat)
}

// TestOneColumnTableServesItsLeaves: a converged one-column table holds
// its rows only as its shards' B+-tree leaves, and its block view is
// those leaves — ColumnStates counts them as the packed blocks they are,
// and a scan the planner is forced into reads them exactly.
func TestOneColumnTableServesItsLeaves(t *testing.T) {
	const n = 3*shard.BlockRows + 500
	names := []string{"a"}
	cols := genTuples(n, 1, 41)
	tbl, err := New("t", names, flatten(cols, 0, n), Options{Strategy: StrategyQuicksort, Delta: 0.25, Shards: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000 && !tbl.Converged(); i++ {
		tbl.RefineStep()
	}
	leaves := 0
	for _, si := range tbl.ShardStats() {
		if si.Form != "settled" {
			t.Fatalf("converged one-column table: %+v", si)
		}
		leaves += (si.Rows + shard.BlockRows - 1) / shard.BlockRows
	}
	if st := tbl.ColumnStates()[0]; !tbl.Converged() || st.Blocks != leaves || st.EncodedBlocks != leaves {
		t.Fatalf("column state %+v, want its %d leaf blocks, all packed", st, leaves)
	}
	rng := rand.New(rand.NewSource(42))
	for q := 0; q < 20; q++ {
		lo := rng.Int63n(n)
		c := query.Conjunction{Target: "a", Aggs: column.AggAll, Preds: []query.ColPredicate{{Col: "a", Pred: query.Range(lo, lo+rng.Int63n(n/4))}}}
		got, ch, err := tbl.ExplainConj(c, "a")
		if err != nil || ch.Direct || !sameAnswer(got, oracle.Conj(head(cols, n), names, c)) {
			t.Fatalf("%s through the leaf blocks: %+v direct=%v err=%v", c, got, ch.Direct, err)
		}
	}
}

var sinkTable *Table

// BenchmarkSettle is what a row-ordered table's settle costs, now that
// it is paid at load: plan.New of a raw three-column table, whose columns
// pack their loaded rows into FOR-BP blocks (shard.KeepRowOrder) beside
// the arrays their indexes are built over.
// go test -run '^$' -bench Settle -benchmem ./internal/plan
func BenchmarkSettle(b *testing.B) {
	const n = 1 << 20
	names := []string{"a", "b", "c"}
	flat := data.MultiColumn(n, len(names), 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl, err := New("t", names, flat, Options{Strategy: StrategyQuicksort, Delta: 0.25})
		if err != nil {
			b.Fatal(err)
		}
		sinkTable = tbl
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
}

// BenchmarkLoadFORBP is the conj workload's load: plan.New of a FOR-BP
// 1M×3 table, each column one cold shard whose blocks pack over the pool.
func BenchmarkLoadFORBP(b *testing.B) {
	const n = 1 << 20
	names := []string{"a", "b", "c"}
	flat := data.MultiColumn(n, len(names), 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl, err := New("t", names, flat, Options{Strategy: StrategyQuicksort, Delta: 0.25, Encoding: encode.ModeFORBP})
		if err != nil {
			b.Fatal(err)
		}
		sinkTable = tbl
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
}
