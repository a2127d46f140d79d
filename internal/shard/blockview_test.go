package shard

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/column"
	"repro/internal/data"
	"repro/internal/encode"
	"repro/internal/oracle"
	"repro/internal/query"
)

// checkBlockView requires the current view's blocks to be the table's
// rows: cut on a grid local to every shard and to the tail, each block
// with its true extrema, Refine and AggMasked agreeing with a scan of
// the materialized rows.
func checkBlockView(t *testing.T, sh *Sharded, when string) {
	t.Helper()
	rows, bv := sh.MaterializeRows(), sh.BlockView()
	var want []int // block lengths: every shard's, then the tail's
	for _, si := range sh.ShardStats() {
		for left := si.Rows; left > 0; left -= BlockRows {
			want = append(want, min(left, BlockRows))
		}
	}
	for left := sh.PendingRows(); left > 0; left -= BlockRows {
		want = append(want, min(left, BlockRows))
	}
	off := 0
	var mask [BlockRows / 64]uint64
	for b := range bv {
		blk := &bv[b]
		if b >= len(want) || blk.Len() != want[b] {
			t.Fatalf("%s: block %d has %d rows, grid wants %v", when, b, blk.Len(), want)
		}
		part := rows[off : off+blk.Len()]
		off += blk.Len()
		if mn, mx := column.MinMax(part); blk.Min != mn || blk.Max != mx {
			t.Fatalf("%s: block %d zone [%d, %d], rows span [%d, %d]", when, b, blk.Min, blk.Max, mn, mx)
		}
		lo, hi := blk.Min+(blk.Max-blk.Min)/4, blk.Max-(blk.Max-blk.Min)/4
		column.FillMask(mask[:], blk.Len())
		want := oracle.Agg(part, query.Range(lo, hi))
		if live := blk.Refine(lo, hi, mask[:]); int64(live) != want.Count {
			t.Fatalf("%s: block %d Refine(%d, %d) keeps %d rows, want %d", when, b, lo, hi, live, want.Count)
		}
		if got := blk.AggMasked(mask[:], column.AggAll); got != want {
			t.Fatalf("%s: block %d AggMasked = %+v, want %+v", when, b, got, want)
		}
	}
	if off != len(rows) || len(bv) != len(want) {
		t.Fatalf("%s: %d blocks cover %d rows, want %d covering %d", when, len(bv), off, len(want), len(rows))
	}
}

// TestBlockViewMatchesRows walks a table through every form its rows
// take — loaded raw, cold, claimed, pending in the tail (across views,
// so cached tail zones are reused and extended), sealed and merged —
// and checks the block view against MaterializeRows at each point.
func TestBlockViewMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := func(n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = rng.Int63n(1 << 20)
		}
		return out
	}
	for _, mode := range []encode.Mode{encode.ModeRaw, encode.ModeFORBP, encode.ModeAuto} {
		sh, err := New(column.MustNew(vals(2*BlockRows+100)), Config{Shards: 2, Workers: 1, SealRows: 3 * BlockRows, Encoding: mode}, stubFactory(1))
		if err != nil {
			t.Fatal(err)
		}
		checkBlockView(t, sh, mode.String()+" loaded")
		if packed := sh.BlockView()[0].Packed(); packed != mode.Compressed() {
			t.Fatalf("%v: loaded block packed=%v", mode, packed)
		}
		for i := 0; i < 5; i++ { // the tail grows past a block boundary, view by view
			if err := sh.Append(vals(BlockRows/2 + 7)); err != nil {
				t.Fatal(err)
			}
			checkBlockView(t, sh, mode.String()+" tail")
		}
		if sh.PendingRows() <= 2*BlockRows {
			t.Fatalf("%v: tail holds %d rows, want more than two blocks", mode, sh.PendingRows())
		}
		for i := 0; i < ClaimHeat+1; i++ { // lead queries: heat the cold shards, then claim one each
			if _, err := sh.Execute(query.Request{Pred: query.Range(0, 1<<20)}); err != nil {
				t.Fatal(err)
			}
			checkBlockView(t, sh, mode.String()+" claiming")
		}
		if mode.Compressed() && (sh.BlockView()[0].Packed() || sh.ShardStats()[0].Form != FormRaw) {
			t.Fatalf("%v: first shard not claimed", mode)
		}
		drain(t, sh) // flushes the tail: one more shard
		checkBlockView(t, sh, mode.String()+" flushed")
		if err := sh.Append(vals(3 * BlockRows)); err != nil { // a threshold seal
			t.Fatal(err)
		}
		checkBlockView(t, sh, mode.String()+" sealed")
	}
}

// TestColdShardBytes: the bytes a cold table reports (ShardStats) are
// the block form's. On the served benchmark's conj table — three
// columns, the first two tracking the row number — FOR-BP with a frame
// per block packs to under 6.5 B/row where a frame per shard took 7.6;
// a 1000-value 40-bit column under a forced dictionary stays within 5%
// of one whole-shard dictionary segment (1.25 B/row), because the
// shard's blocks share one dictionary. A claimed column that keeps row
// order holds its decoded rows beside its blocks until it settles, and
// reports both: what it reports grows by the live heap's growth over the
// claim, within 1 % (the stub index holds nothing of its own).
func TestColdShardBytes(t *testing.T) {
	coldBytes := func(vals []int64, mode encode.Mode) float64 {
		sh, err := New(column.MustNew(vals), Config{Workers: 1, Encoding: mode}, stubFactory(1))
		if err != nil {
			t.Fatal(err)
		}
		return float64(sh.ShardStats()[0].Bytes) / float64(len(vals))
	}
	const n, k = 1_000_000, 3
	flat := data.MultiColumn(n, k, 1)
	total := 0.0
	cols := make([][]int64, k)
	for c := range cols {
		cols[c] = make([]int64, n)
		for r := range cols[c] {
			cols[c][r] = flat[r*k+c]
		}
		total += coldBytes(cols[c], encode.ModeFORBP)
	}
	if total > 6.51 {
		t.Errorf("conj table: %.3f B/row cold, want the per-block 6.50", total)
	}

	col := cols[1]
	sh, err := New(column.MustNew(col), Config{Workers: 1, Encoding: encode.ModeFORBP}, stubFactory(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	sh.KeepRowOrder()
	cold, base := sh.ShardStats()[0].Bytes, liveHeap()
	for q := 0; q < ClaimHeat; q++ { // the last query claims
		if _, err := sh.Execute(query.Request{Pred: query.Range(0, 10)}); err != nil {
			t.Fatal(err)
		}
	}
	held, si := float64(liveHeap()-base), sh.ShardStats()[0]
	if grew := float64(si.Bytes - cold); si.Form != FormRaw || held < 0.99*grew || held > 1.01*grew {
		t.Errorf("claimed row-ordered column: the heap grew by %.0f B, what it reports by %.0f B: %+v", held, grew, si)
	}
	runtime.KeepAlive(sh)
	runtime.KeepAlive(col)

	rng := rand.New(rand.NewSource(1))
	dict := make([]int64, 1000)
	for i := range dict {
		dict[i] = rng.Int63n(1 << 40)
	}
	lowcard := make([]int64, 1<<18)
	for i := range lowcard {
		lowcard[i] = dict[rng.Intn(len(dict))]
	}
	mn, mx := column.MinMax(lowcard)
	whole, err := encode.New(lowcard, mn, mx, encode.ModeDict)
	if err != nil {
		t.Fatal(err)
	}
	if got := coldBytes(slices.Clone(lowcard), encode.ModeDict); got > 1.05*whole.BytesPerRow() {
		t.Errorf("low-cardinality column: %.3f B/row cold, one segment takes %.3f", got, whole.BytesPerRow())
	}
}

// TestFailedClaimKeepsShardCold: a claim whose build fails — here the
// column it would index refuses the shard's zone, which the test widens
// past the legal domain — leaves the shard cold and exact, reports why,
// and is never decoded for a claim again, while its neighbours are still
// claimed.
func TestFailedClaimKeepsShardCold(t *testing.T) {
	logical := clustered(100)
	sh, err := New(column.MustNew(slices.Clone(logical)), Config{Shards: 2, Workers: 1, Encoding: encode.ModeFORBP}, stubFactory(1))
	if err != nil {
		t.Fatal(err)
	}
	failing := sh.cur.Load().shards[0]
	failing.min = -column.MaxMagnitude
	var failure *error
	for i := 0; i < ClaimHeat+8; i++ {
		ans, err := sh.Execute(query.Request{Pred: query.Range(10, 90), Aggs: column.AggAll})
		if want := oracle.Agg(logical, query.Range(10, 90)); err != nil || query.AnswerAgg(ans) != want {
			t.Fatalf("query %d: %+v err=%v, want %+v", i, ans, err, want)
		}
		sh.ClaimHot()
		if errp := failing.claimErr.Load(); failure == nil {
			failure = errp
		} else if errp != failure {
			t.Fatalf("query %d: the failed claim was tried again", i)
		}
	}
	st := sh.ShardStats()
	if failure == nil || st[0].ClaimError == "" || st[0].Form != FormCold || st[0].Encoding != "forbp" || !st[0].Converged {
		t.Fatalf("the failing shard: %+v", st[0])
	}
	if st[1].ClaimError != "" || st[1].Form != FormRaw {
		t.Fatalf("the healthy shard was not claimed: %+v", st[1])
	}
}
