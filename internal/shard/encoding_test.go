package shard_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/oracle"
	"repro/internal/plan"
	"repro/internal/shard"
)

// TestEncodedAppendSealTrace drives the compressed ingest lifecycle:
// appends land in the raw pending tail, queries interleave against a
// growing oracle, and flushing seals the tail into compressed shards.
// Until the flush no shard has been queried shard.ClaimHeat times, so
// ShardStats must keep reporting the compressed encoding, and
// MaterializeRows — the only way back to the raw rows of a table that
// retains no raw column — must reproduce every row in original order.
func TestEncodedAppendSealTrace(t *testing.T) {
	vals := boundedColumn(3000, 33)
	h := newColumn(t, vals, plan.Options{Strategy: StrategyQuicksort, Delta: 0.5, Shards: 3, Encoding: EncodingFORBP})
	logical := append([]int64(nil), vals...)
	rng := rand.New(rand.NewSource(9))
	for batch := 0; batch < 40; batch++ {
		b := make([]int64, 50)
		for i := range b {
			b[i] = rng.Int63n(8000) - 4000
		}
		if err := h.Append(b); err != nil {
			t.Fatalf("append %d: %v", batch, err)
		}
		logical = append(logical, b...)
		if batch%4 != 3 {
			continue // ten queries in all, below the claim heat
		}
		p := Range(-2000, 2000)
		ans, err := h.Execute(Request{Pred: p, Aggs: AllAggregates})
		if err != nil {
			t.Fatalf("query after append %d: %v", batch, err)
		}
		checkAnswer(t, "encoded-append", p, AllAggregates, ans, oracle.Agg(logical, p))
	}
	sh := h
	for i := 0; i < 200 && sh.PendingRows() > 0; i++ {
		sh.RefineStep()
	}
	if sh.PendingRows() != 0 {
		t.Fatalf("pending tail did not flush: %d rows left", sh.PendingRows())
	}
	encoded := 0
	for i, si := range sh.ShardStats() {
		switch si.Encoding {
		case "forbp":
			encoded++
			if si.Bytes <= 0 || si.Bytes >= 8*si.Rows {
				t.Errorf("shard %d: resident_bytes %d not compressed for %d rows", i, si.Bytes, si.Rows)
			}
		case "raw":
			t.Errorf("shard %d decoded to raw below the claim heat", i)
		}
	}
	if encoded == 0 {
		t.Error("no shard reports a compressed encoding after seal")
	}
	if got := sh.MaterializeRows(); !reflect.DeepEqual(got, logical) {
		t.Fatalf("MaterializeRows: %d rows, want %d, or order diverged", len(got), len(logical))
	}
	for pi, p := range predicatePool(rng, logical) {
		aggs := aggMaskPool[pi%len(aggMaskPool)]
		ans, err := sh.Execute(Request{Pred: p, Aggs: aggs})
		if err != nil {
			t.Fatalf("post-seal Execute(%v): %v", p, err)
		}
		checkAnswer(t, "encoded-sealed", p, aggs, ans, oracle.Agg(logical, p))
	}
}

// TestEncodedColdZeroAllocs pins the compressed steady state the same
// way TestShardedConvergedZeroAllocs pins the raw one: a cold segment is
// converged from birth, so its Execute path — predicate clamp, FOR-space
// rewrite, packed scan, Answer shaping — must not allocate per query, for
// any aggregate mask, unsharded and sharded (the parallel fan-out
// necessarily allocates, so Workers stays 1). Each column takes fewer
// queries than shard.ClaimHeat, so no shard is claimed.
func TestEncodedColdZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	vals := boundedColumn(3000, 35)
	const runs = shard.ClaimHeat - 2 // AllocsPerRun adds a warm-up call
	for _, m := range []Aggregates{0, Sum, Min | Max, AllAggregates} {
		idx := newColumn(t, vals, plan.Options{Strategy: StrategyQuicksort, Encoding: EncodingFORBP, Workers: 1})
		req := Request{Pred: Range(-1000, 1000), Aggs: m}
		if allocs := testing.AllocsPerRun(runs, func() {
			if _, err := idx.Execute(req); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("cold unsharded Execute(%v) allocates %.1f/op, want 0", m, allocs)
		}
	}

	sh := newColumn(t, vals, plan.Options{Strategy: StrategyQuicksort, Shards: 4, Workers: 1, Encoding: EncodingFORBP})
	inRange := Request{Pred: Range(-1000, 1000), Aggs: AllAggregates}
	if allocs := testing.AllocsPerRun(runs, func() { sh.Execute(inRange) }); allocs != 0 {
		t.Errorf("cold sharded Execute allocates %.1f/op, want 0", allocs)
	}
	miss := Request{Pred: Range(8_000_000, 9_000_000)}
	if allocs := testing.AllocsPerRun(100, func() { sh.Execute(miss) }); allocs != 0 {
		t.Errorf("cold sharded pruned Execute allocates %.1f/op, want 0", allocs)
	}
	for i, si := range sh.ShardStats() {
		if si.Form != shard.FormCold {
			t.Fatalf("shard %d was claimed: %+v", i, si)
		}
	}
}
