package progidx

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/oracle"
)

// encodingPool is the storage-mode acceptance sweep: the raw baseline,
// the automatic selector, and both forced compressed encodings.
var encodingPool = []Encoding{EncodingRaw, EncodingAuto, EncodingFORBP, EncodingDict}

// TestEncodedMatchesOracle is the compressed-storage acceptance
// property test: every encoding × predicate kind × aggregate mask ×
// strategy × shard count must stay bit-identical to the branching
// oracle. The query volume deliberately exceeds the default claim heat,
// so sharded compressed runs cross the cold-scan → claim → progressive
// transition mid-test and the answers must not move through it.
func TestEncodedMatchesOracle(t *testing.T) {
	vals := testColumn(4000, 31)
	strategies := []Strategy{StrategyQuicksort, StrategyRadixLSD}
	for _, enc := range encodingPool {
		for _, strat := range strategies {
			for _, shards := range []int{1, 3, 8} {
				opts := Options{Strategy: strat, Delta: 0.3, Shards: shards, Encoding: enc, Seed: 5}
				var (
					idx Index
					err error
				)
				if shards > 1 {
					idx, err = NewHandle(vals, opts)
				} else {
					idx, err = New(vals, opts)
				}
				if err != nil {
					t.Fatalf("%v/%v shards=%d: %v", enc, strat, shards, err)
				}
				rng := rand.New(rand.NewSource(int64(enc)*101 + int64(strat)*31 + int64(shards)))
				for round := 0; round < 8; round++ {
					for pi, p := range predicatePool(rng, vals) {
						aggs := aggMaskPool[(round+pi)%len(aggMaskPool)]
						ans, err := idx.Execute(Request{Pred: p, Aggs: aggs})
						if err != nil {
							t.Fatalf("%v/%v shards=%d Execute(%v, %v): %v", enc, strat, shards, p, aggs, err)
						}
						checkAnswer(t, idx.Name(), p, aggs, ans, oracle.Agg(vals, p))
					}
				}
			}
		}
	}
}

// TestEncodedAppendSealTrace drives the compressed ingest lifecycle:
// appends land in the raw pending tail, queries interleave against a
// growing oracle, and flushing seals the tail into compressed shards.
// Claims are disabled (ClaimHeat < 0) so ShardStats must keep reporting
// the compressed encoding, and MaterializeRows — the only way back to
// the raw rows of a table that retains no raw column — must reproduce
// every row in original order.
func TestEncodedAppendSealTrace(t *testing.T) {
	vals := boundedColumn(3000, 33)
	h, err := NewHandle(vals, Options{
		Strategy: StrategyQuicksort, Delta: 0.5, Shards: 3,
		Encoding: EncodingFORBP, ClaimHeat: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
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
			t.Errorf("shard %d decoded to raw with claims disabled", i)
		}
	}
	if encoded == 0 {
		t.Error("no shard reports a compressed encoding after seal")
	}
	for pi, p := range predicatePool(rng, logical) {
		aggs := aggMaskPool[pi%len(aggMaskPool)]
		ans, err := sh.Execute(Request{Pred: p, Aggs: aggs})
		if err != nil {
			t.Fatalf("post-seal Execute(%v): %v", p, err)
		}
		checkAnswer(t, "encoded-sealed", p, aggs, ans, oracle.Agg(logical, p))
	}
	if got := sh.MaterializeRows(); !reflect.DeepEqual(got, logical) {
		t.Fatalf("MaterializeRows: %d rows, want %d, or order diverged", len(got), len(logical))
	}
}

// TestEncodedColdZeroAllocs pins the compressed steady state the same
// way alloc_test.go pins the raw one: a cold segment is converged from
// birth, so its Execute path — predicate clamp, FOR-space rewrite,
// packed scan, Answer shaping — must not allocate per query, for any
// aggregate mask, unsharded and sharded (claims disabled; the parallel
// fan-out necessarily allocates, so Workers stays 1).
func TestEncodedColdZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	vals := boundedColumn(3000, 35)
	masks := []Aggregates{0, Sum, Min | Max, AllAggregates}

	idx := MustNew(vals, Options{Strategy: StrategyQuicksort, Encoding: EncodingFORBP, Workers: 1})
	for _, m := range masks {
		req := Request{Pred: Range(-1000, 1000), Aggs: m}
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := idx.Execute(req); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("cold unsharded Execute(%v) allocates %.1f/op, want 0", m, allocs)
		}
	}

	sh, err := NewHandle(vals, Options{
		Strategy: StrategyQuicksort, Shards: 4, Workers: 1,
		Encoding: EncodingFORBP, ClaimHeat: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	inRange := Request{Pred: Range(-1000, 1000), Aggs: AllAggregates}
	if allocs := testing.AllocsPerRun(100, func() { sh.Execute(inRange) }); allocs != 0 {
		t.Errorf("cold sharded Execute allocates %.1f/op, want 0", allocs)
	}
	miss := Request{Pred: Range(8_000_000, 9_000_000)}
	if allocs := testing.AllocsPerRun(100, func() { sh.Execute(miss) }); allocs != 0 {
		t.Errorf("cold sharded pruned Execute allocates %.1f/op, want 0", allocs)
	}
}
