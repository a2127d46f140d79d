package progidx

import (
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/shard"
)

// findSpans walks a span tree depth-first collecting every span with
// the given name.
func findSpans(n *obs.SpanJSON, name string) []*obs.SpanJSON {
	var out []*obs.SpanJSON
	if n == nil {
		return nil
	}
	if n.Name == name {
		out = append(out, n)
	}
	for _, c := range n.Children {
		out = append(out, findSpans(c, name)...)
	}
	return out
}

// TestShardedTraceAgreesWithStats drives a traced batch through a
// sharded handle and checks the span tree against the answer's own
// shard accounting: every shard appears exactly once under the
// fan-out span, pruned shards carry zero-work spans, and the
// scanned/pruned split matches Stats.ShardsScanned/ShardsPruned.
func TestShardedTraceAgreesWithStats(t *testing.T) {
	const shards = 8
	// Sorted values give the positional partition disjoint zone maps,
	// so a narrow range demonstrably prunes the non-overlapping shards.
	vals := make([]int64, 16_384)
	for i := range vals {
		vals[i] = int64(i)
	}
	h, err := NewHandle(vals, Options{Shards: shards, Delta: 0.5})
	if err != nil {
		t.Fatal(err)
	}

	req := Request{Pred: Range(0, 500)}
	tr := obs.NewTrace("query", "t")
	answers, errs := executeBatch(h, []Request{req}, query.BatchOpts{Traces: []*obs.Trace{tr}})
	tr.Finish()
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	ans := answers[0]
	if ans.Stats.ShardsScanned+ans.Stats.ShardsPruned != shards {
		t.Fatalf("stats cover %d shards, want %d", ans.Stats.ShardsScanned+ans.Stats.ShardsPruned, shards)
	}
	if ans.Stats.ShardsPruned == 0 {
		t.Fatalf("narrow range pruned no shards: %+v", ans.Stats)
	}

	tree := tr.Tree()
	fanouts := findSpans(tree.Root, "shard_fanout")
	if len(fanouts) != 1 {
		t.Fatalf("got %d shard_fanout spans, want 1", len(fanouts))
	}
	fo := fanouts[0]
	if got := fo.Attrs["scanned"]; got != int64(ans.Stats.ShardsScanned) {
		t.Errorf("fanout scanned attr = %v, want %d", got, ans.Stats.ShardsScanned)
	}
	if got := fo.Attrs["pruned"]; got != int64(ans.Stats.ShardsPruned) {
		t.Errorf("fanout pruned attr = %v, want %d", got, ans.Stats.ShardsPruned)
	}

	shardSpans := findSpans(fo, "shard")
	if len(shardSpans) != shards {
		t.Fatalf("got %d shard spans, want %d (every shard accounted for)", len(shardSpans), shards)
	}
	seen := make(map[int64]bool)
	var pruned, scanned int
	for _, sp := range shardSpans {
		id, ok := sp.Attrs["shard"].(int64)
		if !ok || seen[id] {
			t.Fatalf("shard span has bad/duplicate id attr %v", sp.Attrs["shard"])
		}
		seen[id] = true
		if p, _ := sp.Attrs["pruned"].(bool); p {
			pruned++
			// The observable guarantee behind zone-map pruning: a pruned
			// shard performs zero work and its span shows it.
			if rows, _ := sp.Attrs["rows_scanned"].(int64); rows != 0 {
				t.Errorf("pruned shard %d scanned %d rows, want 0", id, rows)
			}
			if sp.DurMicros != 0 {
				t.Errorf("pruned shard %d has non-zero duration %dus", id, sp.DurMicros)
			}
		} else {
			scanned++
		}
		// Span-tree invariant: children fit inside the parent's window.
		if sp.StartMicros < fo.StartMicros ||
			sp.StartMicros+sp.DurMicros > fo.StartMicros+fo.DurMicros {
			t.Errorf("shard span %d [%d, %d] escapes fanout window [%d, %d]",
				id, sp.StartMicros, sp.StartMicros+sp.DurMicros,
				fo.StartMicros, fo.StartMicros+fo.DurMicros)
		}
	}
	if pruned != ans.Stats.ShardsPruned || scanned != ans.Stats.ShardsScanned {
		t.Errorf("trace shows %d scanned / %d pruned, stats say %d / %d",
			scanned, pruned, ans.Stats.ShardsScanned, ans.Stats.ShardsPruned)
	}

	// The merged answer must be identical to an untraced execution.
	h2, err := NewHandle(vals, Options{Shards: shards, Delta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	want, err := h2.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Sum != want.Sum || ans.Count != want.Count {
		t.Errorf("traced answer (sum=%d count=%d) differs from untraced (sum=%d count=%d)",
			ans.Sum, ans.Count, want.Sum, want.Count)
	}
}

// TestUnshardedTraceSpans checks the unsharded handle's traced batch:
// each request's tree is one shard_fanout over exactly one shard span —
// there is no separate unsharded execution path to show — the batch
// follower is marked suspended, and a clamped batch keeps its traces,
// with every request suspended and (next to) no budget spent.
func TestUnshardedTraceSpans(t *testing.T) {
	vals := data.Uniform(8_192, 3)
	h, err := NewHandle(vals, Options{Delta: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []Request{{Pred: Range(10, 1000)}, {Pred: Range(2000, 3000)}}
	var leaderSpent float64
	for _, clamp := range []bool{false, true} {
		traces := []*obs.Trace{obs.NewTrace("query", "t"), obs.NewTrace("query", "t")}
		_, errs := executeBatch(h, reqs, query.BatchOpts{Traces: traces, Clamp: clamp})
		for i, tr := range traces {
			tr.Finish()
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			root := tr.Tree().Root
			fanouts := findSpans(root, "shard_fanout")
			if len(fanouts) != 1 {
				t.Fatalf("clamp=%v trace %d: got %d shard_fanout spans, want 1", clamp, i, len(fanouts))
			}
			spans := findSpans(fanouts[0], "shard")
			if len(spans) != 1 {
				t.Fatalf("clamp=%v trace %d: got %d shard spans, want 1", clamp, i, len(spans))
			}
			if n := len(findSpans(root, "index")); n != 0 {
				t.Errorf("clamp=%v trace %d: %d index spans, want none", clamp, i, n)
			}
			suspended, _ := spans[0].Attrs["suspended"].(bool)
			if want := clamp || i > 0; suspended != want {
				t.Errorf("clamp=%v trace %d: suspended = %v, want %v", clamp, i, suspended, want)
			}
			spent, ok := spans[0].Attrs["budget_spent_s"].(float64)
			if !ok {
				t.Fatalf("clamp=%v trace %d: shard span missing budget_spent_s", clamp, i)
			}
			// A suspended creation step still copies one element.
			if (clamp || i > 0) && spent > leaderSpent/100 {
				t.Errorf("clamp=%v trace %d spent %g s of budget suspended, leader %g", clamp, i, spent, leaderSpent)
			}
			if !clamp && i == 0 {
				if leaderSpent = spent; spent <= 0 {
					t.Error("batch leader spent no budget")
				}
			}
		}
	}
}

// TestTraceRowsScannedConverged pins what a shard span's rows_scanned
// says once the shard has converged: the leaves the answer read — none
// for a range inside the shard's zone that matches nothing, none for a
// COUNT, at most two tree nodes' worth for a SUM — and not the shard's
// row count, which is the figure of a creation-phase scan.
func TestTraceRowsScannedConverged(t *testing.T) {
	const shards, per, fanout = 4, 4096, 64
	vals := make([]int64, shards*per)
	for i := range vals {
		vals[i] = 2 * int64(i) // even values: an odd point is inside a zone and matches nothing
	}
	h, err := NewHandle(vals, Options{Shards: shards, Delta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewHandle(vals, Options{Shards: shards, Encoding: EncodingFORBP})
	if err != nil {
		t.Fatal(err)
	}
	rowsScanned := func(h *shard.Sharded, req Request) []int64 {
		t.Helper()
		tr := obs.NewTrace("query", "t")
		if _, err := h.ExecuteAs(req, true, tr); err != nil {
			t.Fatal(err)
		}
		tr.Finish()
		var rows []int64
		for _, sp := range findSpans(tr.Tree().Root, "shard") {
			if p, _ := sp.Attrs["pruned"].(bool); !p {
				rows = append(rows, sp.Attrs["rows_scanned"].(int64))
			}
		}
		return rows
	}
	top := vals[len(vals)-1]

	if got := rowsScanned(h, Request{Pred: Range(10, top-10)}); !slices.Equal(got, []int64{per, per, per, per}) {
		t.Fatalf("creation-phase scan: rows_scanned %v, want every shard's %d rows", got, per)
	}
	// A cold shard reports done and no α, and scans its packed rows.
	if got := rowsScanned(cold, Request{Pred: Range(10, top-10), Aggs: Count}); !slices.Equal(got, []int64{per, per, per, per}) {
		t.Errorf("cold shards: rows_scanned %v, want every shard's %d rows", got, per)
	}
	for i := 0; i < 10_000 && !h.Converged(); i++ {
		h.RefineStep()
	}
	if !h.Converged() {
		t.Fatal("table did not converge")
	}
	if got := rowsScanned(h, Request{Pred: Point(1001)}); !slices.Equal(got, []int64{0}) {
		t.Errorf("converged, no match inside the zone: rows_scanned %v, want [0]", got)
	}
	if got := rowsScanned(h, Request{Pred: Range(10, top-10), Aggs: Count | Min | Max}); !slices.Equal(got, []int64{0, 0, 0, 0}) {
		t.Errorf("converged COUNT/MIN/MAX: rows_scanned %v, want none", got)
	}
	// Value 10 is leaf 5 of the first shard and top-10 is five short of
	// the last shard's end: each reads the rest of one node, the shards
	// between them nothing but their prefix sums.
	got := rowsScanned(h, Request{Pred: Range(10, top-10), Aggs: Sum})
	slices.Sort(got) // pool workers record their spans in any order
	if want := []int64{0, 0, fanout - 5, fanout - 5}; !slices.Equal(got, want) {
		t.Errorf("converged SUM: rows_scanned %v, want %v", got, want)
	}
}
