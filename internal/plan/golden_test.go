package plan

import (
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/column"
	"repro/internal/data"
	"repro/internal/encode"
	"repro/internal/query"
)

var update = flag.Bool("update", false, "regenerate testdata golden files")

// goldenConj draws the i-th conjunction of the golden stream and the
// driver to force ("" lets the planner choose). The stream cycles
// through every route: 2- and 3-predicate scans, one predicate off the
// target (a one-column scan), one predicate on the target and no
// predicate at all (both direct), a predicate outside its column's zone
// (zone-empty), and a 2-predicate scan with the driver pinned.
func goldenConj(rng *rand.Rand, i int, n int64) (query.Conjunction, string) {
	names := []string{"a", "b", "c"}
	aggs := []column.Aggregates{column.AggAll, 0, column.AggMin | column.AggMax, column.AggCount}[rng.Intn(4)]
	narrow := func(col string) query.ColPredicate {
		lo := rng.Int63n(n)
		return query.ColPredicate{Col: col, Pred: query.Range(lo, lo+rng.Int63n(n/50+1))}
	}
	wide := func(col string) query.ColPredicate {
		if rng.Intn(2) == 0 {
			return query.ColPredicate{Col: col, Pred: query.AtLeast(rng.Int63n(n / 2))}
		}
		return query.ColPredicate{Col: col, Pred: query.AtMost(n/2 + rng.Int63n(n/2))}
	}
	c := query.Conjunction{Target: names[rng.Intn(3)], Aggs: aggs}
	forced := ""
	switch i % 7 {
	case 0:
		c.Preds = []query.ColPredicate{narrow("b"), wide("c")}
	case 1:
		c.Preds = []query.ColPredicate{wide("a"), narrow("b"), wide("c")}
	case 2:
		col := names[rng.Intn(3)]
		c.Target = names[(rng.Intn(2)+1+indexOf(names, col))%3]
		c.Preds = []query.ColPredicate{narrow(col)}
	case 3:
		c.Preds = []query.ColPredicate{narrow(c.Target)}
	case 4:
		// unconditional
	case 5:
		c.Preds = []query.ColPredicate{wide("a"), {Col: "c", Pred: query.Range(10*n, 11*n)}}
		if rng.Intn(2) == 0 {
			c.Preds[1].Pred = query.Range(n/2, n/2-1) // inverted: empty everywhere
		}
	case 6:
		c.Preds = []query.ColPredicate{narrow("a"), wide("c"), wide("b")}[:2+rng.Intn(2)]
		forced = c.Preds[rng.Intn(len(c.Preds))].Col
	}
	return c, forced
}

func indexOf(names []string, col string) int {
	for i, n := range names {
		if n == col {
			return i
		}
	}
	return -1
}

// goldenPhase runs queries [from, to) of the stream through ExplainConj
// — clamped, so no claim and no refinement moves the table — and hashes
// every answer; with planner set it also hashes, for the queries that
// took the fused scan, the planner's choice, its per-candidate costing
// and the scan's block and row counts.
func goldenPhase(t *testing.T, tbl *Table, h hash.Hash64, rng *rand.Rand, from, to int, n int64, planner bool) {
	t.Helper()
	for i := from; i < to; i++ {
		c, forced := goldenConj(rng, i, n)
		ans, ch, err := tbl.ExplainConj(c, forced)
		if err != nil {
			t.Fatalf("query %d (%s): %v", i, c, err)
		}
		fmt.Fprintf(h, "%d %d %d %d\n", ans.Sum, ans.Count, ans.Min, ans.Max)
		if !planner || ch.Direct {
			continue
		}
		fmt.Fprintf(h, "%s %v %d %d %d %d %d", ch.Driver, ch.Forced, ch.ScannedBlocks, ch.PrunedBlocks,
			ch.DriverRows, ch.ResidualRows, ch.MatchedRows)
		for _, cand := range ch.Candidates {
			fmt.Fprintf(h, " %.9g %.9g", cand.EstRows, cand.Cost)
		}
		fmt.Fprintln(h)
	}
}

// TestConjStreamGolden pins what a storage refactor under the planner
// must not move, as FNV-64a hashes per configuration. On an unsharded
// loaded table the block grid is the table's rows cut every BlockRows,
// so the whole planner-visible stream is pinned: every answer, and for
// every scanned conjunction the driver, the candidates' estimates and
// costs, and the blocks and rows the scan touched. Once rows have been
// appended, and on a table loaded as four shards, where the blocks
// fall is the storage layer's business: there only the answers are
// pinned. testdata/conj_stream.golden must stay byte-identical across
// such a refactor (regenerate with -update only when behaviour is meant
// to change).
func TestConjStreamGolden(t *testing.T) {
	const (
		n       = 200_000
		batch   = 1_500
		batches = 3
		queries = 300
	)
	names := []string{"a", "b", "c"}
	flat := data.MultiColumn(n+batches*batch, len(names), 1)
	var out strings.Builder
	for _, enc := range []encode.Mode{encode.ModeRaw, encode.ModeFORBP, encode.ModeDict} {
		for _, shards := range []int{0, 4} {
			tbl, err := New("t", names, flat[:n*len(names)], Options{
				Strategy: StrategyQuicksort, Delta: 0.25, Encoding: enc, Shards: shards, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(42))
			loaded, grown := fnv.New64a(), fnv.New64a()
			goldenPhase(t, tbl, loaded, rng, 0, queries, n, shards == 0)
			for b := 0; b < batches; b++ {
				if err := tbl.Append(flat[(n+b*batch)*len(names) : (n+(b+1)*batch)*len(names)]); err != nil {
					t.Fatal(err)
				}
			}
			goldenPhase(t, tbl, grown, rng, queries, 2*queries, n, false)
			fmt.Fprintf(&out, "%s/shards=%d loaded=%016x grown=%016x\n", enc, shards, loaded.Sum64(), grown.Sum64())
		}
	}

	path := filepath.Join("testdata", "conj_stream.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/plan -run TestConjStreamGolden -update)", err)
	}
	if got := out.String(); got != string(want) {
		wl := strings.Split(string(want), "\n")
		for i, g := range strings.Split(got, "\n") {
			if i >= len(wl) || g != wl[i] {
				t.Errorf("line %d: got %q, not in %s", i+1, g, path)
			}
		}
		t.Fatalf("conjunction stream differs from %s", path)
	}
}
