package catalog

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/column"
	"repro/internal/encode"
	"repro/internal/plan"
	"repro/internal/query"
)

var update = flag.Bool("update", false, "regenerate testdata golden files")

// submitBatch runs one scheduler-shaped batch — the first request
// carrying the indexing budget unless clamp is set — through the served
// table's batch entry point.
func submitBatch(tbl *Table, reqs []query.Request, clamp bool) ([]query.Answer, []error) {
	conjs := make([]query.Conjunction, len(reqs))
	for i, req := range reqs {
		conjs[i] = query.Conjunction{Preds: []query.ColPredicate{{Pred: req.Pred}}, Aggs: req.Aggs}
	}
	return tbl.Handle().ExecuteConjBatch(conjs, query.BatchOpts{Clamp: clamp})
}

// servedState is the part of a line every step ends with: the table's
// convergence, its pending tail and each shard's form, converged flag
// (+ or -) and idle-slice count.
func servedState(tbl *Table) string {
	var b strings.Builder
	fmt.Fprintf(&b, "progress=%.6f pending=%d conv=%v shards=[", tbl.Index().Progress(), tbl.Index().PendingRows(), tbl.Index().Converged())
	infos, _ := tbl.ShardStats()
	for i, si := range infos {
		if i > 0 {
			b.WriteByte(' ')
		}
		mark := '-'
		if si.Converged {
			mark = '+'
		}
		fmt.Fprintf(&b, "%s%c%d", si.Form, mark, si.Refines)
	}
	b.WriteByte(']')
	return b.String()
}

// TestServedStreamGolden pins what a single-column served table does,
// step by step, before a refactor of the layers between the catalog and
// the shards: the four progressive strategies, unsharded and as four
// shards, raw and FOR-BP (cold until a leader's claim), each driven by
// one seeded stream of batches of 1–4 plain requests (every aggregate
// mask, ranges, points, zone misses), single Executes, appends that
// cross a seal, a batch over a pending tail after convergence, idle
// slices until the table settles, and one clamped batch. A line holds
// the hash of the step's answers, the hash of every request's Stats (two
// columns, so that a change to the model's accounting moves one and not
// the other), the leader's Stats in clear (phase, δ, predicted cost — the model's
// figures, never a clock's), and the table's state afterwards. The
// values track the row number, so the shards' zones prune and the heat
// split is uneven. testdata/served_stream.golden must stay
// byte-identical across such a refactor (regenerate with -update only
// when behaviour is meant to change).
func TestServedStreamGolden(t *testing.T) {
	const (
		n     = 16_384
		extra = 12_000
		steps = 48
	)
	gen := rand.New(rand.NewSource(11))
	vals := make([]int64, n+extra)
	for i := range vals {
		vals[i] = int64(i) + gen.Int63n(n/8)
	}
	aggs := []column.Aggregates{0, column.AggAll, column.AggCount, column.AggMin | column.AggMax, column.AggSum | column.AggAvg}

	var out strings.Builder
	for _, strat := range []plan.Strategy{plan.StrategyQuicksort, plan.StrategyRadixMSD, plan.StrategyBucketsort, plan.StrategyRadixLSD} {
		for _, shards := range []int{1, 4} {
			for _, enc := range []encode.Mode{encode.ModeRaw, encode.ModeFORBP} {
				name := fmt.Sprintf("%s/shards=%d/%s", strat, shards, enc)
				fmt.Fprintf(&out, "== %s\n", name)
				// catalog.Options has no ClaimHeat: compressed tables claim at
				// the shard layer's default, 16 hits.
				tbl, err := New().Load("t", append([]int64(nil), vals[:n]...), Options{
					Strategy: strat, Delta: 0.25, Workers: 2, Shards: shards, Encoding: enc})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				rng := rand.New(rand.NewSource(5))
				rows := n
				request := func() query.Request {
					req := query.Request{Aggs: aggs[rng.Intn(len(aggs))]}
					top := int64(rows + n/8)
					switch rng.Intn(6) {
					case 0:
						req.Pred = query.Point(vals[rng.Intn(rows)])
					case 1:
						req.Pred = query.Range(2*top, 3*top) // zone miss
					case 2:
						req.Pred = query.AtLeast(rng.Int63n(top))
					default:
						lo := rng.Int63n(top)
						req.Pred = query.Range(lo, lo+rng.Int63n(top/4))
					}
					return req
				}
				line := func(step string, answers []query.Answer, errs []error) {
					ha, hs := fnv.New64a(), fnv.New64a()
					for i, ans := range answers {
						if errs[i] != nil {
							t.Fatalf("%s %s: %v", name, step, errs[i])
						}
						st := ans.Stats
						fmt.Fprintf(ha, "%d %d %d %d %.9g\n", ans.Sum, ans.Count, ans.Min, ans.Max, ans.Avg)
						fmt.Fprintf(hs, "%d %.9g %.9g %d %d %d\n",
							st.Phase, st.Delta, st.Predicted, st.AlphaElems, st.ShardsScanned, st.ShardsPruned)
					}
					fmt.Fprintf(&out, "%s %016x %016x", step, ha.Sum64(), hs.Sum64())
					if len(answers) > 0 {
						st := answers[0].Stats
						fmt.Fprintf(&out, " lead=%s/%.9g/%.9g", st.Phase, st.Delta, st.Predicted)
					}
					fmt.Fprintf(&out, " %s\n", servedState(tbl))
				}
				batch := func(step string, size int, clamp bool) {
					reqs := make([]query.Request, size)
					for i := range reqs {
						reqs[i] = request()
					}
					answers, errs := submitBatch(tbl, reqs, clamp)
					line(step, answers, errs)
				}
				grow := func(step string, by int) {
					if err := tbl.Index().Append(vals[rows : rows+by]); err != nil {
						t.Fatalf("%s %s: %v", name, step, err)
					}
					rows += by
					line(step, nil, nil)
				}
				settle := func(step string) {
					for i := 0; !tbl.Index().Converged(); i++ {
						if i == 2_000 {
							t.Fatalf("%s %s: not converged after %d idle slices: %s", name, step, i, servedState(tbl))
						}
						st, _ := tbl.Index().RefineStep()
						line(fmt.Sprintf("%s%d", step, i), []query.Answer{{Stats: st}}, []error{nil})
					}
				}

				for s := 0; s < steps; s++ {
					step := fmt.Sprintf("s%d", s)
					switch k := rng.Intn(8); {
					case k == 0:
						grow(step+"/append", 300+rng.Intn(1_500))
					case k == 1:
						ans, err := tbl.Index().Execute(request())
						line(step+"/execute", []query.Answer{ans}, []error{err})
					default:
						batch(step+"/batch", 1+rng.Intn(4), false)
					}
				}
				settle("idle")
				grow("grown/append", 700)
				batch("grown/batch", 3, false)
				ans, err := tbl.Index().Execute(request())
				line("grown/execute", []query.Answer{ans}, []error{err})
				settle("flush")
				batch("clamped/batch", 4, true)
			}
		}
	}

	path := filepath.Join("testdata", "served_stream.golden")
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
		t.Fatalf("%v (run go test ./internal/catalog -run TestServedStreamGolden -update)", err)
	}
	if got := out.String(); got != string(want) {
		wl := strings.Split(string(want), "\n")
		for i, g := range strings.Split(got, "\n") {
			if i >= len(wl) || g != wl[i] {
				t.Errorf("line %d: got %q, not in %s", i+1, g, path)
				break
			}
		}
		t.Fatalf("served stream differs from %s", path)
	}
}
