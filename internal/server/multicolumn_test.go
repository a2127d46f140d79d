package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"

	"repro/internal/catalog"
	"repro/internal/column"
	"repro/internal/data"
	"repro/internal/oracle"
	"repro/internal/query"
)

// TestHTTPMultiColumn drives the whole multi-column wire surface: load
// with a schema and the correlated generator, composite queries checked
// against a client-side oracle on the regenerated rows, tuple appends,
// planner trace spans, per-column debug state, and the validation
// errors for malformed composite requests.
func TestHTTPMultiColumn(t *testing.T) {
	_, ts := newTestServer(t)
	const (
		n    = 20_000
		k    = 3
		seed = 7
	)

	do(t, http.MethodPost, ts.URL+"/tables", LoadRequest{
		Name:     "mc",
		Generate: &GenerateSpec{Kind: "correlated", N: n, Seed: seed},
		Options:  &OptionsSpec{Strategy: "PMSD", Delta: 0.3, Columns: []string{"a", "b", "c"}},
	}, http.StatusCreated, nil)

	var info catalog.Info
	do(t, http.MethodGet, ts.URL+"/tables/mc", nil, http.StatusOK, &info)
	if info.Rows != n {
		t.Fatalf("info.Rows = %d, want %d tuples", info.Rows, n)
	}
	if fmt.Sprint(info.Columns) != "[a b c]" {
		t.Fatalf("info.Columns = %v, want [a b c]", info.Columns)
	}
	// README.md's multi-column quick start, verbatim.
	do(t, http.MethodPost, ts.URL+"/tables", json.RawMessage(`{
  "name": "trips",
  "values": [1200, 750, 100,  90, 500, 0,  15000, 4200, 800],
  "options": {"strategy": "PQ", "columns": ["dist", "fare", "tip"]}}`), http.StatusCreated, &info)
	if fmt.Sprint(info.Columns) != "[dist fare tip]" {
		t.Fatalf("README load: info.Columns = %v, want [dist fare tip]", info.Columns)
	}

	// The client regenerates the same rows locally, exactly like the
	// single-column generators, and checks every composite answer.
	cols := oracle.Columns(data.MultiColumn(n, k, seed), k)
	for q := 0; q < 25; q++ {
		lo := int64(q * 731 % n)
		hi := lo + 2_000
		blo := lo + int64(q%5)*997
		want := oracle.Conj(cols, []string{"a", "b", "c"}, query.Conj("c", 0, query.On("a", query.Range(lo, hi)), query.On("b", query.AtLeast(blo))))

		var resp QueryResponse
		do(t, http.MethodPost, ts.URL+"/tables/mc/query", QueryRequest{
			Predicates: []ColPredSpec{
				{Col: "a", PredSpec: PredSpec{Kind: "range", Lo: &lo, Hi: &hi}},
				{Col: "b", PredSpec: PredSpec{Kind: "atleast", Value: &blo}},
			},
			Target: "c",
			Aggs:   []string{"sum", "count"},
		}, http.StatusOK, &resp)
		if resp.Count != want.Count || resp.Sum == nil || *resp.Sum != want.Sum {
			t.Fatalf("query %d: got count=%d sum=%v, want count=%d sum=%d",
				q, resp.Count, resp.Sum, want.Count, want.Sum)
		}
	}

	// ?trace=1 surfaces the planner's choice: the driving column, the
	// per-column selectivity estimates, and the verification volume.
	lo, hi := int64(100), int64(400)
	blo := int64(0)
	var traced QueryResponse
	do(t, http.MethodPost, ts.URL+"/tables/mc/query?trace=1", QueryRequest{
		Predicates: []ColPredSpec{
			{Col: "a", PredSpec: PredSpec{Kind: "range", Lo: &lo, Hi: &hi}},
			{Col: "b", PredSpec: PredSpec{Kind: "atleast", Value: &blo}},
		},
		Target: "c",
		Aggs:   []string{"count"},
	}, http.StatusOK, &traced)
	if traced.Trace == nil {
		t.Fatal("?trace=1 composite query returned no trace")
	}
	planSpans := jsonSpans(traced.Trace.Root, "plan")
	if len(planSpans) != 1 {
		t.Fatalf("trace has %d plan spans, want 1", len(planSpans))
	}
	attrs := planSpans[0].Attrs
	if d, _ := attrs["driver"].(string); d != "a" {
		t.Errorf("planner chose driver %v for a narrow range on the clustered column, want a", attrs["driver"])
	}
	for _, key := range []string{"est_sel.a", "est_sel.b", "actual_sel", "scanned_blocks", "pruned_blocks", "residual_rows", "matched_rows"} {
		if _, ok := attrs[key]; !ok {
			t.Errorf("plan span missing attr %q: %v", key, attrs)
		}
	}
	if pb, _ := attrs["pruned_blocks"].(float64); pb == 0 {
		t.Error("narrow range on the clustered column pruned no blocks")
	}

	// Tuple appends thread through: counters count logical tuples and
	// the new rows are served immediately.
	var ar AppendResponse
	do(t, http.MethodPost, ts.URL+"/tables/mc/append", AppendRequest{
		Rows: [][]int64{{9_000_001, 9_000_002, 11}, {9_000_004, 9_000_005, 22}},
	}, http.StatusOK, &ar)
	if ar.Appended != 2 || ar.Rows != n+2 {
		t.Fatalf("append response = %+v, want 2 appended / %d rows", ar, n+2)
	}
	alo := int64(9_000_000)
	ahi := int64(9_100_000)
	var aq QueryResponse
	do(t, http.MethodPost, ts.URL+"/tables/mc/query", QueryRequest{
		Predicates: []ColPredSpec{{Col: "a", PredSpec: PredSpec{Kind: "range", Lo: &alo, Hi: &ahi}}},
		Target:     "c",
		Aggs:       []string{"sum", "count"},
	}, http.StatusOK, &aq)
	if aq.Count != 2 || aq.Sum == nil || *aq.Sum != 33 {
		t.Fatalf("appended tuples not served: %+v", aq)
	}

	// The debug endpoint exposes per-column index state.
	var dbg TableDebug
	do(t, http.MethodGet, ts.URL+"/tables/mc/debug", nil, http.StatusOK, &dbg)
	if len(dbg.ColumnState) != k {
		t.Fatalf("debug column_state has %d entries, want %d", len(dbg.ColumnState), k)
	}
	for i, want := range []string{"a", "b", "c"} {
		if dbg.ColumnState[i].Name != want {
			t.Errorf("column_state[%d].name = %q, want %q", i, dbg.ColumnState[i].Name, want)
		}
	}
	if dbg.ColumnState[0].Heat == 0 {
		t.Error("column a carried every predicate but shows no heat")
	}

	// /metrics reports the schema width.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(body, []byte(`progidx_table_columns{table="mc"} 3`)) {
		t.Fatalf("/metrics missing progidx_table_columns:\n%s", body)
	}

	// Validation: ragged rows, mixed pred forms, and unknown predicate
	// columns are 400s.
	do(t, http.MethodPost, ts.URL+"/tables/mc/append",
		AppendRequest{Rows: [][]int64{{1, 2}}}, http.StatusBadRequest, nil)
	do(t, http.MethodPost, ts.URL+"/tables/mc/query", QueryRequest{
		Pred:       PredSpec{Kind: "range", Lo: &lo, Hi: &hi},
		Predicates: []ColPredSpec{{Col: "a", PredSpec: PredSpec{Kind: "point", Value: &lo}}},
	}, http.StatusBadRequest, nil)
	do(t, http.MethodPost, ts.URL+"/tables/mc/query", QueryRequest{
		Predicates: []ColPredSpec{{Col: "zz", PredSpec: PredSpec{Kind: "point", Value: &lo}}},
		Aggs:       []string{"count"},
	}, http.StatusBadRequest, nil)
}

// TestHTTPColdColumnsRejectOutOfDomainAppend: a compressed multi-column
// table refuses a value outside ±2^62 before any column ingests a row
// of the batch — with a 400 and nothing acknowledged — and it keeps
// ingesting and sealing rows afterwards.
func TestHTTPColdColumnsRejectOutOfDomainAppend(t *testing.T) {
	srv, ts := newTestServer(t)
	const n = 4095 // one row short of a full block
	do(t, http.MethodPost, ts.URL+"/tables", LoadRequest{
		Name:     "cold",
		Generate: &GenerateSpec{Kind: "correlated", N: n, Seed: 3},
		Options:  &OptionsSpec{Strategy: "PQ", Delta: 0.3, Columns: []string{"a", "b", "c"}, Encoding: "forbp"},
	}, http.StatusCreated, nil)

	do(t, http.MethodPost, ts.URL+"/tables/cold/append",
		AppendRequest{Rows: [][]int64{{1, 2, 3}, {4, 5, 1 << 62}}}, http.StatusBadRequest, nil)
	var info catalog.Info
	do(t, http.MethodGet, ts.URL+"/tables/cold", nil, http.StatusOK, &info)
	if info.Rows != n || info.Appends != 0 {
		t.Fatalf("rejected append left rows=%d appends=%d, want %d / 0", info.Rows, info.Appends, n)
	}

	var ar AppendResponse
	do(t, http.MethodPost, ts.URL+"/tables/cold/append",
		AppendRequest{Rows: [][]int64{{9_000_001, 9_000_002, 11}, {9_000_004, 9_000_005, 22}}}, http.StatusOK, &ar)
	if ar.Appended != 2 || ar.Rows != n+2 {
		t.Fatalf("append response = %+v, want 2 appended / %d rows", ar, n+2)
	}
	if sched, _ := srv.Scheduler("cold"); sched.Metrics().AppendRows != 2 {
		t.Fatalf("scheduler counted %d appended rows, want the 2 tuples", sched.Metrics().AppendRows)
	}
	alo, ahi := int64(9_000_000), int64(9_100_000)
	var aq QueryResponse
	do(t, http.MethodPost, ts.URL+"/tables/cold/query", QueryRequest{
		Predicates: []ColPredSpec{{Col: "a", PredSpec: PredSpec{Kind: "range", Lo: &alo, Hi: &ahi}}},
		Target:     "c",
		Aggs:       []string{"sum", "count"},
	}, http.StatusOK, &aq)
	if aq.Count != 2 || aq.Sum == nil || *aq.Sum != 33 {
		t.Fatalf("rows appended after the rejected batch not served: %+v", aq)
	}
	var dbg TableDebug
	do(t, http.MethodGet, ts.URL+"/tables/cold/debug", nil, http.StatusOK, &dbg)
	// The loaded rows are one packed block; the two appended ones rode in
	// the tail until the query's batch, with no shard to refine, flushed
	// it into a second one on every column.
	for _, cs := range dbg.ColumnState {
		if cs.Rows != n+2 || cs.Blocks != 2 || cs.EncodedBlocks != 2 {
			t.Fatalf("column %q: %d rows, %d of %d blocks packed; want %d / 2 of 2", cs.Name, cs.Rows, cs.EncodedBlocks, cs.Blocks, n+2)
		}
	}
}

// TestHTTPAppendValidatesAgainstSchedulerTable: an append is validated
// against the row width of the table its scheduler serves, not of
// whatever the catalog holds under that name by then. With the catalog
// entry dropped under a live scheduler — the window between the
// handler's two lookups — a rows append to a 3-column table must not be
// refused as if the table had one column.
func TestHTTPAppendValidatesAgainstSchedulerTable(t *testing.T) {
	srv, ts := newTestServer(t)
	do(t, http.MethodPost, ts.URL+"/tables", LoadRequest{
		Name:     "mc",
		Generate: &GenerateSpec{Kind: "correlated", N: 5_000, Seed: 3},
		Options:  &OptionsSpec{Strategy: "PQ", Delta: 0.3, Columns: []string{"a", "b", "c"}},
	}, http.StatusCreated, nil)
	if _, err := srv.Catalog().Drop("mc"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/tables/mc/append", "application/json", bytes.NewReader([]byte(`{"rows": [[1, 2, 3]]}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if bytes.Contains(body, []byte("table expects")) {
		t.Fatalf("append validated against the wrong row width: %d %s", resp.StatusCode, body)
	}
}

// TestHTTPSingleColumnConjunction pins that the composite form also
// works against a plain single-column table — the one-column planned
// table, whose every query is direct — and errors clearly when it names
// a column the table lacks, alone in its batch.
func TestHTTPSingleColumnConjunction(t *testing.T) {
	srv, ts := newTestServer(t)
	do(t, http.MethodPost, ts.URL+"/tables", LoadRequest{
		Name:     "single",
		Generate: &GenerateSpec{Kind: "uniform", N: 8_192, Seed: 3},
		Options:  &OptionsSpec{Strategy: "PQ", Delta: 0.3},
	}, http.StatusCreated, nil)

	lo, hi := int64(10), int64(500)
	var resp QueryResponse
	do(t, http.MethodPost, ts.URL+"/tables/single/query", QueryRequest{
		Predicates: []ColPredSpec{{PredSpec: PredSpec{Kind: "range", Lo: &lo, Hi: &hi}}},
		Aggs:       []string{"count"},
	}, http.StatusOK, &resp)
	if resp.Count != 491 {
		t.Fatalf("reduced conjunction count = %d, want 491", resp.Count)
	}

	// Two distinct predicate columns cannot reduce on a one-column table.
	lacking := QueryRequest{
		Predicates: []ColPredSpec{
			{Col: "a", PredSpec: PredSpec{Kind: "range", Lo: &lo, Hi: &hi}},
			{Col: "b", PredSpec: PredSpec{Kind: "point", Value: &lo}},
		},
		Aggs: []string{"count"},
	}
	do(t, http.MethodPost, ts.URL+"/tables/single/query", lacking, http.StatusBadRequest, nil)

	// One batch of all three shapes, the bad one leading: it fails alone.
	sched, _ := srv.Scheduler("single")
	plain := &task{}
	plain.pred[0].Pred = query.Range(lo, hi)
	plain.conj = query.Conjunction{Preds: plain.pred[:], Aggs: column.AggCount}
	named := query.Conjunction{Preds: []query.ColPredicate{{Col: "value", Pred: query.Range(lo, hi)}}, Target: "value", Aggs: column.AggCount}
	wide := query.Conjunction{Preds: []query.ColPredicate{{Col: "a", Pred: query.Range(lo, hi)}, {Col: "b", Pred: query.Point(lo)}}}
	answers, errs := sched.executeQueries([]int{0, 1, 2}, []*task{{conj: wide}, plain, {conj: named}}, false)
	if errs[0] == nil || errs[1] != nil || errs[2] != nil || answers[1].Count != 491 || answers[2].Count != 491 {
		t.Fatalf("mixed batch: counts %d, %d, errors %v; want the first query alone to fail", answers[1].Count, answers[2].Count, errs)
	}

	// A traced plain query shows the planner's one choice beside the
	// column's fan-out.
	resp = QueryResponse{}
	do(t, http.MethodPost, ts.URL+"/tables/single/query?trace=1", rangeQuery(lo, hi), http.StatusOK, &resp)
	if resp.Trace == nil {
		t.Fatal("?trace=1 plain query returned no trace")
	}
	plans := jsonSpans(resp.Trace.Root, "plan")
	if len(plans) != 1 || plans[0].Attrs["direct"] != true || len(jsonSpans(resp.Trace.Root, "shard_fanout")) != 1 {
		t.Fatalf("traced plain query: %d plan spans (%+v), %d shard_fanout spans; want one direct plan beside one fan-out",
			len(plans), plans, len(jsonSpans(resp.Trace.Root, "shard_fanout")))
	}
}
