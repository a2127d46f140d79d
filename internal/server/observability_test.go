package server

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/data"
	"repro/internal/obs"
)

// jsonSpans walks a JSON-decoded span tree collecting spans by name.
// After the JSON round trip numeric attrs are float64 and flags bool.
func jsonSpans(n *obs.SpanJSON, name string) []*obs.SpanJSON {
	var out []*obs.SpanJSON
	if n == nil {
		return nil
	}
	if n.Name == name {
		out = append(out, n)
	}
	for _, c := range n.Children {
		out = append(out, jsonSpans(c, name)...)
	}
	return out
}

// loadSortedSharded loads a table of sorted values over HTTP so the
// positional partition yields disjoint zone maps — narrow ranges then
// demonstrably prune shards.
func loadSortedSharded(t *testing.T, ts *httptest.Server, name string, n, shards int) {
	t.Helper()
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	load := LoadRequest{
		Name:    name,
		Values:  vals,
		Options: &OptionsSpec{Strategy: "PQ", Delta: 0.5, Shards: shards},
	}
	do(t, http.MethodPost, ts.URL+"/tables", load, http.StatusCreated, nil)
}

func rangeQuery(lo, hi int64) QueryRequest {
	return QueryRequest{Pred: PredSpec{Kind: "range", Lo: &lo, Hi: &hi}}
}

// TestQueryTraceInline exercises ?trace=1: the response carries a span
// tree whose per-shard spans agree with the answer's own ShardStats,
// and pruned shards show zero scanned rows. A plain query on the same
// server returns no trace.
func TestQueryTraceInline(t *testing.T) {
	_, ts := newTestServer(t)
	loadSortedSharded(t, ts, "tr", 16_384, 8)

	var resp QueryResponse
	do(t, http.MethodPost, ts.URL+"/tables/tr/query?trace=1", rangeQuery(0, 500), http.StatusOK, &resp)
	if resp.Trace == nil {
		t.Fatal("?trace=1 response has no trace")
	}
	if resp.Trace.Table != "tr" {
		t.Errorf("trace table = %q, want tr", resp.Trace.Table)
	}
	if resp.Stats.ShardsPruned == 0 {
		t.Fatalf("narrow range pruned nothing: %+v", resp.Stats)
	}

	root := resp.Trace.Root
	if len(jsonSpans(root, "queue_wait")) != 1 {
		t.Error("trace missing queue_wait span")
	}
	if len(jsonSpans(root, "execute")) != 1 {
		t.Error("trace missing execute span")
	}
	shardSpans := jsonSpans(root, "shard")
	if got, want := len(shardSpans), resp.Stats.ShardsScanned+resp.Stats.ShardsPruned; got != want {
		t.Fatalf("trace has %d shard spans, stats cover %d shards", got, want)
	}
	var pruned int
	for _, sp := range shardSpans {
		if p, _ := sp.Attrs["pruned"].(bool); p {
			pruned++
			if rows, _ := sp.Attrs["rows_scanned"].(float64); rows != 0 {
				t.Errorf("pruned shard span scanned %v rows, want 0", rows)
			}
		}
	}
	if pruned != resp.Stats.ShardsPruned {
		t.Errorf("trace shows %d pruned shards, stats say %d", pruned, resp.Stats.ShardsPruned)
	}

	var plain QueryResponse
	do(t, http.MethodPost, ts.URL+"/tables/tr/query", rangeQuery(0, 500), http.StatusOK, &plain)
	if plain.Trace != nil {
		t.Error("untraced query returned a trace")
	}
}

// TestDebugTracesEndpoint samples every query (TraceSample=1) and
// checks that /debug/traces retains them as span trees.
func TestDebugTracesEndpoint(t *testing.T) {
	srv := New(Config{TraceSample: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	loadSortedSharded(t, ts, "sampled", 8_192, 4)

	const queries = 3
	for i := 0; i < queries; i++ {
		do(t, http.MethodPost, ts.URL+"/tables/sampled/query", rangeQuery(0, 2000), http.StatusOK, nil)
	}

	var out struct {
		Traces []*obs.TraceJSON `json:"traces"`
	}
	do(t, http.MethodGet, ts.URL+"/debug/traces", nil, http.StatusOK, &out)
	if len(out.Traces) < queries {
		t.Fatalf("/debug/traces has %d traces, want >= %d", len(out.Traces), queries)
	}
	for _, tr := range out.Traces {
		if tr.Root == nil {
			t.Fatal("trace with nil root")
		}
		if len(jsonSpans(tr.Root, "execute")) == 0 {
			t.Errorf("sampled trace %q has no execute span", tr.Root.Name)
		}
	}
}

// TestTableDebugEndpoint checks the deep-inspection surface: per-shard
// state with heat shares, scheduler counters, a non-empty convergence
// timeline once queries have advanced the index, and — once it has
// converged — the settled form and its events.
func TestTableDebugEndpoint(t *testing.T) {
	srv, ts := newTestServer(t)
	const shards = 4
	loadSortedSharded(t, ts, "dbg", 8_192, shards)

	for i := 0; i < 4; i++ {
		do(t, http.MethodPost, ts.URL+"/tables/dbg/query", rangeQuery(0, 4000), http.StatusOK, nil)
	}

	var dbg TableDebug
	do(t, http.MethodGet, ts.URL+"/tables/dbg/debug", nil, http.StatusOK, &dbg)
	if dbg.Name != "dbg" {
		t.Errorf("debug name = %q, want dbg", dbg.Name)
	}
	if len(dbg.ShardInfo) != shards {
		t.Fatalf("shard_state has %d entries, want %d", len(dbg.ShardInfo), shards)
	}
	var heat float64
	for _, sd := range dbg.ShardInfo {
		if sd.HeatShare < 0 || sd.HeatShare > 1 {
			t.Errorf("shard %d heat_share %v outside [0,1]", sd.ID, sd.HeatShare)
		}
		heat += sd.HeatShare
	}
	if heat > 1.0001 {
		t.Errorf("heat shares sum to %v > 1", heat)
	}
	if dbg.Scheduler.Queries < 4 {
		t.Errorf("scheduler reports %d queries, want >= 4", dbg.Scheduler.Queries)
	}
	if len(dbg.Events) == 0 {
		t.Fatal("convergence timeline is empty after refining queries")
	}
	var progress bool
	for _, e := range dbg.Events {
		if e.Kind == "progress" {
			progress = true
		}
	}
	if !progress {
		t.Errorf("timeline has no progress events: %+v", dbg.Events)
	}
	if dbg.Replay != nil {
		t.Error("in-memory table reports replay progress")
	}

	// Converged, the shards have settled: the form shows per shard and
	// every settle is on the timeline beside the seals and claims.
	tbl, _ := srv.Catalog().Get("dbg")
	for i := 0; i < 100_000 && !tbl.Index().Converged(); i++ {
		tbl.Index().RefineStep()
	}
	do(t, http.MethodGet, ts.URL+"/tables/dbg/debug", nil, http.StatusOK, &dbg)
	for _, sd := range dbg.ShardInfo {
		if sd.Form != "settled" || sd.Encoding != "forbp" || sd.Bytes >= 8*sd.Rows {
			t.Errorf("converged shard %d: form %q encoding %q, %d bytes for %d rows", sd.ID, sd.Form, sd.Encoding, sd.Bytes, sd.Rows)
		}
	}
	settles := 0
	for _, e := range dbg.Events {
		if e.Kind == "shard_settle" {
			settles++
			if e.Shard == nil || e.Attrs["rows"] != float64(8_192/shards) || e.Attrs["packed_bytes"] == float64(0) {
				t.Errorf("settle event %+v, want a shard, its %d rows and its packed bytes", e, 8_192/shards)
			}
		}
	}
	if settles != shards {
		t.Errorf("timeline has %d shard_settle events, want %d: %+v", settles, shards, dbg.Events)
	}

	do(t, http.MethodGet, ts.URL+"/tables/nosuch/debug", nil, http.StatusNotFound, &errorResponse{})
}

// TestSlowQueryLog sets a 1ns threshold so every query is slow, and
// checks both halves of the slow path: the structured log line and the
// retro-trace in the /debug/traces ring.
func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	srv := New(Config{
		SlowQuery: time.Nanosecond,
		Logger:    slog.New(slog.NewTextHandler(&buf, nil)),
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	loadSortedSharded(t, ts, "slow", 4_096, 1)

	do(t, http.MethodPost, ts.URL+"/tables/slow/query", rangeQuery(10, 300), http.StatusOK, nil)

	// observeTask logs before the reply is sent, so the line is visible
	// once the HTTP response has been read.
	logged := buf.String()
	for _, want := range []string{"slow query", `table=slow`, "pred_kind=range", "duration="} {
		if !strings.Contains(logged, want) {
			t.Errorf("slow-query log missing %q: %s", want, logged)
		}
	}

	var out struct {
		Traces []*obs.TraceJSON `json:"traces"`
	}
	do(t, http.MethodGet, ts.URL+"/debug/traces", nil, http.StatusOK, &out)
	var retro *obs.TraceJSON
	for _, tr := range out.Traces {
		if tr.Retro {
			retro = tr
		}
	}
	if retro == nil {
		t.Fatal("no retro trace retained for the slow query")
	}
	if len(jsonSpans(retro.Root, "execute")) == 0 {
		t.Error("retro trace has no execute span")
	}
}

// histSeries holds one parsed histogram family for one label set.
type histSeries struct {
	buckets []float64 // cumulative counts in exposition order
	inf     float64
	count   float64
	hasInf  bool
}

// parseHistogram extracts the cumulative buckets, +Inf bucket and
// _count for the given family name from Prometheus text output,
// ignoring label sets (the tests use a single table).
func parseHistogram(t *testing.T, text, name string) histSeries {
	t.Helper()
	var hs histSeries
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, name+"_bucket{"):
			val, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			if err != nil {
				t.Fatalf("bad bucket line %q: %v", line, err)
			}
			if strings.Contains(line, `le="+Inf"`) {
				hs.inf, hs.hasInf = val, true
			} else {
				hs.buckets = append(hs.buckets, val)
			}
		case strings.HasPrefix(line, name+"_count"):
			val, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			if err != nil {
				t.Fatalf("bad count line %q: %v", line, err)
			}
			hs.count = val
		}
	}
	return hs
}

// TestMetricsHistograms drives queries through a table and checks the
// three histogram families on /metrics: present, cumulative buckets
// monotone, +Inf bucket equal to _count.
func TestMetricsHistograms(t *testing.T) {
	_, ts := newTestServer(t)
	loadSortedSharded(t, ts, "mh", 8_192, 2)
	const queries = 5
	for i := 0; i < queries; i++ {
		do(t, http.MethodPost, ts.URL+"/tables/mh/query", rangeQuery(0, 1000), http.StatusOK, nil)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)

	for _, fam := range []string{
		"progidx_query_duration_seconds",
		"progidx_batch_size",
		"progidx_slice_budget_spent",
	} {
		if !strings.Contains(text, fmt.Sprintf("# TYPE %s histogram", fam)) {
			t.Fatalf("/metrics missing histogram TYPE line for %s", fam)
		}
		hs := parseHistogram(t, text, fam)
		if !hs.hasInf {
			t.Fatalf("%s has no +Inf bucket", fam)
		}
		prev := 0.0
		for i, v := range hs.buckets {
			if v < prev {
				t.Errorf("%s bucket %d not cumulative: %v < %v", fam, i, v, prev)
			}
			prev = v
		}
		if hs.inf < prev {
			t.Errorf("%s +Inf bucket %v below last bucket %v", fam, hs.inf, prev)
		}
		if hs.inf != hs.count {
			t.Errorf("%s +Inf bucket %v != _count %v", fam, hs.inf, hs.count)
		}
	}
	qd := parseHistogram(t, text, "progidx_query_duration_seconds")
	if qd.count < queries {
		t.Errorf("query duration histogram counted %v observations, want >= %d", qd.count, queries)
	}
	// No durable store, so the WAL sync family must be absent.
	if strings.Contains(text, "progidx_wal_sync_seconds") {
		t.Error("/metrics exposes WAL sync histogram without a store")
	}
}

// TestHealthzRecovering drives the /healthz recovery body directly:
// with the server pinned in the recovering state, the endpoint answers
// 503 with per-table replay progress from the timeline's atomics.
func TestHealthzRecovering(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	tbl, err := srv.Load("rt", []int64{1, 2, 3}, catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv.boot.Store(bootRecovering)
	tbl.Obs().Timeline.SetReplayProgress(3, 10)

	var health HealthResponse
	do(t, http.MethodGet, ts.URL+"/healthz", nil, http.StatusServiceUnavailable, &health)
	if health.Status != "recovering" {
		t.Fatalf("status = %q, want recovering", health.Status)
	}
	rp, ok := health.Recovery["rt"]
	if !ok {
		t.Fatalf("recovery body missing table rt: %+v", health.Recovery)
	}
	if rp.FramesReplayed != 3 || rp.TailFrames != 10 {
		t.Errorf("replay progress %+v, want 3/10", rp)
	}

	srv.boot.Store(bootReady)
	var ready HealthResponse
	do(t, http.MethodGet, ts.URL+"/healthz", nil, http.StatusOK, &ready)
	if ready.Status != "ready" || len(ready.Recovery) != 0 {
		t.Errorf("ready healthz = %+v, want ready with no recovery map", ready)
	}
}

// TestReloadGetsItsOwnObservability pins that a table's observability
// state is its own, made with it and gone with it. Across a drop and a
// same-name reload, the reload's scheduler and /tables/{name}/debug read
// one obs.Table, the reload's, and its timeline holds none of the
// dropped table's events.
func TestReloadGetsItsOwnObservability(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	off := false
	opts := catalog.Options{Delta: 0.25, IdleRefine: &off}
	query := func() {
		t.Helper()
		lo, hi := int64(0), int64(500)
		do(t, http.MethodPost, ts.URL+"/tables/t/query", QueryRequest{Pred: PredSpec{Kind: "range", Lo: &lo, Hi: &hi}}, http.StatusOK, nil)
	}
	first, err := srv.Load("t", data.Uniform(4096, 1), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		query()
	}
	if len(first.Obs().Timeline.Snapshot()) == 0 {
		t.Fatal("three queries recorded no event")
	}
	do(t, http.MethodDelete, ts.URL+"/tables/t", nil, http.StatusNoContent, nil)
	dropped := time.Now()

	second, err := srv.Load("t", data.Uniform(4096, 2), opts)
	if err != nil {
		t.Fatal(err)
	}
	query()
	sched, _ := srv.Scheduler("t")
	if second.Obs() == first.Obs() || sched.tobs != second.Obs() {
		t.Fatalf("the reload's scheduler reads %p, the reload owns %p, the dropped table owned %p", sched.tobs, second.Obs(), first.Obs())
	}
	// A mark the scheduler records shows in the debug endpoint.
	sched.tobs.Timeline.Record(obs.EvShed, -1, 42, 0)
	var dbg TableDebug
	do(t, http.MethodGet, ts.URL+"/tables/t/debug", nil, http.StatusOK, &dbg)
	marked := false
	for _, e := range dbg.Events {
		if !e.At.After(dropped) {
			t.Errorf("the reload's timeline holds %s event %d from before the drop", e.Kind, e.Seq)
		}
		marked = marked || e.Kind == "shed" && e.Attrs["shed_requests"] == float64(42)
	}
	if !marked {
		t.Fatalf("the debug endpoint does not show the scheduler's mark: %+v", dbg.Events)
	}
}
