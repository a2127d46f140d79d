package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/column"
	"repro/internal/data"
	"repro/internal/encode"
	"repro/internal/oracle"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/shard"
)

// awaitQuiescent queries sched's table until one of its batches finds it
// with no index work left to hand out, so that its next queries take the
// route (Scheduler.route).
func awaitQuiescent(t testing.TB, sched *Scheduler) {
	t.Helper()
	probe := query.Conjunction{Preds: []query.ColPredicate{{Pred: query.Range(0, 100)}}, Aggs: column.AggCount}
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
		if _, ok, _ := sched.idx.ExecuteQuiescent(probe, nil); ok {
			return
		}
		if _, _, _, err := sched.ExecuteConj(context.Background(), probe, time.Time{}, false); err != nil || time.Now().After(deadline) {
			t.Fatalf("the table never became quiescent (%v)", err)
		}
	}
}

// post sends one JSON body and returns the status and response body.
func post(url string, body any) (int, []byte, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	return resp.StatusCode, payload, err
}

// TestQuiescentRouteClaimsColdShards pins the route's predicate: a
// compressed table whose shards are all cold has converged, but its
// queries must still go to the queue, whose batches claim a shard once
// they have heated it — were they routed, nothing would ever claim it.
func TestQuiescentRouteClaimsColdShards(t *testing.T) {
	srv, ts := newTestServer(t)
	vals := make([]int64, 8192)
	for i := range vals {
		vals[i] = int64(i)
	}
	if _, err := srv.Load("cold", vals, catalog.Options{Strategy: plan.StrategyQuicksort, Shards: 4, Encoding: encode.ModeFORBP}); err != nil {
		t.Fatal(err)
	}
	sched, _ := srv.Scheduler("cold")
	if !sched.idx.Converged() {
		t.Fatal("a table of cold shards should report converged")
	}
	for i := 0; i < 2*shard.ClaimHeat; i++ {
		do(t, http.MethodPost, ts.URL+"/tables/cold/query", rangeQuery(10, 20), http.StatusOK, nil)
	}
	var dbg TableDebug
	do(t, http.MethodGet, ts.URL+"/tables/cold/debug", nil, http.StatusOK, &dbg)
	if form := dbg.ShardInfo[0].Form; form == "cold" {
		t.Fatalf("shard 0 is still cold after %d queries heated it", 2*shard.ClaimHeat)
	}
}

// TestQuiescentRouteObservability: a query a quiescent table answers on
// the route still shows in a ?trace=1 span tree of the queue's shape —
// queue_wait, then execute → shard_fanout → shard — and in /stats' query
// count and latency window, as a batch of one that queued for 0 µs.
func TestQuiescentRouteObservability(t *testing.T) {
	srv, ts := newTestServer(t)
	loadSortedSharded(t, ts, "q", 8_192, 4)
	sched, _ := srv.Scheduler("q")
	awaitQuiescent(t, sched)
	before := sched.Metrics()

	var resp QueryResponse
	do(t, http.MethodPost, ts.URL+"/tables/q/query?trace=1", rangeQuery(0, 500), http.StatusOK, &resp)
	if resp.Trace == nil {
		t.Fatal("?trace=1 response has no trace")
	}
	root := resp.Trace.Root
	if len(root.Children) != 2 || root.Children[0].Name != "queue_wait" || len(root.Children[0].Children) != 0 || root.Children[1].Name != "execute" {
		t.Fatalf("routed query's trace root holds %+v, want queue_wait then execute", root.Children)
	}
	exec := jsonSpans(root, "execute")
	if len(exec) != 1 || len(jsonSpans(exec[0], "shard_fanout")) != 1 {
		t.Fatalf("trace lacks execute → shard_fanout: %+v", root)
	}
	if got, want := len(jsonSpans(exec[0], "shard")), resp.Stats.ShardsScanned+resp.Stats.ShardsPruned; got != want || got == 0 {
		t.Errorf("execute holds %d shard spans, stats cover %d shards", got, want)
	}
	if resp.BatchSize != 1 || resp.QueueMicros != 0 {
		t.Errorf("batch_size %d queue_us %d, want 1 and 0", resp.BatchSize, resp.QueueMicros)
	}

	var stats StatsResponse
	do(t, http.MethodGet, ts.URL+"/stats", nil, http.StatusOK, &stats)
	m := stats.Tables[0].Scheduler
	if m.Queries != before.Queries+1 || m.Batches != before.Batches+1 || m.LatencyWindow != before.LatencyWindow+1 {
		t.Errorf("/stats after one routed query: %+v, before %+v", m, before)
	}
}

// TestQuiescentRouteQuarantine: a panic while a quiescent table answers
// on the route quarantines that table as a panic in its loop does — the
// query gets ErrQuarantined, later queries and appends too, HTTP answers
// 503 — while a sibling table keeps serving exact answers on its route.
func TestQuiescentRouteQuarantine(t *testing.T) {
	srv := New(Config{Logger: slog.New(slog.DiscardHandler)})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	baseB := data.Uniform(3000, 11)
	schedA := loadRobust(t, srv, "a", data.Uniform(3000, 10))
	schedB := loadRobust(t, srv, "b", baseB)
	awaitQuiescent(t, schedA)
	awaitQuiescent(t, schedB)

	probe := query.Conjunction{Preds: []query.ColPredicate{{Pred: query.Point(1)}}}
	_, _, _, err := schedA.submit(context.Background(), &task{conj: probe, panicTest: true, enqueued: time.Now()}, false)
	if !errors.Is(err, ErrQuarantined) {
		t.Fatalf("panicking routed query = %v, want ErrQuarantined", err)
	}
	if st := schedA.State(); st != StateQuarantined {
		t.Fatalf("State = %v, want quarantined", st)
	}
	if _, _, err := schedA.Execute(context.Background(), query.Request{Pred: query.Point(1)}); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("query on quarantined table = %v, want ErrQuarantined", err)
	}
	if _, _, err := schedA.Append(context.Background(), []int64{1}); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("append on quarantined table = %v, want ErrQuarantined", err)
	}
	if status, body, err := post(ts.URL+"/tables/a/query", rangeQuery(0, 100)); err != nil || status != http.StatusServiceUnavailable {
		t.Fatalf("HTTP query on quarantined table = %d %s (%v), want 503", status, body, err)
	}

	q := query.Request{Pred: query.Range(0, 10_000_000), Aggs: column.AggSum | column.AggCount}
	want := oracle.Answer(baseB, q)
	got, info, err := schedB.Execute(context.Background(), q)
	if err != nil || !answersMatch(got, want) || info.Batch != 1 {
		t.Fatalf("sibling answer %+v (batch %d, %v), want %+v", got, info.Batch, err, want)
	}
	if schedB.State() != StateOK {
		t.Fatalf("sibling State = %v", schedB.State())
	}
}
