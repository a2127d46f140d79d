package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/column"
	"repro/internal/data"
	"repro/internal/oracle"
	"repro/internal/query"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func do(t *testing.T, method, url string, body any, wantStatus int, out any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d (want %d): %s", method, url, resp.StatusCode, wantStatus, payload)
	}
	if out != nil {
		if err := json.Unmarshal(payload, out); err != nil {
			t.Fatalf("%s %s: decode: %v (%s)", method, url, err, payload)
		}
	}
}

// TestHTTPEndToEnd loads a table over HTTP, in process, query it from 8 concurrent sessions, and require
// every JSON answer to match the library executed locally on the same
// data.
func TestHTTPEndToEnd(t *testing.T) {
	_, ts := newTestServer(t)
	const n = 30_000

	load := LoadRequest{
		Name:     "e2e",
		Generate: &GenerateSpec{Kind: "uniform", N: n, Seed: 5},
		Options:  &OptionsSpec{Strategy: "PMSD", Delta: 0.3},
	}
	do(t, http.MethodPost, ts.URL+"/tables", load, http.StatusCreated, nil)

	vals := data.Uniform(n, 5)

	var wg sync.WaitGroup
	for session := 0; session < 8; session++ {
		wg.Add(1)
		go func(session int) {
			defer wg.Done()
			for q := 0; q < 15; q++ {
				lo := int64((session*1000 + q*700) % n)
				hi := lo + 4000
				var resp QueryResponse
				do(t, http.MethodPost, ts.URL+"/tables/e2e/query", QueryRequest{
					Pred: PredSpec{Kind: "range", Lo: &lo, Hi: &hi},
					Aggs: []string{"sum", "count", "min", "max", "avg"},
				}, http.StatusOK, &resp)
				want := oracle.Answer(vals, query.Request{Pred: query.Range(lo, hi), Aggs: column.AggAll})
				if resp.Count != want.Count || resp.Sum == nil || *resp.Sum != want.Sum {
					t.Errorf("sum/count mismatch for [%d,%d]: got %v/%d", lo, hi, resp.Sum, resp.Count)
					return
				}
				if mn, ok := want.MinOk(); ok && (resp.Min == nil || *resp.Min != mn) {
					t.Errorf("min mismatch for [%d,%d]", lo, hi)
					return
				}
				if av, ok := want.AvgOk(); ok && (resp.Avg == nil || *resp.Avg != av) {
					t.Errorf("avg mismatch for [%d,%d]", lo, hi)
					return
				}
				if resp.BatchSize < 1 {
					t.Errorf("batch_size %d < 1", resp.BatchSize)
					return
				}
			}
		}(session)
	}
	wg.Wait()

	// Stats reflect the traffic and, with idle refinement on, the table
	// converges shortly after the burst with no further queries.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var stats StatsResponse
		do(t, http.MethodGet, ts.URL+"/stats", nil, http.StatusOK, &stats)
		if len(stats.Tables) != 1 {
			t.Fatalf("stats tables = %d", len(stats.Tables))
		}
		e2e := stats.Tables[0]
		if e2e.Scheduler.Queries != 8*15 {
			t.Fatalf("stats queries = %d, want %d", e2e.Scheduler.Queries, 8*15)
		}
		if e2e.Converged && e2e.Progress == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("table never converged via idle refinement (progress %.3f)", e2e.Progress)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Prometheus exposition carries the same signals.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`progidx_table_convergence{table="e2e"} 1`,
		`progidx_table_queries_total{table="e2e"} 120`,
		"progidx_table_latency_p99_seconds",
	} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
}

func TestHTTPTableLifecycleAndErrors(t *testing.T) {
	_, ts := newTestServer(t)

	// Inline values load.
	do(t, http.MethodPost, ts.URL+"/tables", LoadRequest{
		Name:   "tiny",
		Values: []int64{5, 3, 9, 1, 7},
	}, http.StatusCreated, nil)

	// Point query against known data.
	v := int64(9)
	var resp QueryResponse
	do(t, http.MethodPost, ts.URL+"/tables/tiny/query", QueryRequest{
		Pred: PredSpec{Kind: "point", Value: &v},
	}, http.StatusOK, &resp)
	if resp.Count != 1 || resp.Sum == nil || *resp.Sum != 9 {
		t.Fatalf("point answer = %+v", resp)
	}

	// Listing and info.
	var list struct {
		Tables []json.RawMessage `json:"tables"`
	}
	do(t, http.MethodGet, ts.URL+"/tables", nil, http.StatusOK, &list)
	if len(list.Tables) != 1 {
		t.Fatalf("list has %d tables", len(list.Tables))
	}
	do(t, http.MethodGet, ts.URL+"/tables/tiny", nil, http.StatusOK, nil)

	// Errors: duplicate name, unknown table, bad specs.
	do(t, http.MethodPost, ts.URL+"/tables", LoadRequest{Name: "tiny", Values: []int64{1}},
		http.StatusConflict, nil)
	do(t, http.MethodGet, ts.URL+"/tables/ghost", nil, http.StatusNotFound, nil)
	do(t, http.MethodPost, ts.URL+"/tables/ghost/query", QueryRequest{
		Pred: PredSpec{Kind: "point", Value: &v},
	}, http.StatusNotFound, nil)
	do(t, http.MethodPost, ts.URL+"/tables", LoadRequest{Name: "bad"},
		http.StatusBadRequest, nil)
	do(t, http.MethodPost, ts.URL+"/tables", LoadRequest{
		Name: "bad", Generate: &GenerateSpec{Kind: "nope", N: 10},
	}, http.StatusBadRequest, nil)
	do(t, http.MethodPost, ts.URL+"/tables", LoadRequest{
		Name: "bad", Values: []int64{1}, Options: &OptionsSpec{Strategy: "XX"},
	}, http.StatusBadRequest, nil)
	var refused struct{ Error string }
	do(t, http.MethodPost, ts.URL+"/tables", LoadRequest{Name: "bad", Values: []int64{1}, Options: &OptionsSpec{Strategy: "FS"}}, http.StatusBadRequest, &refused)
	if !strings.Contains(refused.Error, "cmd/experiments") {
		t.Fatalf("a table of FS: %q, want the refusal that names cmd/experiments", refused.Error)
	}
	do(t, http.MethodPost, ts.URL+"/tables/tiny/query", QueryRequest{
		Pred: PredSpec{Kind: "range"}, // missing lo/hi
	}, http.StatusBadRequest, nil)
	do(t, http.MethodPost, ts.URL+"/tables/tiny/query", QueryRequest{
		Pred: PredSpec{Kind: "point", Value: &v}, Aggs: []string{"median"},
	}, http.StatusBadRequest, nil)

	// Drop, then the table is gone.
	do(t, http.MethodDelete, ts.URL+"/tables/tiny", nil, http.StatusNoContent, nil)
	do(t, http.MethodDelete, ts.URL+"/tables/tiny", nil, http.StatusNotFound, nil)
	do(t, http.MethodGet, ts.URL+"/tables/tiny", nil, http.StatusNotFound, nil)
}

func TestHTTPHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	var health map[string]string
	do(t, http.MethodGet, ts.URL+"/healthz", nil, http.StatusOK, &health)
	if health["status"] != "ready" {
		t.Fatalf("healthz = %v", health)
	}
}

// TestServerCloseStopsSchedulers: after Close, queries fail but the
// catalog endpoints still answer.
func TestServerCloseStopsSchedulers(t *testing.T) {
	srv, ts := newTestServer(t)
	do(t, http.MethodPost, ts.URL+"/tables", LoadRequest{
		Name: "c", Values: data.Uniform(1000, 1),
	}, http.StatusCreated, nil)
	srv.Close()
	v := int64(1)
	do(t, http.MethodPost, ts.URL+"/tables/c/query", QueryRequest{
		Pred: PredSpec{Kind: "point", Value: &v},
	}, http.StatusNotFound, nil) // scheduler map cleared by Close
	do(t, http.MethodGet, ts.URL+"/tables", nil, http.StatusOK, nil)
	if _, err := srv.Load("late", []int64{1}, catalog.Options{}); err == nil {
		t.Fatal("Load after Close should fail")
	}
}

// TestHTTPAppend drives the ingest endpoint end to end: append rows
// over HTTP, read them back with a query, and watch the table info and
// metrics track the growth.
func TestHTTPAppend(t *testing.T) {
	for _, shards := range []int{0, 4} {
		srv, ts := newTestServer(t)
		_ = srv
		name := fmt.Sprintf("ing%d", shards)
		do(t, "POST", ts.URL+"/tables", LoadRequest{
			Name:     name,
			Generate: &GenerateSpec{N: 10_000, Seed: 5},
			Options:  &OptionsSpec{Strategy: "PQ", Delta: 0.25, Shards: shards},
		}, http.StatusCreated, nil)

		var ar AppendResponse
		do(t, "POST", ts.URL+"/tables/"+name+"/append",
			AppendRequest{Values: []int64{70_001, 70_002, 70_003}}, http.StatusOK, &ar)
		if ar.Appended != 3 || ar.Rows != 10_003 || ar.BatchSize < 1 {
			t.Fatalf("shards=%d: append response = %+v", shards, ar)
		}

		var qr QueryResponse
		lo, hi := int64(70_001), int64(70_003)
		do(t, "POST", ts.URL+"/tables/"+name+"/query",
			QueryRequest{Pred: PredSpec{Kind: "range", Lo: &lo, Hi: &hi}, Aggs: []string{"sum", "count"}},
			http.StatusOK, &qr)
		if qr.Count != 3 || qr.Sum == nil || *qr.Sum != 210_006 {
			t.Fatalf("shards=%d: appended rows not served: %+v", shards, qr)
		}

		var info catalog.Info
		do(t, "GET", ts.URL+"/tables/"+name, nil, http.StatusOK, &info)
		if info.Rows != 10_003 || info.Appends != 1 || info.AppendedRows != 3 {
			t.Fatalf("shards=%d: info = %+v", shards, info)
		}
		if info.MaxValue != 70_003 {
			t.Fatalf("shards=%d: info.MaxValue = %d, want 70003", shards, info.MaxValue)
		}

		// Ingest metric families render.
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, family := range []string{"progidx_table_appends_total", "progidx_table_append_rows_total", "progidx_table_pending_rows"} {
			if !bytes.Contains(body, []byte(family)) {
				t.Fatalf("shards=%d: /metrics missing %s:\n%s", shards, family, body)
			}
		}

		// Validation: empty append is a 400, unknown table a 404.
		do(t, "POST", ts.URL+"/tables/"+name+"/append", AppendRequest{}, http.StatusBadRequest, nil)
		do(t, "POST", ts.URL+"/tables/nosuch/append", AppendRequest{Values: []int64{1}}, http.StatusNotFound, nil)
	}
}

// TestLoadCapRefusedBeforeGenerating: a generate spec for more rows than
// the load cap, or for none, is a 400 that loads no table. The cap is
// checked before any row is generated, so asking for one row too many
// costs nothing.
func TestLoadCapRefusedBeforeGenerating(t *testing.T) {
	srv, ts := newTestServer(t)
	for _, n := range []int{maxLoadRows + 1, 0} {
		load := LoadRequest{Name: "capped", Generate: &GenerateSpec{N: n, Seed: 1}}
		do(t, http.MethodPost, ts.URL+"/tables", load, http.StatusBadRequest, nil)
		if _, ok := srv.Scheduler("capped"); ok {
			t.Fatalf("generate.n %d: the refused load left a table", n)
		}
	}
}
