// Command loadgen drives a running progidxd with N concurrent query
// sessions against one table, verifying every server answer against
// the library executed locally (the data is generated from a shared
// seed, so client and server hold identical columns). It is both the
// demo client for the serving layer and the CI end-to-end smoke test:
// it exits non-zero on any transport error or answer mismatch.
//
// With -writers > 0 it runs a mixed reader/writer workload: writer
// sessions ingest batches through POST /tables/{name}/append and check
// the server against a growing oracle. Every writer owns a value range
// disjoint from the loaded data and from the other writers, so exact
// answers stay checkable for everyone while the table grows: readers
// keep verifying the loaded domain (invariant under appends), and each
// writer verifies the rows it has appended so far (count and closed-
// form sum over its private range — nobody else writes there).
//
// With -columns >= 2 it exercises the multi-column surface instead:
// the table is loaded from the correlated generator with a c0..c{k-1}
// schema, reader sessions issue composite queries (a range on the
// clustered c0 plus extra predicates on the other columns, aggregated
// over a random target column) and verify each answer against a
// brute-force scan of the locally regenerated rows, and writers append
// whole tuples through the Rows form. Writer tuples carry one strictly
// increasing value replicated across every column, so the closed-form
// count/sum checks work unchanged — issued as composite queries so the
// planner path, not the legacy one, serves them.
//
// With -verify-only it loads nothing: it expects the table to already
// exist on the server (recovered from a durable -datadir after a crash
// or restart) with the same -n/-seed/-writers/-appends/-append-batch a
// previous run used, rebuilds the identical local oracle, and verifies
// reader queries plus every writer's closed-form range — the crash-
// recovery end of the CI smoke test.
//
// Before doing anything it polls /healthz until the server reports
// ready (a durable daemon answers 503 while it replays its WAL), so it
// can be pointed at a just-started progidxd without racing recovery.
//
// Usage:
//
//	loadgen -addr 127.0.0.1:7171 -n 200000 -sessions 8 -queries 50
//	loadgen -addr 127.0.0.1:7171 -n 200000 -sessions 8 -writers 2 -shards 4
//	loadgen -addr 127.0.0.1:7171 -n 200000 -writers 2 -verify-only
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/data"
	"repro/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7171", "progidxd address (host:port)")
		table      = flag.String("table", "loadgen", "table name to create and query")
		n          = flag.Int("n", 200_000, "rows in the generated table")
		seed       = flag.Int64("seed", 7, "data generator seed (shared with the server)")
		strategy   = flag.String("strategy", "PQ", "index strategy: PQ, PMSD, PB or PLSD (a table serves only the four progressive algorithms)")
		delta      = flag.Float64("delta", 0.25, "indexing fraction per query")
		shards     = flag.Int("shards", 0, "range-partition the table into this many index shards (0 = unsharded)")
		columns    = flag.Int("columns", 1, "columns per row (>= 2 loads a multi-column table and issues composite queries)")
		encoding   = flag.String("encoding", "", "columnar encoding for the table (raw, auto, forbp, dict; empty = raw)")
		sessions   = flag.Int("sessions", 8, "concurrent query sessions")
		queries    = flag.Int("queries", 50, "queries per session")
		writers    = flag.Int("writers", 0, "concurrent writer sessions appending rows while readers query")
		appends    = flag.Int("appends", 10, "append batches per writer session")
		batchLen   = flag.Int("append-batch", 50, "rows per append batch")
		check      = flag.Bool("check", true, "verify every answer against the local library oracle")
		keep       = flag.Bool("keep", false, "leave the table loaded when done")
		verifyOnly = flag.Bool("verify-only", false, "skip load and appends; verify an existing (recovered) table against the oracle for the same flags")
		waitReady  = flag.Duration("wait-ready", 30*time.Second, "poll /healthz until the server reports ready (0 = don't wait)")
		deadline   = flag.Int("deadline-ms", 0, "per-query deadline_ms sent with reader queries (0 = none)")
		retries    = flag.Int("retries", 8, "max retries when the server sheds a request with 429")
	)
	flag.Parse()
	maxRetries = *retries

	base := "http://" + *addr
	client := &http.Client{Timeout: 60 * time.Second}

	if err := waitForReady(client, base, *waitReady); err != nil {
		fatal("%v", err)
	}

	// Load the table server-side from the shared generator spec, and
	// build the local oracle over the identical rows. In verify-only
	// mode the table already exists server-side (recovered from a
	// durable datadir); only the local oracle is rebuilt.
	k := *columns
	if k < 1 {
		k = 1
	}
	mc := k > 1
	var (
		vals []int64 // single-column mode
		flat []int64 // multi-column mode: row-major tuples
	)
	if mc {
		flat = data.MultiColumn(*n, k, *seed)
	} else {
		vals = data.Uniform(*n, *seed)
	}
	if *verifyOnly {
		fmt.Printf("loadgen: verify-only against existing %q (%d loaded rows expected) on %s\n", *table, *n, *addr)
	} else {
		kind := "uniform"
		var schema []string
		if mc {
			kind = "correlated"
			schema = colNames(k)
		}
		loadBody := server.LoadRequest{
			Name:     *table,
			Generate: &server.GenerateSpec{Kind: kind, N: *n, Seed: *seed},
			Options:  &server.OptionsSpec{Strategy: *strategy, Delta: *delta, Shards: *shards, Encoding: *encoding, Columns: schema},
		}
		if err := postJSON(client, base+"/tables", loadBody, nil, http.StatusCreated); err != nil {
			fatal("load table: %v", err)
		}
		enc := *encoding
		if enc == "" {
			enc = "raw"
		}
		fmt.Printf("loadgen: loaded %q (%d rows × %d cols, %s, δ=%g, shards=%d, encoding=%s) on %s\n", *table, *n, k, *strategy, *delta, *shards, enc, *addr)
	}

	var oracle progidx.Index
	if *check && !mc {
		// A full scan of an immutable column is stateless: the sessions share it.
		oracle = progidx.MustNew(vals, progidx.Options{Strategy: progidx.StrategyFullScan})
	}

	var (
		wg           sync.WaitGroup
		mismatches   atomic.Uint64
		failures     atomic.Uint64
		latMu        sync.Mutex
		latencies    []time.Duration
		perSession   []sessionSummary
		batchSum     atomic.Uint64
		appendedRows atomic.Uint64
		writerChecks atomic.Uint64
	)
	writerMode := *writers > 0
	queryURL := base + "/tables/" + *table + "/query"
	if *deadline > 0 {
		queryURL += fmt.Sprintf("?deadline_ms=%d", *deadline)
	}
	start := time.Now()
	for g := 0; g < *sessions; g++ {
		wg.Add(1)
		go func(session int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed*1000 + int64(session)))
			local := make([]time.Duration, 0, *queries)
			errs := 0
			for q := 0; q < *queries; q++ {
				var (
					req    progidx.Request
					preds  []mcPred
					target int
					wire   server.QueryRequest
				)
				if mc {
					preds, target, wire = mcRandomQuery(rng, int64(*n), k)
				} else {
					req, wire = randomQuery(rng, int64(*n), writerMode)
				}
				qs := time.Now()
				var resp server.QueryResponse
				err := postJSON(client, queryURL, wire, &resp, http.StatusOK)
				local = append(local, time.Since(qs))
				if err != nil {
					failures.Add(1)
					errs++
					fmt.Fprintf(os.Stderr, "loadgen: session %d query %d: %v\n", session, q, err)
					continue
				}
				batchSum.Add(uint64(resp.BatchSize))
				switch {
				case mc && *check && !mcMatches(flat, k, preds, target, resp):
					mismatches.Add(1)
					fmt.Fprintf(os.Stderr, "loadgen: session %d query %d: composite answer mismatch (%d predicates, target c%d)\n",
						session, q, len(preds), target)
				case !mc && oracle != nil && !matches(oracle, req, resp):
					mismatches.Add(1)
					fmt.Fprintf(os.Stderr, "loadgen: session %d query %d: answer mismatch for %v\n",
						session, q, req.Pred)
				}
			}
			sorted := append([]time.Duration(nil), local...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			sum := sessionSummary{id: session, errors: errs}
			if len(sorted) > 0 {
				sum.p50, sum.p99 = pct(sorted, 0.50), pct(sorted, 0.99)
			}
			latMu.Lock()
			latencies = append(latencies, local...)
			perSession = append(perSession, sum)
			latMu.Unlock()
		}(g)
	}
	// Writer sessions: each owns the value range [base, base+span) —
	// above the loaded domain (and the readers' bounded predicates) and
	// disjoint from every other writer — appending strictly increasing
	// values, so the rows it has written so far have a closed-form
	// count and sum it verifies after every batch. In verify-only mode
	// nothing is appended: a previous run wrote (and was acked for) the
	// full span, so the check runs once against the complete range.
	for w := 0; w < *writers; w++ {
		wg.Add(1)
		go func(writer int) {
			defer wg.Done()
			span := int64(*appends * *batchLen)
			wbase := 2*int64(*n) + int64(writer)*span
			if *verifyOnly {
				appendedRows.Add(uint64(span))
				if !*check {
					return
				}
				lo, hi := wbase, wbase+span-1
				var resp server.QueryResponse
				err := postJSON(client, base+"/tables/"+*table+"/query",
					writerRangeQuery(mc, k, lo, hi), &resp, http.StatusOK)
				if err != nil {
					failures.Add(1)
					fmt.Fprintf(os.Stderr, "loadgen: writer %d verify: %v\n", writer, err)
					return
				}
				wantSum := span * (2*wbase + span - 1) / 2
				ok := resp.Count == span &&
					resp.Sum != nil && *resp.Sum == wantSum &&
					resp.Min != nil && *resp.Min == wbase &&
					resp.Max != nil && *resp.Max == wbase+span-1
				if !ok {
					mismatches.Add(1)
					fmt.Fprintf(os.Stderr, "loadgen: writer %d: recovered range [%d,%d] mismatch: %+v\n",
						writer, lo, hi, resp)
				}
				writerChecks.Add(1)
				return
			}
			written := int64(0)
			for a := 0; a < *appends; a++ {
				batch := make([]int64, *batchLen)
				for i := range batch {
					batch[i] = wbase + written + int64(i)
				}
				// Multi-column tables ingest whole tuples: the writer's
				// value replicated across every column, so the closed-form
				// checks hold for any target column.
				areq := server.AppendRequest{Values: batch}
				if mc {
					rows := make([][]int64, len(batch))
					for i, v := range batch {
						row := make([]int64, k)
						for c := range row {
							row[c] = v
						}
						rows[i] = row
					}
					areq = server.AppendRequest{Rows: rows, Values: nil}
				}
				var ar server.AppendResponse
				if err := postJSON(client, base+"/tables/"+*table+"/append",
					areq, &ar, http.StatusOK); err != nil {
					failures.Add(1)
					fmt.Fprintf(os.Stderr, "loadgen: writer %d append %d: %v\n", writer, a, err)
					continue
				}
				written += int64(len(batch))
				appendedRows.Add(uint64(len(batch)))
				if !*check {
					continue
				}
				// Growing-oracle check: exactly the rows this writer has
				// appended live in its range, values wbase..wbase+written-1.
				lo, hi := wbase, wbase+written-1
				var resp server.QueryResponse
				err := postJSON(client, base+"/tables/"+*table+"/query",
					writerRangeQuery(mc, k, lo, hi), &resp, http.StatusOK)
				if err != nil {
					failures.Add(1)
					fmt.Fprintf(os.Stderr, "loadgen: writer %d check %d: %v\n", writer, a, err)
					continue
				}
				wantSum := written * (2*wbase + written - 1) / 2
				ok := resp.Count == written &&
					resp.Sum != nil && *resp.Sum == wantSum &&
					resp.Min != nil && *resp.Min == wbase &&
					resp.Max != nil && *resp.Max == wbase+written-1
				if !ok {
					mismatches.Add(1)
					fmt.Fprintf(os.Stderr, "loadgen: writer %d: growing oracle mismatch after %d rows: %+v\n",
						writer, written, resp)
				}
				writerChecks.Add(1)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	total := *sessions * *queries
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	fmt.Printf("loadgen: %d sessions × %d queries in %v (%.0f qps)\n",
		*sessions, *queries, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds())
	if len(latencies) > 0 {
		fmt.Printf("loadgen: latency p50=%v p95=%v p99=%v max=%v  mean batch=%.2f\n",
			pct(latencies, 0.50), pct(latencies, 0.95), pct(latencies, 0.99),
			latencies[len(latencies)-1],
			float64(batchSum.Load())/float64(total-int(failures.Load())))
	}

	// End-of-run summary: per-session quantiles and error counts, then
	// the aggregate throughput split by traffic kind.
	sort.Slice(perSession, func(i, j int) bool { return perSession[i].id < perSession[j].id })
	for _, ss := range perSession {
		fmt.Printf("loadgen: session %2d: p50=%v p99=%v errors=%d\n", ss.id, ss.p50, ss.p99, ss.errors)
	}
	fmt.Printf("loadgen: throughput: %.0f queries/s", float64(total)/elapsed.Seconds())
	if appendedRows.Load() > 0 && !*verifyOnly {
		fmt.Printf(", %.0f appended rows/s", float64(appendedRows.Load())/elapsed.Seconds())
	}
	fmt.Printf("; %d transport errors\n", failures.Load())
	if shedCount.Load() > 0 {
		fmt.Printf("loadgen: overload: %d requests shed (429), %d retried after backoff\n",
			shedCount.Load(), retryCount.Load())
	}

	if writerMode {
		if *verifyOnly {
			fmt.Printf("loadgen: verified %d recovered writer ranges (%d rows, %d checks) in %v\n",
				*writers, appendedRows.Load(), writerChecks.Load(), elapsed.Round(time.Millisecond))
		} else {
			fmt.Printf("loadgen: %d writers appended %d rows (%d growing-oracle checks)\n",
				*writers, appendedRows.Load(), writerChecks.Load())
		}
	}
	if *verifyOnly {
		fmt.Printf("loadgen: recovery check completed in %v\n", elapsed.Round(time.Millisecond))
	}

	var info struct {
		Rows         int     `json:"rows"`
		Appends      uint64  `json:"appends"`
		AppendedRows uint64  `json:"appended_rows"`
		Converged    bool    `json:"converged"`
		Progress     float64 `json:"convergence"`
		Phase        string  `json:"phase"`
		IdleRefine   bool    `json:"idle_refine"`
	}
	if err := getJSON(client, base+"/tables/"+*table, &info); err == nil {
		fmt.Printf("loadgen: table rows=%d appended=%d phase=%s convergence=%.2f converged=%v idle_refine=%v\n",
			info.Rows, info.AppendedRows, info.Phase, info.Progress, info.Converged, info.IdleRefine)
		if writerMode {
			if want := uint64(*n) + appendedRows.Load(); uint64(info.Rows) != want {
				fatal("table rows %d after ingest, want %d", info.Rows, want)
			}
			if info.AppendedRows != appendedRows.Load() {
				fatal("table appended_rows %d, want %d", info.AppendedRows, appendedRows.Load())
			}
		}
	}

	// Verify-only runs never drop: the recovered table (and its on-disk
	// state) belongs to whoever loaded it.
	if !*keep && !*verifyOnly {
		req, _ := http.NewRequest(http.MethodDelete, base+"/tables/"+*table, nil)
		if resp, err := client.Do(req); err == nil {
			resp.Body.Close()
		}
	}

	if failures.Load() > 0 || mismatches.Load() > 0 {
		fatal("%d transport failures, %d answer mismatches", failures.Load(), mismatches.Load())
	}
	if oracle != nil {
		fmt.Printf("loadgen: all %d answers match the library oracle\n", total)
	}
}

// randomQuery builds one request in both library and wire forms: a mix
// of range scans of varying selectivity, open-ended ranges, and point
// probes, with varying aggregate sets. In writer mode (bounded = true)
// the open-ended AtLeast is replaced by AtMost: writers append values
// above 2n while the local oracle holds only the loaded column, so
// reader predicates must stay below the writers' ranges (Range tops
// out below 2n; Point and AtMost stay within the loaded domain) for
// exact checking to remain possible while the table grows.
func randomQuery(rng *rand.Rand, n int64, bounded bool) (progidx.Request, server.QueryRequest) {
	var (
		pred progidx.Predicate
		spec server.PredSpec
	)
	switch rng.Intn(8) {
	case 0:
		v := rng.Int63n(n)
		pred, spec = progidx.Point(v), server.PredSpec{Kind: "point", Value: &v}
	case 1:
		v := rng.Int63n(n)
		if bounded {
			pred, spec = progidx.AtMost(v), server.PredSpec{Kind: "atmost", Value: &v}
		} else {
			pred, spec = progidx.AtLeast(v), server.PredSpec{Kind: "atleast", Value: &v}
		}
	case 2:
		v := rng.Int63n(n)
		pred, spec = progidx.AtMost(v), server.PredSpec{Kind: "atmost", Value: &v}
	default:
		lo := rng.Int63n(n)
		hi := lo + rng.Int63n(n/4+1)
		pred, spec = progidx.Range(lo, hi), server.PredSpec{Kind: "range", Lo: &lo, Hi: &hi}
	}
	var (
		aggs  progidx.Aggregates
		names []string
	)
	if rng.Intn(2) == 0 {
		aggs, names = progidx.Sum|progidx.Count, []string{"sum", "count"}
	} else {
		aggs, names = progidx.AllAggregates, []string{"sum", "count", "min", "max", "avg"}
	}
	return progidx.Request{Pred: pred, Aggs: aggs}, server.QueryRequest{Pred: spec, Aggs: names}
}

// colNames is the schema used for multi-column runs: c0..c{k-1},
// matching what -verify-only must reconstruct after a restart.
func colNames(k int) []string {
	names := make([]string, k)
	for i := range names {
		names[i] = fmt.Sprintf("c%d", i)
	}
	return names
}

// mcPred is one column predicate in local (oracle) form: an inclusive
// value window on one column, with open ends at the int64 extremes.
type mcPred struct {
	col    int
	lo, hi int64
}

// mcRandomQuery builds a composite query in both oracle and wire
// forms: always a bounded range on the clustered c0 — which keeps the
// conjunction disjoint from writer tuples (all above 2n) even while
// the table grows — plus a coin-flipped extra predicate per remaining
// column, aggregated over a random target column.
func mcRandomQuery(rng *rand.Rand, n int64, k int) ([]mcPred, int, server.QueryRequest) {
	lo := rng.Int63n(n)
	hi := lo + rng.Int63n(n/8+1)
	preds := []mcPred{{col: 0, lo: lo, hi: hi}}
	wire := server.QueryRequest{
		Predicates: []server.ColPredSpec{
			{Col: "c0", PredSpec: server.PredSpec{Kind: "range", Lo: &lo, Hi: &hi}},
		},
		Aggs: []string{"sum", "count", "min", "max"},
	}
	for c := 1; c < k; c++ {
		if rng.Intn(2) != 0 {
			continue
		}
		name := fmt.Sprintf("c%d", c)
		v := rng.Int63n(n)
		switch rng.Intn(3) {
		case 0:
			w := v + rng.Int63n(n/2+1)
			preds = append(preds, mcPred{col: c, lo: v, hi: w})
			wire.Predicates = append(wire.Predicates, server.ColPredSpec{
				Col: name, PredSpec: server.PredSpec{Kind: "range", Lo: &v, Hi: &w}})
		case 1:
			preds = append(preds, mcPred{col: c, lo: v, hi: int64(1)<<62 - 1})
			wire.Predicates = append(wire.Predicates, server.ColPredSpec{
				Col: name, PredSpec: server.PredSpec{Kind: "atleast", Value: &v}})
		default:
			preds = append(preds, mcPred{col: c, lo: -(int64(1) << 62), hi: v})
			wire.Predicates = append(wire.Predicates, server.ColPredSpec{
				Col: name, PredSpec: server.PredSpec{Kind: "atmost", Value: &v}})
		}
	}
	target := rng.Intn(k)
	wire.Target = fmt.Sprintf("c%d", target)
	return preds, target, wire
}

// mcMatches verifies a composite answer against a brute-force scan of
// the locally regenerated rows: a row matches when every predicate
// accepts its column value, and the target column's values of the
// matches feed count/sum/min/max.
func mcMatches(flat []int64, k int, preds []mcPred, target int, resp server.QueryResponse) bool {
	var (
		count, sum int64
		mn         = int64(math.MaxInt64)
		mx         = int64(math.MinInt64)
	)
	rows := len(flat) / k
	for i := 0; i < rows; i++ {
		ok := true
		for _, p := range preds {
			v := flat[i*k+p.col]
			if v < p.lo || v > p.hi {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		tv := flat[i*k+target]
		count++
		sum += tv
		if tv < mn {
			mn = tv
		}
		if tv > mx {
			mx = tv
		}
	}
	if resp.Count != count {
		return false
	}
	if resp.Sum == nil || *resp.Sum != sum {
		return false
	}
	if count > 0 {
		if resp.Min == nil || *resp.Min != mn {
			return false
		}
		if resp.Max == nil || *resp.Max != mx {
			return false
		}
	}
	return true
}

// writerRangeQuery is the writers' closed-form check in wire form: the
// legacy single-predicate query on one-column tables, and the same
// range as a composite query (predicate on c0, aggregate over the last
// column) on multi-column tables, so the planner path serves it.
func writerRangeQuery(mc bool, k int, lo, hi int64) server.QueryRequest {
	qr := server.QueryRequest{Aggs: []string{"sum", "count", "min", "max"}}
	if mc {
		qr.Predicates = []server.ColPredSpec{
			{Col: "c0", PredSpec: server.PredSpec{Kind: "range", Lo: &lo, Hi: &hi}},
		}
		qr.Target = fmt.Sprintf("c%d", k-1)
	} else {
		qr.Pred = server.PredSpec{Kind: "range", Lo: &lo, Hi: &hi}
	}
	return qr
}

// matches replays req on the local oracle index and compares every
// requested aggregate with the server's response.
func matches(oracle progidx.Index, req progidx.Request, resp server.QueryResponse) bool {
	want, err := oracle.Execute(req)
	if err != nil {
		return false
	}
	if resp.Count != want.Count {
		return false
	}
	if want.Aggs.Has(progidx.Sum) && (resp.Sum == nil || *resp.Sum != want.Sum) {
		return false
	}
	if v, ok := want.MinOk(); ok && (resp.Min == nil || *resp.Min != v) {
		return false
	}
	if v, ok := want.MaxOk(); ok && (resp.Max == nil || *resp.Max != v) {
		return false
	}
	if v, ok := want.AvgOk(); ok && (resp.Avg == nil || *resp.Avg != v) {
		return false
	}
	return true
}

// waitForReady polls /healthz until the server answers 200 ("ready"):
// a durable progidxd serves 503 starting/recovering while it replays
// its WAL, and a just-exec'd one may not be listening at all yet.
func waitForReady(client *http.Client, base string, timeout time.Duration) error {
	if timeout <= 0 {
		return nil
	}
	deadline := time.Now().Add(timeout)
	last := "no response yet"
	for {
		resp, err := client.Get(base + "/healthz")
		if err != nil {
			last = err.Error()
		} else {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			last = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready after %v (%s)", timeout, last)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// sessionSummary is one query session's end-of-run line: its latency
// quantiles and how many of its requests failed in transport.
type sessionSummary struct {
	id       int
	p50, p99 time.Duration
	errors   int
}

func pct(sorted []time.Duration, q float64) time.Duration {
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i].Round(time.Microsecond)
}

// Overload accounting: a 429 is load shedding, not a failure — the
// server is explicitly asking the client to slow down, and a client
// that counts it as an error (or hammers on regardless) defeats the
// protection. postJSON honors the Retry-After hint with jittered
// backoff and retries up to maxRetries times; only exhausting the
// retry budget surfaces as an error.
var (
	shedCount  atomic.Uint64 // 429 responses received
	retryCount atomic.Uint64 // backoff-then-retry cycles taken
	maxRetries int           // set from -retries in main
)

func postJSON(client *http.Client, url string, body, out any, wantStatus int) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
		if err != nil {
			return err
		}
		payload, _ := io.ReadAll(resp.Body)
		retryAfter := resp.Header.Get("Retry-After")
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests && wantStatus != http.StatusTooManyRequests {
			shedCount.Add(1)
			if attempt >= maxRetries {
				return fmt.Errorf("%s: still shed (429) after %d retries: %s", url, attempt, bytes.TrimSpace(payload))
			}
			retryCount.Add(1)
			time.Sleep(shedBackoff(retryAfter, attempt))
			continue
		}
		if resp.StatusCode != wantStatus {
			return fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(payload))
		}
		if out != nil {
			return json.Unmarshal(payload, out)
		}
		return nil
	}
}

// shedBackoff converts the server's Retry-After hint (whole seconds)
// into a sleep: capped at 2s so an over-capacity smoke run still
// finishes, and jittered to half-to-full so concurrent sessions spread
// their retry waves instead of re-colliding. Without a usable hint it
// doubles from 100ms per attempt.
func shedBackoff(retryAfter string, attempt int) time.Duration {
	if attempt > 4 {
		attempt = 4
	}
	d := 100 * time.Millisecond << uint(attempt)
	if s, err := strconv.Atoi(retryAfter); err == nil && s > 0 {
		d = time.Duration(s) * time.Second
	}
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

func getJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
	os.Exit(1)
}
