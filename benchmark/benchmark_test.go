package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/column"
	"repro/internal/data"
)

const specFile = "../BENCHMARK.json"

func loadTestSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestSpecShape holds BENCHMARK.json to the driver's contract.
func TestSpecShape(t *testing.T) {
	sp := loadTestSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q does not fit the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(sp.Workloads) != len(runners) {
		t.Errorf("%d workloads in BENCHMARK.json, %d runners", len(sp.Workloads), len(runners))
	}
	for _, w := range sp.Workloads {
		check(w.Name)
		if _, ok := runners[w.Name]; !ok {
			t.Errorf("workload %q has no runner", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range sp.EndToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range sp.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must have the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range append(sp.EndToEnd, sp.PerLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not fit the contract", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range sp.PerLayer {
		check(m.Name)
	}
	if len(sp.EndToEnd) < 1 || len(sp.EndToEnd) > 16 || len(sp.PerLayer) < 1 || len(sp.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(sp.EndToEnd), len(sp.PerLayer))
	}
	runs := 4 + 22*len(sp.Workloads)
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 || runs*2*sp.RunSeconds > 3420 {
		t.Errorf("run_seconds %d: %d runs would not fit the driver's 3420 s", sp.RunSeconds, runs)
	}
}

// TestRangeOracle checks the sorted-copy oracle and the closed form for
// appended runs against the library's branching full scan.
func TestRangeOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, vals := range [][]int64{data.Uniform(5000, 1), data.Skewed(5000, 2), ingestValues(5000, 3)} {
		o := newRangeOracle(vals)
		for i := 0; i < 500; i++ {
			lo := rng.Int63n(6000) - 500
			hi := lo + rng.Int63n(3000) - 100 // sometimes inverted
			want := column.AggRangeBranching(vals, lo, hi)
			if sum, count := o.agg(lo, hi); sum != want.Sum || count != want.Count {
				t.Fatalf("[%d, %d]: oracle says sum=%d count=%d, full scan sum=%d count=%d", lo, hi, sum, count, want.Sum, want.Count)
			}
		}
	}
	run := make([]int64, 777)
	for i := range run {
		run[i] = 1000 + int64(i)
	}
	for i := 0; i < 500; i++ {
		lo := 900 + rng.Int63n(1000)
		hi := lo + rng.Int63n(900) - 50
		want := column.AggRangeBranching(run, lo, hi)
		if sum, count := runAgg(1000, int64(len(run)), lo, hi); sum != want.Sum || count != want.Count {
			t.Fatalf("run [%d, %d]: closed form says sum=%d count=%d, full scan sum=%d count=%d", lo, hi, sum, count, want.Sum, want.Count)
		}
	}
	if sum, count := runAgg(1000, 0, 0, 5000); sum != 0 || count != 0 {
		t.Fatalf("empty run: sum=%d count=%d", sum, count)
	}
}

// TestConjOracle checks the windowed scan against a scan of every row.
func TestConjOracle(t *testing.T) {
	const n = 20000
	flat := data.MultiColumn(n, conjCols, 5)
	o := newConjOracle(flat)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		lo := rng.Int63n(n+4000) - 2000
		hi := lo + rng.Int63n(n/10)
		cmin := rng.Int63n(n)
		var wantSum, wantCount int64
		for r := 0; r < n; r++ {
			if b, c := flat[r*conjCols+1], flat[r*conjCols+2]; b >= lo && b <= hi && c >= cmin {
				wantSum += flat[r*conjCols]
				wantCount++
			}
		}
		if sum, count := o.agg(lo, hi, cmin); sum != wantSum || count != wantCount {
			t.Fatalf("b in [%d, %d], c >= %d: oracle says sum=%d count=%d, full scan sum=%d count=%d", lo, hi, cmin, sum, count, wantSum, wantCount)
		}
		if from, to := o.window(lo, hi); to-from > n/2 {
			t.Fatalf("b in [%d, %d]: window of %d rows is no restriction", lo, hi, to-from)
		}
	}
}

// stub serves h on a loopback listener until the test ends.
func stub(t *testing.T, h http.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return ln.Addr().String()
}

// TestCorruptedAnswerFails: a response with a wrong sum is a failed
// operation and contributes no latency.
func TestCorruptedAnswerFails(t *testing.T) {
	var served int
	addr := stub(t, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		served++
		sum := 30
		if served == 3 {
			sum = 31 // corrupted
		}
		fmt.Fprintf(w, `{"sum":%d,"count":2,"stats":{},"batch_size":1,"queue_us":0}`, sum)
	}))
	cl, err := newClient(addr, fixedQuery{rt: newRoute("/tables/t/query"), lo: 1, hi: 2, sum: 30, count: 2}, time.Now(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.c.close()
	for i := 0; i < 5; i++ {
		cl.step(i, time.Time{})
	}
	m := merge([]*clientLog{&cl.log})
	if m.attempted != 5 || m.failed != 1 || len(m.queryMs) != 4 {
		t.Fatalf("attempted=%d failed=%d latencies=%d, want 5, 1, 4 (%v)", m.attempted, m.failed, len(m.queryMs), m.firstErr)
	}
	res := newResult("x", 1, false)
	res.count(m)
	if res.Failed != 1 || res.Attempted != 5 || !strings.Contains(res.Error, "sum=31") {
		t.Fatalf("result: failed=%d attempted=%d error=%q", res.Failed, res.Attempted, res.Error)
	}
}

// TestDecodeAnswerFallback: field orders other than the server's
// current one still decode.
func TestDecodeAnswerFallback(t *testing.T) {
	for _, body := range []string{
		`{"sum":-12,"count":3,"stats":{"phase":"done"}}`,
		`{"count":3,"stats":{"phase":"done"},"sum":-12}`,
		"{\n \"count\": 3,\n \"sum\": -12\n}",
	} {
		sum, count, err := decodeAnswer([]byte(body))
		if err != nil || sum != -12 || count != 3 {
			t.Errorf("%s: sum=%d count=%d err=%v", body, sum, count, err)
		}
	}
	if _, _, err := decodeAnswer([]byte(`{"sum":`)); err == nil {
		t.Error("truncated body decoded")
	}
}

// TestClientReadsChunked: a response too large for net/http to give a
// Content-Length (a traced one) arrives chunked.
func TestClientReadsChunked(t *testing.T) {
	big := strings.Repeat("x", 70_000)
	addr := stub(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("trace") != "1" {
			t.Errorf("traced route sent %q", r.URL.String())
		}
		fmt.Fprintf(w, `{"sum":1,"count":1,"pad":"%s"}`, big)
	}))
	c, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	rt := newRoute("/tables/t/query")
	for i := 0; i < 3; i++ { // the connection stays usable
		status, body, err := c.do(rt.traced, []byte(`{}`))
		if err != nil || status != 200 || len(body) != len(big)+len(`{"sum":1,"count":1,"pad":""}`) {
			t.Fatalf("status=%d len=%d err=%v", status, len(body), err)
		}
	}
}

// TestOpenLoopCountsFromDueTime stalls the server once for 200 ms. The
// requests that fall due during the stall are sent late, and their
// latency must count from when they were due — coordinated omission is
// not hidden — the lateness must report the stall, and the generator
// must not open a third connection to get around it.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	var mu sync.Mutex
	served := 0
	addr := stub(t, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock() // every request waits behind the stalled one
		served++
		if served == 50 {
			time.Sleep(stall)
		}
		mu.Unlock()
		fmt.Fprint(w, `{"sum":30,"count":2}`)
	}))
	before := dials.Load()
	const rate = 1000
	logs, err := runOpen(addr, fixedQuery{rt: newRoute("/tables/t/query"), lo: 1, hi: 2, sum: 30, count: 2}, 2, rate, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := dials.Load() - before; d != 2 {
		t.Errorf("opened %d connections, want 2", d)
	}
	m := merge(logs)
	if m.failed != 0 || m.attempted != rate {
		t.Fatalf("attempted=%d failed=%d (%v)", m.attempted, m.failed, m.firstErr)
	}
	// About stall × rate requests fell due during the stall; their
	// latencies run down from the stall's length to nothing. Measured
	// from the send instead, all but two would read a millisecond.
	slow := 0
	for _, l := range m.queryMs {
		if l > ms(stall)/4 {
			slow++
		}
	}
	if want := int(stall.Seconds() * rate * 3 / 4 * 0.8); slow < want {
		t.Errorf("%d requests waited over %v, want at least %d", slow, stall/4, want)
	}
	late := sortedCopy(m.lateMs)
	if p99 := quantile(late, 0.99); p99 < ms(stall)/2 {
		t.Errorf("lateness p99 = %.1f ms does not show the %v stall", p99, stall)
	}
	if p50 := quantile(late, 0.5); p50 > 5 {
		t.Errorf("lateness p50 = %.1f ms: the generator runs late without a stall", p50)
	}
}

func TestSlicedStats(t *testing.T) {
	// One slice in five holds a burst; the sliced p99 ignores it.
	var lat []float64
	for i := 0; i < 1000; i++ {
		v := 1.0
		if i >= 400 && i < 600 {
			v = 50
		}
		lat = append(lat, v)
	}
	if got := slicedQuantile(lat, 0.99); got != 1 {
		t.Errorf("sliced p99 = %v, want 1", got)
	}
	at := make([]float64, 0, 1000)
	for i := 0; i < 1000; i++ {
		at = append(at, float64(i)/100) // 100/s over 10 s
	}
	if got := slicedRate(at, 10); got != 100 {
		t.Errorf("sliced rate = %v, want 100", got)
	}
}

func TestCoveredUnion(t *testing.T) {
	n := &node{start: 0, end: 100, children: []*node{
		{start: 10, end: 40}, {start: 30, end: 60}, {start: 80, end: 120}, {start: -5, end: 5},
	}}
	if got := covered(n); got != 5+50+20 {
		t.Errorf("covered = %v, want 75", got)
	}
}

// TestCompare: the verdicts, and the refusal to compare across boxes.
func TestCompare(t *testing.T) {
	sp := loadTestSpec(t)
	doc := func(scale float64, failed int) *document {
		d := thisBox()
		for seed := int64(1); seed <= 5; seed++ {
			r := newResult("steady", seed, false)
			r.Attempted, r.Failed = 1000, failed
			for _, m := range sp.EndToEnd {
				v := 100 * (1 + 0.01*float64(seed))
				if m.Name == "query_p50_ms" {
					v *= scale
				}
				r.set(m.Name, v)
			}
			d.Runs = append(d.Runs, r)
		}
		return &d
	}
	var out bytes.Buffer
	if regressed, err := compare(&out, sp, doc(1, 0), doc(1.02, 0)); err != nil || regressed {
		t.Errorf("2%% worse: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	out.Reset()
	if regressed, err := compare(&out, sp, doc(1, 0), doc(1.5, 0)); err != nil || !regressed || !strings.Contains(out.String(), "regressed") {
		t.Errorf("50%% worse: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	out.Reset()
	if regressed, _ := compare(&out, sp, doc(1, 0), doc(1, 1)); !regressed || !strings.Contains(out.String(), "failed_share") {
		t.Errorf("a rise in failures did not regress\n%s", out.String())
	}
	other := doc(1, 0)
	other.NumCPU++
	if _, err := compare(&out, sp, doc(1, 0), other); err == nil {
		t.Error("compared results of boxes with different CPU counts")
	}
}

// TestWorkloadsEmitTheContract runs every workload on a tiny
// configuration, untraced and traced, and holds what they emit to
// BENCHMARK.json: every metric of the run's kind once, with its unit
// and a finite value, and nothing the contract does not list. The
// trace file must parse into trees.
func TestWorkloadsEmitTheContract(t *testing.T) {
	sp := loadTestSpec(t)
	dir := t.TempDir()
	cfg := tinyConfig(dir)
	before := dials.Load()
	for _, w := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			res, err := runners[w.Name](cfg, 1, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %s", w.Name, traced, res.Failed, res.Attempted, res.Error)
			}
			reported, err := sp.report(res)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
			}
			if len(reported) != len(want) {
				t.Errorf("%s traced=%v: %d metrics reported, contract lists %d", w.Name, traced, len(reported), len(want))
			}
			for _, m := range want {
				got, ok := reported[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s traced=%v: %s reported as %+v (present=%v)", w.Name, traced, m.Name, got, ok)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v; the contract wants them never 0", w.Name, m.Name, got.Value)
				}
			}
			if traced {
				checkTraceFile(t, filepath.Join(dir, "trace-"+w.Name+".json"))
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "ingest-data-*")); len(left) > 0 {
		t.Errorf("data directories left behind: %v", left)
	}
	if d := dials.Load() - before; d == 0 {
		t.Error("no connection was counted")
	}
}

func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(tf.Spans) == 0 {
		t.Fatalf("%s holds no span", path)
	}
	names := map[string]bool{}
	for i, s := range tf.Spans {
		if s.ID != i {
			t.Fatalf("%s: span %d has id %d", path, i, s.ID)
		}
		switch {
		case s.Parent == -1:
			if s.Name != "loadgen.request" {
				t.Errorf("%s: root span %d is %q", path, i, s.Name)
			}
		case s.Parent < 0 || s.Parent >= i:
			t.Errorf("%s: span %d (%s) has parent %d", path, i, s.Name, s.Parent)
		case tf.Spans[s.Parent].Req != s.Req:
			t.Errorf("%s: span %d belongs to request %d, its parent to %d", path, i, s.Req, tf.Spans[s.Parent].Req)
		}
		if s.DurUs < 0 || s.SelfUs > s.DurUs+1e-6 {
			t.Errorf("%s: span %d (%s) lasts %v with %v to itself", path, i, s.Name, s.DurUs, s.SelfUs)
		}
		names[s.Name] = true
	}
	for _, want := range []string{"loadgen.request", "net.roundtrip", "query", "queue_wait", "execute"} {
		if !names[want] {
			t.Errorf("%s: no %q span", path, want)
		}
	}
}
