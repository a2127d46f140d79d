package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/column"
	"repro/internal/oracle"
	"repro/internal/query"
	"repro/internal/server"
)

// daemonEnv, set to 1 in a test binary's environment, makes it run the
// daemon, main(), instead of its tests: the tests start their own binary
// as progidxd, so nothing is built inside a test.
const daemonEnv = "PROGIDXD_TEST_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// daemon is one progidxd process the test started.
type daemon struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once the process exited
	base string        // http://host:port
}

// startDaemon starts progidxd on an ephemeral loopback port with args and
// waits for the address it writes to -addrfile. The process is killed,
// and waited for, when the test ends, whatever its outcome.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	logPath := filepath.Join(dir, "log")
	logf, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: exec.Command(os.Args[0], append([]string{"-addr", "127.0.0.1:0", "-addrfile", addrFile}, args...)...), done: make(chan struct{})}
	d.cmd.Env = append(os.Environ(), daemonEnv+"=1")
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		d.cmd.Wait()
		logf.Close()
		close(d.done)
	}()
	t.Cleanup(func() {
		d.kill()
		if t.Failed() {
			out, _ := os.ReadFile(logPath)
			t.Logf("progidxd %s:\n%s", strings.Join(args, " "), out)
		}
	})
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		select {
		case <-d.done:
			t.Fatalf("progidxd exited before it wrote its address: %v", d.cmd.ProcessState)
		default:
		}
		if b, _ := os.ReadFile(addrFile); bytes.HasSuffix(b, []byte("\n")) {
			d.base = "http://" + strings.TrimSpace(string(b))
			return d
		}
	}
	t.Fatal("progidxd wrote no address within 10 s")
	return nil
}

// kill sends SIGKILL and waits for the process to exit.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // fails only once the process has exited
	<-d.done
}

var client = &http.Client{Timeout: 30 * time.Second}

// call sends body as JSON (none when nil) and decodes a 2xx answer into
// out (when non-nil); it returns the status and the raw answer.
func (d *daemon) call(method, path string, body, out any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err == nil && out != nil && resp.StatusCode/100 == 2 {
		err = json.Unmarshal(raw, out)
	}
	return resp.StatusCode, raw, err
}

// retry sends a request until it is neither shed (429) nor refused by a
// failing disk (503), which keep nothing of it, up to 200 tries.
func (d *daemon) retry(method, path string, body, out any) error {
	for try := 0; try < 200; try++ {
		status, raw, err := d.call(method, path, body, out)
		switch {
		case err != nil:
			return err
		case status == http.StatusTooManyRequests, status == http.StatusServiceUnavailable:
			time.Sleep(time.Millisecond)
		case status/100 != 2:
			return fmt.Errorf("%s %s: %d %s", method, path, status, bytes.TrimSpace(raw))
		default:
			return nil
		}
	}
	return fmt.Errorf("%s %s: still refused after 200 tries", method, path)
}

const (
	loadRows = 20_000
	domain   = 1_000_000 // the loaded first column lies in [0, domain)
	writers  = 2         // per table; writer w appends in band [(2+w)·domain, (3+w)·domain)
	batches  = 5         // per writer
	batchLen = 20        // rows per batch
	readers  = 2         // per table
	queries  = 15        // per reader
	aggsMask = column.AggSum | column.AggCount | column.AggMin | column.AggMax
)

var aggNames = []string{"sum", "count", "min", "max"}

// table is one served table and what it must answer: the loaded rows and
// every acked batch, flat row-major.
type table struct {
	name  string
	opts  server.OptionsSpec
	names []string // column names; {""} for one column
	load  []int64
	mu    sync.Mutex
	acked []int64
}

func (tb *table) k() int { return len(tb.names) }

// newTables draws the four shapes the daemon serves: a sharded
// one-column table, a FOR-BP sharded one, a three-column one and an
// unsharded one-column one.
func newTables(rng *rand.Rand) []*table {
	tabs := []*table{
		{name: "sharded", opts: server.OptionsSpec{Strategy: "PQ", Delta: 0.25, Shards: 4}},
		{name: "forbp", opts: server.OptionsSpec{Strategy: "PMSD", Delta: 0.25, Shards: 4, Encoding: "forbp"}},
		{name: "mc", opts: server.OptionsSpec{Strategy: "PB", Delta: 0.25, Columns: []string{"a", "b", "c"}}},
		{name: "plain", opts: server.OptionsSpec{Strategy: "PLSD", Delta: 0.25}},
	}
	for _, tb := range tabs {
		tb.names = []string{""}
		if len(tb.opts.Columns) > 0 {
			tb.names = tb.opts.Columns
		}
		for r := 0; r < loadRows; r++ {
			tb.load = append(tb.load, tb.row(rng.Int63n(domain))...)
		}
	}
	return tabs
}

// row is the tuple whose first column is v: the other two columns of a
// three-column table are a function of it.
func (tb *table) row(v int64) []int64 {
	if tb.k() == 1 {
		return []int64{v}
	}
	return []int64{v, v % 1000, v / 7}
}

// batch is writer w's batch j, flat row-major.
func (tb *table) batch(w, j int) []int64 {
	var flat []int64
	for i := 0; i < batchLen; i++ {
		flat = append(flat, tb.row(int64(2+w)*domain+int64(j*batchLen+i))...)
	}
	return flat
}

// probe is one query in wire form and the conjunction the oracle answers.
type probe struct {
	wire server.QueryRequest
	conj query.Conjunction
}

// rangeQuery asks every aggregate over first-column values [lo, hi]; on
// a three-column table as a conjunction with b >= bmin, aggregating target.
func (tb *table) rangeQuery(lo, hi, bmin int64, target string) probe {
	pred := server.PredSpec{Kind: "range", Lo: &lo, Hi: &hi}
	if tb.k() == 1 {
		return probe{
			wire: server.QueryRequest{Pred: pred, Aggs: aggNames},
			conj: query.Conjunction{Preds: []query.ColPredicate{query.On("", query.Range(lo, hi))}, Aggs: aggsMask},
		}
	}
	return probe{
		wire: server.QueryRequest{Predicates: []server.ColPredSpec{{Col: "a", PredSpec: pred}, {Col: "b", PredSpec: server.PredSpec{Kind: "atleast", Value: &bmin}}}, Target: target, Aggs: aggNames},
		conj: query.Conjunction{Preds: []query.ColPredicate{query.On("a", query.Range(lo, hi)), query.On("b", query.AtLeast(bmin))}, Target: target, Aggs: aggsMask},
	}
}

// check asks q and holds the answer to the oracle over rows.
func (tb *table) check(d *daemon, q probe, rows []int64) error {
	var got server.QueryResponse
	if err := d.retry(http.MethodPost, "/tables/"+tb.name+"/query", q.wire, &got); err != nil {
		return err
	}
	want := oracle.Conj(oracle.Columns(rows, tb.k()), tb.names, q.conj)
	eq := func(p *int64, v int64, present bool) bool { return (p != nil) == present && (p == nil || *p == v) }
	if got.Count != want.Count || !eq(got.Sum, want.Sum, true) || !eq(got.Min, want.Min, want.Count > 0) || !eq(got.Max, want.Max, want.Count > 0) {
		b, _ := json.Marshal(q.wire)
		return fmt.Errorf("table %s: %s answered count %d sum %v min %v max %v, the oracle %+v", tb.name, b, got.Count, deref(got.Sum), deref(got.Min), deref(got.Max), want)
	}
	return nil
}

func deref(p *int64) any {
	if p == nil {
		return nil
	}
	return *p
}

// drive runs the table's readers and writers at once. A reader's ranges
// lie in the loaded domain, which no append reaches; a writer, after each
// acked batch, asks for its band, which it alone appends to.
func (tb *table) drive(d *daemon, seed int64) error {
	errs := make([]error, readers+writers)
	var wg sync.WaitGroup
	for c := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)))
			if c < readers {
				for i := 0; i < queries && errs[c] == nil; i++ {
					lo := rng.Int63n(domain)
					q := tb.rangeQuery(lo, min(lo+rng.Int63n(domain/10), domain-1), rng.Int63n(1000), tb.names[rng.Intn(tb.k())])
					errs[c] = tb.check(d, q, tb.load)
				}
				return
			}
			w := c - readers
			var mine []int64
			for j := 0; j < batches && errs[c] == nil; j++ {
				b := tb.batch(w, j)
				req := server.AppendRequest{Values: b}
				if tb.k() > 1 {
					req = server.AppendRequest{}
					for i := 0; i < len(b); i += tb.k() {
						req.Rows = append(req.Rows, b[i:i+tb.k()])
					}
				}
				if errs[c] = d.retry(http.MethodPost, "/tables/"+tb.name+"/append", req, nil); errs[c] != nil {
					return
				}
				mine = append(mine, b...)
				tb.mu.Lock()
				tb.acked = append(tb.acked, b...)
				tb.mu.Unlock()
				lo := int64(2+w) * domain
				errs[c] = tb.check(d, tb.rangeQuery(lo, lo+domain-1, 0, tb.names[tb.k()-1]), mine)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// verify holds the table, quiet, to the loaded rows and every acked
// batch: its row count, the whole domain, each band and random ranges.
func (tb *table) verify(d *daemon, rng *rand.Rand) error {
	rows := append(append([]int64(nil), tb.load...), tb.acked...)
	var info struct{ Rows int }
	if status, raw, err := d.call(http.MethodGet, "/tables/"+tb.name, nil, &info); err != nil || status != http.StatusOK || info.Rows != len(rows)/tb.k() {
		return fmt.Errorf("table %s: %d %s %v, want %d rows", tb.name, status, bytes.TrimSpace(raw), err, len(rows)/tb.k())
	}
	top := int64(2+writers) * domain
	qs := []probe{tb.rangeQuery(0, top, 0, tb.names[0])}
	for w := 0; w < writers; w++ {
		lo := int64(2+w) * domain
		qs = append(qs, tb.rangeQuery(lo, lo+domain-1, 500, tb.names[tb.k()-1]))
	}
	for i := 0; i < 10; i++ {
		lo := rng.Int63n(top)
		qs = append(qs, tb.rangeQuery(lo, lo+rng.Int63n(top-lo), rng.Int63n(1000), tb.names[rng.Intn(tb.k())]))
	}
	for _, q := range qs {
		if err := tb.check(d, q, rows); err != nil {
			return err
		}
	}
	return nil
}

// metric sums the samples of a family's series in a /metrics text, and
// reports whether it has any.
func metric(text, family string) (sum float64, ok bool) {
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, family+"{") && !strings.HasPrefix(line, family+" ") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err == nil {
			sum, ok = sum+v, true
		}
	}
	return sum, ok
}

// TestDaemonKillRecover is the daemon across its process boundary: flag
// parsing, -addrfile, -fault wired into the store, a kill -9, and
// recovery at boot behind /healthz. The first life serves the four table
// shapes on a durable -datadir whose every fifth WAL sync fails, behind
// a queue of two, to concurrent readers and writers, every answer held to
// internal/oracle; it is killed with SIGKILL, and the second life, on the
// same -datadir with a healthy disk, must answer every loaded row and
// every acked batch.
func TestDaemonKillRecover(t *testing.T) {
	datadir := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	tabs := newTables(rng)

	d := startDaemon(t, "-datadir", datadir, "-fsync", "batch", "-queue", "2", "-maxbatch", "2", "-trace-sample", "1",
		"-default-deadline", "100ms", "-fault", "wal.sync=error,every=5", "-fault-seed", "42")
	for _, tb := range tabs {
		if err := d.retry(http.MethodPost, "/tables", server.LoadRequest{Name: tb.name, Values: tb.load, Options: &tb.opts}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// The unsharded table is the one-column table of one shard: its debug
	// surface lists that shard, and a traced query runs through the fan-out.
	var dbg server.TableDebug
	if status, _, err := d.call(http.MethodGet, "/tables/plain/debug", nil, &dbg); err != nil || status != http.StatusOK || len(dbg.ShardInfo) != 1 {
		t.Errorf("/tables/plain/debug: %d %v, %d shard_state entries, want 1", status, err, len(dbg.ShardInfo))
	}
	var traced server.QueryResponse
	if err := d.retry(http.MethodPost, "/tables/plain/query?trace=1", tabs[3].rangeQuery(0, domain/2, 0, "").wire, &traced); err != nil {
		t.Fatal(err)
	}
	if b, _ := json.Marshal(traced.Trace); !bytes.Contains(b, []byte(`"shard_fanout"`)) {
		t.Errorf("a traced query on the unsharded table: %s, no shard_fanout span", b)
	}

	errs := make([]error, len(tabs))
	var wg sync.WaitGroup
	for i, tb := range tabs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = tb.drive(d, int64(100*i))
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	for _, tb := range tabs {
		if err := tb.verify(d, rng); err != nil {
			t.Fatal(err)
		}
	}

	// What only this life's flags make: the injected sync faults retried
	// (never degrading a table: every append above was acked), the
	// robustness and WAL families, and the sampled traces.
	_, raw, err := d.call(http.MethodGet, "/metrics", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	if n, _ := metric(text, "progidx_table_wal_sync_retries_total"); n < 1 {
		t.Errorf("progidx_table_wal_sync_retries_total = %v under -fault wal.sync=error,every=5, want >= 1", n)
	}
	for _, family := range []string{"progidx_table_sheds_total", "progidx_table_deadline_clamped_total", "progidx_table_wal_seq", "progidx_wal_sync_seconds_bucket"} {
		if _, ok := metric(text, family); !ok {
			t.Errorf("/metrics has no %s", family)
		}
	}
	if status, raw, err := d.call(http.MethodGet, "/debug/traces", nil, nil); err != nil || status != http.StatusOK || !bytes.Contains(raw, []byte(`"queue_wait"`)) {
		t.Errorf("/debug/traces under -trace-sample 1: %d %v, no queue_wait span", status, err)
	}

	d.kill()
	d = startDaemon(t, "-datadir", datadir)
	var health server.HealthResponse
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		status, _, err := d.call(http.MethodGet, "/healthz", nil, &health)
		if err == nil && status == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/healthz after a kill -9: %d %v %+v", status, err, health)
		}
	}
	for _, tb := range tabs {
		if err := tb.verify(d, rng); err != nil {
			t.Fatalf("after a kill -9 and recovery: %v", err)
		}
	}
}

// TestDaemonFlagErrors: a flag combination the daemon cannot serve exits
// 1 before it listens.
func TestDaemonFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-fault", "wal.sync=error,every=5"}, // no -datadir to inject into
		{"-log-format", "xml"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], append([]string{"-addr", "127.0.0.1:0"}, args...)...)
		cmd.Env = append(os.Environ(), daemonEnv+"=1")
		out, err := cmd.CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("progidxd %s: %v, want exit status 1\n%s", strings.Join(args, " "), err, out)
		}
	}
}
