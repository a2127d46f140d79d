package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/column"
	"repro/internal/data"
	"repro/internal/durable"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/plan"
	"repro/internal/query"
)

// newFaultyServer opens a durable store whose disk I/O routes through
// the given injector, with snapshots effectively disabled and the slow
// logger silenced unless cfg names one (fault tests deliberately provoke
// error logs).
func newFaultyServer(t *testing.T, dir string, in *fault.Injector, cfg Config) *Server {
	t.Helper()
	store, err := durable.OpenFS(dir, durable.SyncBatch, fault.Injecting(fault.OS(), in))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = store
	cfg.SnapshotInterval = 1 << 40
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	return New(cfg)
}

// loadRobust loads a small quicksort table and returns its scheduler.
func loadRobust(t *testing.T, srv *Server, name string, base []int64) *Scheduler {
	t.Helper()
	if _, err := srv.Load(name, base, catalog.Options{Strategy: plan.StrategyQuicksort, Delta: 0.25}); err != nil {
		t.Fatal(err)
	}
	sched, ok := srv.Scheduler(name)
	if !ok {
		t.Fatalf("no scheduler for %q", name)
	}
	return sched
}

// TestWALSyncRetryTransient: a batch whose first two fsync attempts
// fail is retried and still acked — the transient fault is absorbed by
// the retry ladder, the table stays healthy, and the retries surface in
// the metrics.
func TestWALSyncRetryTransient(t *testing.T) {
	in := fault.NewInjector(1, fault.Rule{Op: fault.OpWALSync, Kind: fault.KindError, Count: 2})
	srv := newFaultyServer(t, t.TempDir(), in, Config{})
	t.Cleanup(srv.Close)
	if _, err := srv.Recover(); err != nil {
		t.Fatal(err)
	}
	sched := loadRobust(t, srv, "t", data.Uniform(2000, 7))

	if _, _, err := sched.Append(context.Background(), []int64{5000, 5001, 5002}); err != nil {
		t.Fatalf("append with transient sync faults: %v", err)
	}
	if got := in.Fired(fault.OpWALSync); got != 2 {
		t.Fatalf("injected sync failures = %d, want 2 (did Load sync the WAL?)", got)
	}
	m := sched.Metrics()
	if m.SyncRetries != 2 {
		t.Fatalf("SyncRetries = %d, want 2", m.SyncRetries)
	}
	if st := sched.State(); st != StateOK {
		t.Fatalf("State = %v, want ok (transient faults must not degrade)", st)
	}
	// The table keeps accepting appends afterwards.
	if _, _, err := sched.Append(context.Background(), []int64{5003}); err != nil {
		t.Fatalf("append after recovery from transient faults: %v", err)
	}
}

// TestWALSyncPersistentFailureDegrades: when every fsync fails the
// retry ladder exhausts and the table goes sticky read-only — the
// failing append gets a typed error, later appends fast-fail, queries
// keep serving exactly, and the state shows on /healthz, /metrics, and
// the append endpoint (503).
func TestWALSyncPersistentFailureDegrades(t *testing.T) {
	in := fault.NewInjector(1, fault.Rule{Op: fault.OpWALSync, Kind: fault.KindError})
	srv := newFaultyServer(t, t.TempDir(), in, Config{})
	t.Cleanup(srv.Close)
	if _, err := srv.Recover(); err != nil {
		t.Fatal(err)
	}
	base := data.Uniform(2000, 9)
	sched := loadRobust(t, srv, "t", base)

	batch := []int64{5_000_000, 5_000_001}
	_, _, err := sched.Append(context.Background(), batch)
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("append under persistent sync failure = %v, want ErrDegraded", err)
	}
	m := sched.Metrics()
	if m.SyncRetries != walSyncRetries {
		t.Fatalf("SyncRetries = %d, want %d (the full ladder)", m.SyncRetries, walSyncRetries)
	}
	if st := sched.State(); st != StateDegraded {
		t.Fatalf("State = %v, want degraded", st)
	}

	// Sticky: the next append is rejected at admission, without touching
	// the WAL again.
	fired := in.Fired(fault.OpWALSync)
	if _, _, err := sched.Append(context.Background(), []int64{1}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("append on degraded table = %v, want ErrDegraded", err)
	}
	if got := in.Fired(fault.OpWALSync); got != fired {
		t.Fatalf("degraded append reached the WAL (%d -> %d sync faults)", fired, got)
	}

	// Reads still serve, bit-identical to the loaded rows: the failed
	// append was staged behind its WAL frame and dropped with it, so it
	// was never visible.
	q := query.Request{Pred: query.Range(0, 10_000_000), Aggs: column.AggSum | column.AggCount | column.AggMin | column.AggMax}
	want := oracle.Answer(base, q)
	got, _, err := sched.Execute(context.Background(), q)
	if err != nil {
		t.Fatalf("query on degraded table: %v", err)
	}
	if !answersMatch(got, want) {
		t.Fatalf("degraded read mismatch:\n got %+v\nwant %+v", got, want)
	}

	// HTTP surface: healthz stays 200 (the node is up) but names the
	// table; appends answer 503; the state gauge reads 2.
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz with degraded table = %d, want 200", resp.StatusCode)
	}
	if health.Tables["t"] != "degraded" {
		t.Fatalf("healthz tables = %v, want t: degraded", health.Tables)
	}
	resp, err = http.Post(ts.URL+"/tables/t/append", "application/json", strings.NewReader(`{"values":[1,2]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("append on degraded table = %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.Contains(sb.String(), `progidx_table_state{table="t"} 2`) {
		t.Fatalf("metrics missing degraded state gauge:\n%s", sb.String())
	}
}

// postAppend posts values to table t's append endpoint through h and
// returns the status and body.
func postAppend(h http.Handler, values string) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/tables/t/append", strings.NewReader(`{"values":`+values+`}`)))
	return rec.Code, rec.Body.String()
}

// TestTornWALWriteAnswers503: an append whose WAL frame is torn is
// answered 503 — the server's disk failed, not the request — and leaves
// nothing behind: no frame in the log and no row any query sees, so the
// same batch sent again is acked once.
func TestTornWALWriteAnswers503(t *testing.T) {
	// The first wal.append op creates the segment, the second writes the
	// frame.
	in := fault.NewInjector(1, fault.Rule{Op: fault.OpWALAppend, Kind: fault.KindTorn, After: 1, Count: 1})
	srv := newFaultyServer(t, t.TempDir(), in, Config{})
	t.Cleanup(srv.Close)
	if _, err := srv.Recover(); err != nil {
		t.Fatal(err)
	}
	base := data.Uniform(2000, 3)
	sched := loadRobust(t, srv, "t", base)
	h := srv.Handler()
	q := query.Request{Pred: query.Range(0, 10_000_000), Aggs: column.AggSum | column.AggCount | column.AggMax}
	expect := func(rows []int64, frames uint64) {
		t.Helper()
		if d := sched.table.Info().Durability; d.TailFrames != frames {
			t.Fatalf("TailFrames = %d, want %d", d.TailFrames, frames)
		}
		got, _, err := sched.Execute(context.Background(), q)
		if want := oracle.Answer(rows, q); err != nil || !answersMatch(got, want) {
			t.Fatalf("query = %+v, %v; want %+v", got, err, want)
		}
	}
	if code, body := postAppend(h, `[5000000,5000001]`); code != http.StatusServiceUnavailable || !strings.Contains(body, "WAL write failed") {
		t.Fatalf("append with a torn WAL write = %d %s, want 503", code, body)
	}
	if got := in.Fired(fault.OpWALAppend); got != 1 {
		t.Fatalf("injected %d torn writes, want 1", got)
	}
	expect(base, 0)
	if code, body := postAppend(h, `[5000000,5000001]`); code != http.StatusOK {
		t.Fatalf("retried append = %d %s, want 200", code, body)
	}
	expect(append(append([]int64(nil), base...), 5_000_000, 5_000_001), 1)
}

// TestDegradedBatchNotRecovered: the batch whose WAL sync kept failing is
// answered 503 ErrDegraded, and its frame is cut from the log: a restart
// on a healthy disk recovers the loaded rows alone.
func TestDegradedBatchNotRecovered(t *testing.T) {
	dir := t.TempDir()
	in := fault.NewInjector(1, fault.Rule{Op: fault.OpWALSync, Kind: fault.KindError})
	srv := newFaultyServer(t, dir, in, Config{})
	if _, err := srv.Recover(); err != nil {
		t.Fatal(err)
	}
	base := data.Uniform(2000, 5)
	loadRobust(t, srv, "t", base)
	if code, body := postAppend(srv.Handler(), `[5000000,5000001]`); code != http.StatusServiceUnavailable || !strings.Contains(body, ErrDegraded.Error()) {
		t.Fatalf("append under persistent sync failure = %d %s, want 503 %v", code, body, ErrDegraded)
	}
	srv.Close()

	srv2 := newDurableServer(t, dir)
	t.Cleanup(srv2.Close)
	if _, err := srv2.Recover(); err != nil {
		t.Fatal(err)
	}
	sched, ok := srv2.Scheduler("t")
	if !ok {
		t.Fatal("table t not recovered")
	}
	q := query.Request{Pred: query.Range(0, 10_000_000), Aggs: column.AggSum | column.AggCount | column.AggMax}
	got, _, err := sched.Execute(context.Background(), q)
	if want := oracle.Answer(base, q); err != nil || !answersMatch(got, want) {
		t.Fatalf("recovered table answers %+v, %v; want the loaded rows' %+v", got, err, want)
	}
}

// hookHandler is a slog handler that counts error records and calls
// onSlow, on the logging goroutine, for the first slow-query line.
type hookHandler struct {
	onSlow func()
	once   sync.Once
	errs   atomic.Int64
}

func (h *hookHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *hookHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *hookHandler) WithGroup(string) slog.Handler            { return h }
func (h *hookHandler) Handle(_ context.Context, r slog.Record) error {
	if r.Level >= slog.LevelError {
		h.errs.Add(1)
	}
	if r.Message == "slow query" {
		h.once.Do(h.onSlow)
	}
	return nil
}

// TestDropDuringWALSyncAnswers410: a drop that closes the table's log
// between a batch's append and its WAL sync ends the batch at once. Its
// append answers 410, as any request on a dropped table does, with no
// sync retry, no degrade event and no error logged. The batch is one
// append and one query queued behind a slow sync; the query's slow-query
// line, written on the serving loop between the two, runs the drop.
func TestDropDuringWALSyncAnswers410(t *testing.T) {
	dir := t.TempDir()
	in := fault.NewInjector(1, fault.Rule{Op: fault.OpWALSync, Kind: fault.KindLatency, Latency: 50 * time.Millisecond})
	var srv *Server
	dropped := make(chan error, 1)
	hook := &hookHandler{onSlow: func() {
		go func() { dropped <- srv.Drop("t") }()
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if ents, _ := os.ReadDir(filepath.Join(dir, "tables")); len(ents) == 0 {
				return // the log is closed and the table's files gone
			}
		}
	}}
	srv = newFaultyServer(t, dir, in, Config{SlowQuery: time.Nanosecond, Logger: slog.New(hook)})
	t.Cleanup(srv.Close)
	if _, err := srv.Recover(); err != nil {
		t.Fatal(err)
	}
	sched := loadRobust(t, srv, "t", data.Uniform(2000, 7))
	h := srv.Handler()
	first := make(chan error, 1)
	go func() { _, _, err := sched.Append(context.Background(), []int64{5000}); first <- err }()
	for in.Seen(fault.OpWALSync) == 0 {
		time.Sleep(time.Millisecond) // until the first batch is inside its sync
	}
	codes := make(chan int, 2)
	go func() { code, _ := postAppend(h, `[5001,5002]`); codes <- code }()
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/tables/t/query", strings.NewReader(`{"pred":{"kind":"range","lo":0,"hi":10}}`)))
		codes <- rec.Code
	}()
	for len(sched.tasks) < 2 {
		time.Sleep(time.Millisecond)
	}
	if err := <-first; err != nil {
		t.Fatalf("the first append: %v", err)
	}
	if got := []int{<-codes, <-codes}; !slices.Contains(got, http.StatusGone) || !slices.Contains(got, http.StatusOK) {
		t.Fatalf("the append and the query of the dropped batch answered %v, want 410 and 200", got)
	}
	if err := <-dropped; err != nil {
		t.Fatal(err)
	}
	if m := sched.Metrics(); m.SyncRetries != 0 || m.State == "degraded" {
		t.Fatalf("a drop under the sync: %d retries, state %s", m.SyncRetries, m.State)
	}
	for _, e := range sched.tobs.Timeline.Snapshot() {
		if e.Kind == obs.EvDegrade {
			t.Fatal("a drop under the sync recorded a degrade event")
		}
	}
	if n := hook.errs.Load(); n != 0 {
		t.Fatalf("a drop under the sync logged %d errors", n)
	}
}

// TestDropAnswersQueuedAppend410: an append queued behind a batch that
// is inside its WAL sync when the table is dropped answers 410, as every
// other request on a dropped table does, not 400: the catalog refuses it
// as dropped, which is no fault of the request.
func TestDropAnswersQueuedAppend410(t *testing.T) {
	in := fault.NewInjector(1, fault.Rule{Op: fault.OpWALSync, Kind: fault.KindLatency, Latency: 50 * time.Millisecond})
	srv := newFaultyServer(t, t.TempDir(), in, Config{})
	t.Cleanup(srv.Close)
	if _, err := srv.Recover(); err != nil {
		t.Fatal(err)
	}
	sched := loadRobust(t, srv, "t", data.Uniform(2000, 7))
	h := srv.Handler()
	first := make(chan int, 1)
	go func() { code, _ := postAppend(h, `[5000]`); first <- code }()
	for in.Seen(fault.OpWALSync) == 0 {
		time.Sleep(time.Millisecond) // until the first batch is inside its sync
	}
	type answer struct {
		code int
		body string
	}
	queued := make(chan answer, 1)
	go func() { code, body := postAppend(h, `[5001,5002]`); queued <- answer{code, body} }()
	for len(sched.tasks) == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := srv.Drop("t"); err != nil {
		t.Fatal(err)
	}
	if code := <-first; code != http.StatusOK && code != http.StatusGone {
		t.Fatalf("the append inside the sync answered %d, want 200 or 410", code)
	}
	if a := <-queued; a.code != http.StatusGone {
		t.Fatalf("the append queued behind it answered %d %s, want 410", a.code, a.body)
	}
}

// TestDropDuringLoadAnswers410: a DELETE that lands while a durable
// load is inside store.Create, its snapshot write held by an injected
// latency, wins the name. The load answers 410, as every request a drop
// overtakes does, not the 400 of a malformed request, and the name is
// free for the next load.
func TestDropDuringLoadAnswers410(t *testing.T) {
	in := fault.NewInjector(1, fault.Rule{Op: fault.OpSnapshotWrite, Kind: fault.KindLatency, Latency: 20 * time.Millisecond})
	srv := newFaultyServer(t, t.TempDir(), in, Config{})
	t.Cleanup(srv.Close)
	if _, err := srv.Recover(); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	serve := func(method, path, body string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec.Code, rec.Body.String()
	}
	type answer struct {
		code int
		body string
	}
	loaded := make(chan answer, 1)
	go func() {
		code, body := serve(http.MethodPost, "/tables", `{"name":"t","values":[3,1,2]}`)
		loaded <- answer{code, body}
	}()
	for in.Seen(fault.OpSnapshotWrite) == 0 {
		time.Sleep(time.Millisecond) // until the load is writing its base snapshot
	}
	if code, body := serve(http.MethodDelete, "/tables/t", ""); code != http.StatusNoContent {
		t.Fatalf("the drop answered %d %s, want 204", code, body)
	}
	if a := <-loaded; a.code != http.StatusGone {
		t.Fatalf("the load the drop overtook answered %d %s, want 410", a.code, a.body)
	}
	if code, body := serve(http.MethodPost, "/tables", `{"name":"t","values":[3,1,2]}`); code != http.StatusCreated {
		t.Fatalf("a load after the drop answered %d %s, want 201", code, body)
	}
}

// TestConcurrentCheckpointsWriteOnce: two CheckpointAll calls at once
// write one snapshot of the table. The second waits for the first, whose
// write an injected latency holds open, and then finds nothing to write.
func TestConcurrentCheckpointsWriteOnce(t *testing.T) {
	in := fault.NewInjector(1, fault.Rule{Op: fault.OpSnapshotWrite, Kind: fault.KindLatency, Latency: 10 * time.Millisecond})
	srv := newFaultyServer(t, t.TempDir(), in, Config{})
	t.Cleanup(srv.Close)
	if _, err := srv.Recover(); err != nil {
		t.Fatal(err)
	}
	off := false
	if _, err := srv.Load("t", data.Uniform(2000, 7), catalog.Options{Strategy: plan.StrategyQuicksort, Delta: 0.25, IdleRefine: &off}); err != nil {
		t.Fatal(err)
	}
	sched, _ := srv.Scheduler("t")
	if _, _, err := sched.Append(context.Background(), []int64{5000}); err != nil {
		t.Fatal(err)
	}
	before, seen := srv.cfg.Store.Stats().Snapshots, in.Seen(fault.OpSnapshotWrite)
	var wg sync.WaitGroup
	checkpoint := func() {
		defer wg.Done()
		if errs := srv.CheckpointAll(context.Background()); len(errs) > 0 {
			t.Error(errs)
		}
	}
	wg.Add(2)
	go checkpoint()
	for in.Seen(fault.OpSnapshotWrite) == seen {
		time.Sleep(time.Millisecond) // until the first is writing
	}
	go checkpoint()
	wg.Wait()
	if got := srv.cfg.Store.Stats().Snapshots - before; got != 1 {
		t.Fatalf("two concurrent checkpoints wrote %d snapshots, want 1", got)
	}
}

// TestOverloadShedsDeterministic drives the shed path without racing
// the serving loop: a scheduler with a full admission queue and no loop
// goroutine must reject immediately with ErrOverloaded, count the shed,
// report overloaded, and produce a bounded Retry-After.
func TestOverloadShedsDeterministic(t *testing.T) {
	s := &Scheduler{
		maxBatch: 8,
		tasks:    make(chan *task, 2),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	s.tasks <- &task{}
	s.tasks <- &task{}

	start := time.Now()
	_, _, err := s.Execute(context.Background(), query.Request{Pred: query.Point(1)})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Execute on full queue = %v, want ErrOverloaded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("shed took %v, want immediate rejection", d)
	}
	if _, _, err := s.Append(context.Background(), []int64{1}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Append on full queue = %v, want ErrOverloaded", err)
	}
	if st := s.State(); st != StateOverloaded {
		t.Fatalf("State = %v, want overloaded", st)
	}
	m := s.Metrics()
	if m.Sheds != 2 {
		t.Fatalf("Sheds = %d, want 2", m.Sheds)
	}
	if m.QueueDepth != 2 || m.QueueCap != 2 {
		t.Fatalf("queue %d/%d, want 2/2", m.QueueDepth, m.QueueCap)
	}
	if ra := s.RetryAfter(); ra < time.Second || ra > 30*time.Second {
		t.Fatalf("RetryAfter = %v, want within [1s, 30s]", ra)
	}
}

// TestOverloadBurstNeverWrongAnswer: while the serving loop is parked
// inside a slow WAL fsync (injected latency), a burst far over the
// 2-slot queue's capacity must split cleanly — exactly the queued
// requests are answered, bit-identically to the oracle, and everything
// else is shed with ErrOverloaded. Nothing hangs, nothing is silently
// dropped, and the shed counter matches. (The loop is parked
// deliberately rather than raced: on a single-CPU box the runtime's
// direct channel handoff serializes a free-running burst so perfectly
// that the queue never fills.)
func TestOverloadBurstNeverWrongAnswer(t *testing.T) {
	in := fault.NewInjector(3,
		fault.Rule{Op: fault.OpWALSync, Kind: fault.KindLatency, Latency: 500 * time.Millisecond, Count: 1})
	srv := newFaultyServer(t, t.TempDir(), in, Config{QueueDepth: 2, MaxBatch: 1})
	t.Cleanup(srv.Close)
	if _, err := srv.Recover(); err != nil {
		t.Fatal(err)
	}
	base := data.Uniform(10_000, 3)
	sched := loadRobust(t, srv, "t", base)

	appended := []int64{5_000_000, 5_000_001}
	q := query.Request{Pred: query.Range(0, 10_000_000), Aggs: column.AggSum | column.AggCount | column.AggMin | column.AggMax}
	want := oracle.Answer(append(append([]int64(nil), base...), appended...), q)

	// Park the loop: the append's batch fsync sleeps 500ms inside the
	// injector. Wait until the loop is provably inside it.
	appendDone := make(chan error, 1)
	go func() {
		_, _, err := sched.Append(context.Background(), appended)
		appendDone <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for in.Fired(fault.OpWALSync) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("append never reached the WAL sync")
		}
		time.Sleep(100 * time.Microsecond)
	}

	const burst = 40
	var (
		wg       sync.WaitGroup
		shed, ok atomic.Uint64
	)
	start := make(chan struct{})
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got, _, err := sched.Execute(context.Background(), q)
			switch {
			case errors.Is(err, ErrOverloaded):
				shed.Add(1)
			case err != nil:
				t.Errorf("burst query failed with unexpected error: %v", err)
			case !answersMatch(got, want):
				t.Errorf("burst answer mismatch: got %+v want %+v", got, want)
			default:
				ok.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if err := <-appendDone; err != nil {
		t.Fatalf("parked append: %v", err)
	}

	// The queue held exactly 2 while the loop slept: 2 served, 38 shed.
	if ok.Load() != 2 || shed.Load() != burst-2 {
		t.Fatalf("burst split ok=%d shed=%d, want 2/%d", ok.Load(), shed.Load(), burst-2)
	}
	if m := sched.Metrics(); m.Sheds != shed.Load() {
		t.Fatalf("Sheds metric = %d, observed %d rejections", m.Sheds, shed.Load())
	}
	if st := sched.State(); st != StateOverloaded {
		t.Fatalf("State right after a shedding burst = %v, want overloaded", st)
	}
}

// TestSchedErrorHTTPMapping pins the error-to-status contract: 429
// with a Retry-After for overload, 503 for degraded and quarantined
// (also when wrapped) and for a table the catalog still loads, 410 for
// dropped, by the scheduler or the catalog.
func TestSchedErrorHTTPMapping(t *testing.T) {
	srv := New(Config{})
	t.Cleanup(srv.Close)
	sched := loadRobust(t, srv, "t", data.Uniform(100, 1))

	for _, tc := range []struct {
		err        error
		wantStatus int
	}{
		{ErrOverloaded, http.StatusTooManyRequests},
		{ErrDegraded, http.StatusServiceUnavailable},
		{&wrapErr{ErrDegraded}, http.StatusServiceUnavailable},
		{ErrQuarantined, http.StatusServiceUnavailable},
		{ErrStopped, http.StatusGone},
		{fmt.Errorf("catalog: table %q not ready: %w", "t", catalog.ErrDropped), http.StatusGone},
		{fmt.Errorf("catalog: table %q not ready: %w", "t", catalog.ErrLoading), http.StatusServiceUnavailable},
	} {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/tables/t/query", nil)
		srv.writeSchedError(rec, req, sched, "t", tc.err)
		if rec.Code != tc.wantStatus {
			t.Errorf("writeSchedError(%v) = %d, want %d", tc.err, rec.Code, tc.wantStatus)
		}
		if errors.Is(tc.err, ErrOverloaded) {
			if ra := rec.Header().Get("Retry-After"); ra == "" || ra == "0" {
				t.Errorf("429 Retry-After = %q, want a positive integer", ra)
			}
		}
	}
}

type wrapErr struct{ inner error }

func (w *wrapErr) Error() string { return "wrapped: " + w.inner.Error() }
func (w *wrapErr) Unwrap() error { return w.inner }

// TestDeadlineClampExact: a query whose deadline is already unmeetable
// runs with the indexing budget clamped to zero — the answer is still
// bit-identical to the oracle, the clamp is counted, and convergence
// does not advance on that query's dime. A clamped ?trace=1 query keeps
// its span tree: every shard it touched shows as suspended, with next
// to no budget spent. Covers an unsharded and a sharded table.
func TestDeadlineClampExact(t *testing.T) {
	for _, shards := range []int{0, 4} {
		shards := shards
		t.Run(map[int]string{0: "synchronized", 4: "sharded"}[shards], func(t *testing.T) {
			srv := New(Config{Logger: slog.New(slog.DiscardHandler)})
			t.Cleanup(srv.Close)
			base := data.Uniform(200_000, 5)
			off := false
			opts := catalog.Options{Strategy: plan.StrategyQuicksort, Delta: 0.25, Shards: shards, IdleRefine: &off}
			if _, err := srv.Load("t", base, opts); err != nil {
				t.Fatal(err)
			}
			sched, _ := srv.Scheduler("t")
			tbl, _ := srv.Catalog().Get("t")
			q := query.Request{Pred: query.Range(10_000, 150_000), Aggs: column.AggSum | column.AggCount | column.AggMin | column.AggMax}
			want := oracle.Answer(base, q)

			before := tbl.Index().Progress()
			conj := query.Conjunction{Preds: []query.ColPredicate{{Pred: q.Pred}}, Aggs: q.Aggs}
			got, _, _, err := sched.ExecuteConj(context.Background(), conj, time.Now().Add(-time.Second), false)
			if err != nil {
				t.Fatalf("clamped query: %v", err)
			}
			if !answersMatch(got, want) {
				t.Fatalf("clamped answer mismatch:\n got %+v\nwant %+v", got, want)
			}
			if m := sched.Metrics(); m.DeadlineClamped != 1 {
				t.Fatalf("DeadlineClamped = %d, want 1", m.DeadlineClamped)
			}
			// Per-query bookkeeping moves progress by a few millionths even
			// with the budget clamped; the real indexing slice moves it by
			// whole percents. Assert the clamp held to within noise.
			clamped := tbl.Index().Progress() - before
			if clamped > 1e-4 {
				t.Fatalf("clamped query advanced convergence by %.6f, want ~none", clamped)
			}

			// Clamp and trace compose: the squeezed query still returns its
			// span tree, with every shard it scanned suspended (a suspended
			// creation step copies one element, so the spend is not quite 0).
			got, _, tr, err := sched.ExecuteConj(context.Background(), conj, time.Now().Add(-time.Second), true)
			if err != nil || !answersMatch(got, want) {
				t.Fatalf("clamped traced query: %+v, %v", got, err)
			}
			if m := sched.Metrics(); m.DeadlineClamped != 2 {
				t.Fatalf("DeadlineClamped = %d, want 2", m.DeadlineClamped)
			}
			root := tr.Tree().Root
			if n := len(jsonSpans(root, "shard_fanout")); n != 1 {
				t.Fatalf("clamped trace has %d shard_fanout spans, want 1", n)
			}
			shardSpans := jsonSpans(root, "shard")
			if want := max(shards, 1); len(shardSpans) != want {
				t.Fatalf("clamped trace has %d shard spans, want %d", len(shardSpans), want)
			}
			for _, sp := range shardSpans {
				if suspended, _ := sp.Attrs["suspended"].(bool); !suspended {
					t.Errorf("clamped shard span not suspended: %+v", sp.Attrs)
				}
				if spent, ok := sp.Attrs["budget_spent_s"].(float64); !ok || spent > 1e-7 {
					t.Errorf("clamped shard span spent %v s of budget", sp.Attrs["budget_spent_s"])
				}
			}
			if clamped := tbl.Index().Progress() - before; clamped > 1e-4 {
				t.Fatalf("clamped traced query advanced convergence by %.6f, want ~none", clamped)
			}

			// Without a deadline the same query pays the indexing budget.
			if _, _, err := sched.Execute(context.Background(), q); err != nil {
				t.Fatal(err)
			}
			if unclamped := tbl.Index().Progress() - before; unclamped < 1e-3 {
				t.Fatalf("unclamped query advanced convergence by only %.6f", unclamped)
			}
		})
	}
}

// TestDeadlineHTTP: ?deadline_ms= is parsed (positive integers only)
// and a clamped request still answers 200.
func TestDeadlineHTTP(t *testing.T) {
	srv := New(Config{})
	t.Cleanup(srv.Close)
	loadRobust(t, srv, "t", data.Uniform(5000, 2))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	body := `{"pred":{"kind":"range","lo":0,"hi":100000},"aggs":["sum","count"]}`
	resp, err := http.Post(ts.URL+"/tables/t/query?deadline_ms=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query with deadline_ms=1 = %d, want 200", resp.StatusCode)
	}
	for _, bad := range []string{"abc", "-5", "0"} {
		resp, err := http.Post(ts.URL+"/tables/t/query?deadline_ms="+bad, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("deadline_ms=%s = %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestQuarantineIsolation: a panic inside one table's serving loop
// quarantines that table — the panicking request and all later ones get
// ErrQuarantined, the state shows on /healthz, /metrics, and the debug
// endpoint — while a sibling table keeps serving exact answers, and
// shutdown does not hang.
func TestQuarantineIsolation(t *testing.T) {
	srv := New(Config{Logger: slog.New(slog.DiscardHandler)})
	t.Cleanup(srv.Close)
	baseB := data.Uniform(3000, 11)
	schedA := loadRobust(t, srv, "a", data.Uniform(3000, 10))
	schedB := loadRobust(t, srv, "b", baseB)

	r, err := schedA.admit(context.Background(), &task{panicTest: true, reply: make(chan result, 1), enqueued: time.Now()})
	if err != nil {
		t.Fatalf("admit panic task: %v", err)
	}
	if !errors.Is(r.err, ErrQuarantined) {
		t.Fatalf("panicking task reply = %v, want ErrQuarantined", r.err)
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

	// The sibling is unaffected: appends and exact queries keep working.
	if _, _, err := schedB.Append(context.Background(), []int64{9_000_000, 9_000_001}); err != nil {
		t.Fatalf("sibling append: %v", err)
	}
	q := query.Request{Pred: query.Range(0, 10_000_000), Aggs: column.AggSum | column.AggCount}
	want := oracle.Answer(append(append([]int64(nil), baseB...), 9_000_000, 9_000_001), q)
	got, _, err := schedB.Execute(context.Background(), q)
	if err != nil {
		t.Fatalf("sibling query: %v", err)
	}
	if !answersMatch(got, want) {
		t.Fatalf("sibling answer mismatch:\n got %+v\nwant %+v", got, want)
	}

	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200 (one sick table must not pull the node)", resp.StatusCode)
	}
	if health.Tables["a"] != "quarantined" {
		t.Fatalf("healthz tables = %v, want a: quarantined", health.Tables)
	}
	if _, listed := health.Tables["b"]; listed {
		t.Fatalf("healthy sibling listed in healthz tables: %v", health.Tables)
	}
	resp, err = http.Get(ts.URL + "/tables/a/debug")
	if err != nil {
		t.Fatal(err)
	}
	var dbg TableDebug
	if err := json.NewDecoder(resp.Body).Decode(&dbg); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if dbg.Scheduler.State != "quarantined" {
		t.Fatalf("debug scheduler state = %q, want quarantined", dbg.Scheduler.State)
	}

	// Stop must return: the quarantined loop keeps consuming its queue
	// until quit fires, then drains with rejections.
	done := make(chan struct{})
	go func() { schedA.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop on quarantined scheduler hung")
	}
}

// TestDrainRacesConcurrentWork: Shutdown races live writers and
// readers. Every append is either acked (and must survive recovery
// exactly) or rejected with a typed error; queries never return wrong
// data. Run under -race this also exercises the drain path's
// synchronization.
func TestDrainRacesConcurrentWork(t *testing.T) {
	dir := t.TempDir()
	srv := newDurableServer(t, dir)
	if _, err := srv.Recover(); err != nil {
		t.Fatal(err)
	}
	base := data.Uniform(2000, 13)
	if _, err := srv.Load("t", base, catalog.Options{Strategy: plan.StrategyQuicksort, Delta: 0.25, Shards: 3}); err != nil {
		t.Fatal(err)
	}
	sched, _ := srv.Scheduler("t")

	const writers, readers = 3, 2
	var (
		mu    sync.Mutex
		acked [][]int64
	)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			next := int64(1_000_000 * (w + 1))
			for {
				batch := []int64{next, next + 1}
				next += 2
				_, _, err := sched.Append(context.Background(), batch)
				switch {
				case err == nil:
					mu.Lock()
					acked = append(acked, batch)
					mu.Unlock()
				case errors.Is(err, ErrStopped):
					return
				case errors.Is(err, ErrOverloaded):
					// Shed, not acked; the values are simply skipped.
				default:
					t.Errorf("append failed with unexpected error: %v", err)
					return
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			q := query.Request{Pred: query.Range(0, 100_000_000), Aggs: column.AggCount}
			for {
				ans, _, err := sched.Execute(context.Background(), q)
				switch {
				case err == nil:
					if ans.Count < int64(len(base)) {
						t.Errorf("full-range count %d below base %d", ans.Count, len(base))
					}
				case errors.Is(err, ErrStopped):
					return
				case errors.Is(err, ErrOverloaded):
				default:
					t.Errorf("query failed with unexpected error: %v", err)
					return
				}
			}
		}()
	}
	close(start)
	for {
		mu.Lock()
		n := len(acked)
		mu.Unlock()
		if n >= 20 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()

	srv2 := newDurableServer(t, dir)
	t.Cleanup(srv2.Close)
	if _, err := srv2.Recover(); err != nil {
		t.Fatal(err)
	}
	tbl, ok := srv2.Catalog().Get("t")
	if !ok {
		t.Fatal("table did not recover")
	}
	mu.Lock()
	defer mu.Unlock()
	var ackedRows int
	var ackedSum int64
	for _, b := range acked {
		ackedRows += len(b)
		for _, v := range b {
			ackedSum += v
		}
	}
	if tbl.Len() != len(base)+ackedRows {
		t.Fatalf("recovered rows = %d, want %d base + %d acked", tbl.Len(), len(base), ackedRows)
	}
	ans, err := tbl.Index().Execute(query.Request{Pred: query.AtLeast(1_000_000), Aggs: column.AggSum | column.AggCount})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Count != int64(ackedRows) || ans.Sum != ackedSum {
		t.Fatalf("acked appends after drain+recovery: count %d sum %d, want %d / %d", ans.Count, ans.Sum, ackedRows, ackedSum)
	}
}
