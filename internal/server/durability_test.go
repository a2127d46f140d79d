package server

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/column"
	"repro/internal/data"
	"repro/internal/durable"
	"repro/internal/oracle"
	"repro/internal/plan"
	"repro/internal/query"
)

// newDurableServer opens a store over dir and builds a server on it
// with the background snapshot cadence effectively disabled, so tests
// control exactly when checkpoints happen.
func newDurableServer(t *testing.T, dir string) *Server {
	t.Helper()
	store, err := durable.Open(dir, durable.SyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	return New(Config{Store: store, SnapshotInterval: 1 << 40}) // ~18min ticks: never fires in a test
}

// answersMatch compares every aggregate bit-exactly.
func answersMatch(a, b query.Answer) bool {
	if a.Count != b.Count || a.Sum != b.Sum {
		return false
	}
	amin, aok := a.MinOk()
	bmin, bok := b.MinOk()
	if aok != bok || amin != bmin {
		return false
	}
	amax, aok := a.MaxOk()
	bmax, bok := b.MaxOk()
	if aok != bok || amax != bmax {
		return false
	}
	aavg, aok := a.AvgOk()
	bavg, bok := b.AvgOk()
	return aok == bok && aavg == bavg
}

// TestRecoverRefusesABaselineTable: a store written when a table could
// serve the baselines holds an FS table beside a PQ one. Recovery
// refuses the FS table with one warning and serves the PQ table.
func TestRecoverRefusesABaselineTable(t *testing.T) {
	dir := t.TempDir()
	store, err := durable.Open(dir, durable.SyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	base := data.Uniform(2000, 3)
	for _, strat := range []string{"FS", "PQ"} {
		if _, err := store.Create(strat, durable.TableMeta{Strategy: strat}, 0, base); err != nil {
			t.Fatal(err)
		}
	}
	store.Close()
	srv := newDurableServer(t, dir)
	t.Cleanup(srv.Close)
	warnings, err := srv.Recover()
	if err != nil || len(warnings) != 1 || !strings.Contains(warnings[0].Error(), "cmd/experiments") {
		t.Fatalf("recovery: warnings %v, err %v; want the one refusal of the FS table", warnings, err)
	}
	q := query.Request{Pred: query.Range(100, 1500), Aggs: column.AggAll}
	want := oracle.Answer(base, q)
	if sched, ok := srv.Scheduler("PQ"); !ok {
		t.Fatal("the PQ table is not served")
	} else if got, _, err := sched.Execute(context.Background(), q); err != nil || !answersMatch(got, want) {
		t.Fatalf("recovered PQ table: %+v, %v; want %+v", got, err, want)
	}
}

// TestGracefulShutdownDrainsAppends: appenders race a Shutdown; every
// append acked before the shutdown must survive recovery, and queued
// ones must be either acked-and-durable or rejected explicitly — never
// silently dropped.
func TestGracefulShutdownDrainsAppends(t *testing.T) {
	dir := t.TempDir()
	srv := newDurableServer(t, dir)
	if _, err := srv.Recover(); err != nil {
		t.Fatal(err)
	}
	base := data.Uniform(2000, 99)
	if _, err := srv.Load("t", base, catalog.Options{Strategy: plan.StrategyQuicksort, Shards: 3}); err != nil {
		t.Fatal(err)
	}
	sched, _ := srv.Scheduler("t")

	const writers = 4
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
			for i := 0; ; i++ {
				batch := []int64{next, next + 1}
				next += 2
				_, _, err := sched.Append(context.Background(), batch)
				if err != nil {
					return // ErrStopped: explicitly rejected, not acked
				}
				mu.Lock()
				acked = append(acked, batch)
				mu.Unlock()
			}
		}()
	}
	close(start)
	// Let the writers get some acks in, then shut down under load.
	for {
		mu.Lock()
		got := len(acked)
		mu.Unlock()
		if got >= 20 {
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
	// All appended values sit at >= 1M, disjoint from the base domain:
	// their sum and count must match the acked set exactly.
	ans, err := tbl.Index().Execute(query.Request{Pred: query.AtLeast(1_000_000), Aggs: column.AggSum | column.AggCount})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Count != int64(ackedRows) || ans.Sum != ackedSum {
		t.Fatalf("acked appends after shutdown+recovery: count %d sum %d, want %d / %d",
			ans.Count, ans.Sum, ackedRows, ackedSum)
	}
	// Graceful shutdown checkpointed: recovery replayed no WAL tail.
	if d := tbl.Info().Durability; d == nil || d.TailFrames != 0 {
		t.Fatalf("durability after graceful shutdown = %+v, want zero tail", d)
	}
}

// TestShutdownSkipsQuarantinedTable: a table whose serving loop
// panicked is not trusted again before a restart, so graceful shutdown
// writes it no final snapshot. Recovery serves exactly the acked rows,
// from the snapshot taken before the panic plus the WAL behind it.
func TestShutdownSkipsQuarantinedTable(t *testing.T) {
	dir := t.TempDir()
	store, err := durable.Open(dir, durable.SyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Store: store, SnapshotInterval: 1 << 40, Logger: slog.New(slog.DiscardHandler)})
	if _, err := srv.Recover(); err != nil {
		t.Fatal(err)
	}
	base := data.Uniform(2000, 7)
	sched := loadRobust(t, srv, "t", base)
	ctx := context.Background()
	rows := append([]int64(nil), base...)
	appendAcked := func(v int64) {
		if _, _, err := sched.Append(ctx, []int64{v, v + 1}); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, v, v+1)
	}
	appendAcked(1_000_000)
	appendAcked(1_000_002)
	if ok, err := sched.Checkpoint(); !ok || err != nil {
		t.Fatalf("checkpoint: ok=%v err=%v", ok, err)
	}
	appendAcked(1_000_004)
	appendAcked(1_000_006)
	r, err := sched.admit(ctx, &task{panicTest: true, reply: make(chan result, 1), enqueued: time.Now()})
	if err != nil || !errors.Is(r.err, ErrQuarantined) {
		t.Fatalf("panic task: reply %v, err %v; want ErrQuarantined", r.err, err)
	}
	snaps := func() []string {
		names, err := filepath.Glob(filepath.Join(dir, "tables", "*", "snap-*.snap"))
		if err != nil {
			t.Fatal(err)
		}
		return names
	}
	before := snaps()
	if err := srv.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if after := snaps(); !slices.Equal(after, before) {
		t.Fatalf("Shutdown wrote a quarantined table's snapshot: %v, was %v", after, before)
	}

	srv2 := newDurableServer(t, dir)
	t.Cleanup(srv2.Close)
	if _, err := srv2.Recover(); err != nil {
		t.Fatal(err)
	}
	tbl, ok := srv2.Catalog().Get("t")
	if !ok {
		t.Fatal("table did not recover")
	}
	if d := tbl.Info().Durability; d == nil || d.CoveredSeq != 2 || d.TailFrames != 2 {
		t.Fatalf("recovered durability = %+v, want the seq-2 snapshot and two WAL frames", d)
	}
	q := query.Request{Pred: query.Range(0, 2_000_000), Aggs: column.AggSum | column.AggCount | column.AggMin | column.AggMax}
	want := oracle.Answer(rows, q)
	got, err := tbl.Index().Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != len(rows) || !answersMatch(got, want) {
		t.Fatalf("recovered %d rows answering %+v, want %d rows answering %+v", tbl.Len(), got, len(rows), want)
	}
}

// TestHealthzBootStates: a durable server answers 503 starting before
// recovery and 200 ready after, so load balancers hold traffic during
// WAL replay.
func TestHealthzBootStates(t *testing.T) {
	dir := t.TempDir()
	srv := newDurableServer(t, dir)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-recovery healthz = %d, want 503", resp.StatusCode)
	}
	if got := srv.BootState(); got != "starting" {
		t.Fatalf("BootState = %q, want starting", got)
	}
	if _, err := srv.Recover(); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery healthz = %d, want 200", resp.StatusCode)
	}
	if got := srv.BootState(); got != "ready" {
		t.Fatalf("BootState = %q, want ready", got)
	}
}

// ownSchedulerLoops counts the scheduler loops still running that the
// calling goroutine started, read off a dump of every goroutine's stack
// ("created by ...newScheduler in goroutine N").
func ownSchedulerLoops() int {
	buf := make([]byte, 1<<20)
	me, _, _ := strings.Cut(string(buf[:runtime.Stack(buf, false)]), " [")
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "server.newScheduler in "+me+"\n")
}

// TestDropDuringRecoveryLeavesNoScheduler: the listener serves DELETE
// while Recover runs, so a drop can land after LoadRecovered has
// published a table and before its scheduler is registered, and finds
// nothing to stop. The test walks Recover's steps by hand to put the drop
// exactly there. The registration Load and Recover share must notice:
// the dropped table gets no scheduler and no loop goroutine, its
// neighbour is served, and a checkpoint round does not reach into the
// dropped table's removed WAL.
func TestDropDuringRecoveryLeavesNoScheduler(t *testing.T) {
	dir := t.TempDir()
	srv := newDurableServer(t, dir)
	if _, err := srv.Recover(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"doomed", "kept"} {
		if _, err := srv.Load(name, data.Uniform(2000, 5), catalog.Options{}); err != nil {
			t.Fatal(err)
		}
		sched, _ := srv.Scheduler(name)
		if _, _, err := sched.Append(context.Background(), []int64{7, 8, 9}); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close() // crash: the appends are WAL tail, not snapshot

	srv2 := newDurableServer(t, dir)
	t.Cleanup(srv2.Close)
	recs, warns, err := srv2.cfg.Store.Recover()
	if err != nil || len(warns) != 0 || len(recs) != 2 {
		t.Fatalf("store recovery: %d tables, warnings %v, err %v", len(recs), warns, err)
	}
	for _, rec := range recs {
		tbl, err := srv2.catalog.LoadRecovered(rec)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Name == "doomed" {
			if err := srv2.Drop("doomed"); err != nil { // DELETE /tables/doomed
				t.Fatal(err)
			}
		}
		if err := srv2.register(tbl); (err != nil) != (rec.Name == "doomed") {
			t.Fatalf("register %q: %v", rec.Name, err)
		}
	}
	if _, ok := srv2.Scheduler("doomed"); ok {
		t.Fatal("a dropped table has a scheduler")
	}
	if _, ok := srv2.Scheduler("kept"); !ok {
		t.Fatal("the table that was not dropped has no scheduler")
	}
	// A stopped loop is gone a moment after Stop returns; a leaked one stays.
	for deadline := time.Now().Add(5 * time.Second); ownSchedulerLoops() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d scheduler loops running, want the kept table's one", ownSchedulerLoops())
		}
	}
	if errs := srv2.CheckpointAll(context.Background()); len(errs) != 0 {
		t.Fatalf("checkpoint round after the drop: %v", errs)
	}
}

// TestSnapshotCadence: with a short interval, the background loop
// checkpoints a table that accumulated WAL tail without any explicit
// Checkpoint call.
func TestSnapshotCadence(t *testing.T) {
	dir := t.TempDir()
	store, err := durable.Open(dir, durable.SyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Store: store, SnapshotInterval: time.Millisecond})
	t.Cleanup(srv.Close)
	if _, err := srv.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Load("t", data.Uniform(1000, 5), catalog.Options{Strategy: plan.StrategyQuicksort}); err != nil {
		t.Fatal(err)
	}
	sched, _ := srv.Scheduler("t")
	if _, _, err := sched.Append(context.Background(), []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	tbl, _ := srv.Catalog().Get("t")
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if d := tbl.Info().Durability; d != nil && d.CoveredSeq >= 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("background snapshot cadence never checkpointed the table")
}
