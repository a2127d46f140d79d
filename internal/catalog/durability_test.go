package catalog

import (
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"repro/internal/column"
	"repro/internal/data"
	"repro/internal/durable"
	"repro/internal/encode"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/shard"
)

func openStore(t *testing.T, dir string) *durable.Store {
	t.Helper()
	s, err := durable.Open(dir, durable.SyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// rowsOf collects what a checkpoint's writer would be handed.
func rowsOf(t *testing.T, cp durable.Checkpoint) []int64 {
	t.Helper()
	var rows []int64
	if err := cp.Rows.Each(func(run []int64) error { rows = append(rows, run...); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(rows) != cp.Rows.Len() {
		t.Fatalf("checkpoint handed over %d rows, Len says %d", len(rows), cp.Rows.Len())
	}
	return rows
}

// tableFiles lists the durable files that exist anywhere under the
// data directory for assertions about on-disk lifecycle.
func tableFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			out = append(out, p)
		}
		return nil
	})
	return out
}

func TestDurableDropRemovesOnDiskState(t *testing.T) {
	dir := t.TempDir()
	store := openStore(t, dir)
	c := NewDurable(store)

	vals := data.Uniform(2_000, 3)
	tbl, err := c.Load("victim", vals, Options{Strategy: plan.StrategyBucketsort})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Append([]int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SyncLog(); err != nil {
		t.Fatal(err)
	}
	if files := tableFiles(t, dir); len(files) == 0 {
		t.Fatal("durable load left no files on disk")
	}
	if _, err := c.Drop("victim"); err != nil {
		t.Fatal(err)
	}
	for _, f := range tableFiles(t, dir) {
		t.Errorf("file survived drop: %s", f)
	}

	// Recreate the same name with different data: recovery must see
	// only the new table's own rows.
	if _, err := c.Load("victim", []int64{10, 20, 30}, Options{Strategy: plan.StrategyQuicksort}); err != nil {
		t.Fatal(err)
	}
	store.Close()

	store2 := openStore(t, dir)
	recs, errs, err := store2.Recover()
	if err != nil || len(errs) != 0 || len(recs) != 1 {
		t.Fatalf("Recover: %v %v (%d tables)", err, errs, len(recs))
	}
	c2 := NewDurable(store2)
	tbl2, err := c2.LoadRecovered(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	if info := tbl2.Info(); tbl2.Len() != 3 || info.MinValue != 10 || info.MaxValue != 30 {
		t.Fatalf("recreated table recovered %d rows [%d, %d], want the 3 new rows",
			tbl2.Len(), info.MinValue, info.MaxValue)
	}
	if tbl2.Options().Strategy != plan.StrategyQuicksort {
		t.Fatalf("recreated table options = %+v", tbl2.Options())
	}
}

func TestDroppedTableDoesNotResurrect(t *testing.T) {
	dir := t.TempDir()
	store := openStore(t, dir)
	c := NewDurable(store)
	if _, err := c.Load("gone", []int64{1, 2}, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Drop("gone"); err != nil {
		t.Fatal(err)
	}
	store.Close()

	store2 := openStore(t, dir)
	recs, errs, err := store2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || len(errs) != 0 {
		t.Fatalf("dropped table resurrected: %d tables, errs %v", len(recs), errs)
	}
}

func TestOptionsMetaRoundTrip(t *testing.T) {
	on := true
	o := Options{
		Strategy:   plan.StrategyRadixLSD,
		Delta:      0.125,
		Budget:     1_500_000, // 1.5ms
		Adaptive:   true,
		Workers:    4,
		Shards:     8,
		IdleRefine: &on,
	}
	got, err := optionsFromMeta(o.meta())
	if err != nil {
		t.Fatal(err)
	}
	if got.Strategy != o.Strategy || got.Delta != o.Delta || got.Budget != o.Budget ||
		got.Adaptive != o.Adaptive || got.Workers != o.Workers || got.Shards != o.Shards ||
		got.IdleRefine == nil || *got.IdleRefine != on {
		t.Fatalf("round-trip mismatch: %+v vs %+v", got, o)
	}
}

// TestCheckpointStreamsTheCapturedView: a checkpoint of a settled
// one-column table hands its writer the rows a block at a time, so the
// write never holds a copy of the table, and they are the rows of the
// capture even when the write comes after appends have sealed and
// settled a shard of their own; recovery then replays those appends
// from the WAL on top of it.
func TestCheckpointStreamsTheCapturedView(t *testing.T) {
	dir := t.TempDir()
	store := openStore(t, dir)
	logical := data.Uniform(20_000, 5)
	tbl, err := NewDurable(store).Load("t", append([]int64(nil), logical...),
		Options{Strategy: plan.StrategyQuicksort, Delta: 0.25, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	settle := func(shards int) {
		t.Helper()
		for i := 0; i < 100_000 && !tbl.Index().Converged(); i++ {
			tbl.Index().RefineStep()
		}
		stats, _ := tbl.ShardStats()
		for _, si := range stats {
			if si.Form != "settled" || len(stats) != shards {
				t.Fatalf("want %d settled shards: %+v", shards, stats)
			}
		}
	}
	settle(2)
	cp, _ := tbl.CaptureCheckpoint()
	appended := make([]int64, 5_000) // past the seal threshold: one shard
	for i := range appended {
		appended[i] = 40_000 + int64(i)
	}
	if err := tbl.Append(appended); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SyncLog(); err != nil {
		t.Fatal(err)
	}
	settle(3)

	longest := 0
	if err := cp.Rows.Each(func(run []int64) error { longest = max(longest, len(run)); return nil }); err != nil {
		t.Fatal(err)
	}
	if longest > encode.BlockRows {
		t.Fatalf("a settled table's checkpoint handed over a run of %d rows, want at most a block (%d)", longest, encode.BlockRows)
	}
	if !sameRows(rowsOf(t, cp), logical) {
		t.Fatal("the checkpoint's rows moved with the table after the capture")
	}
	if err := tbl.WriteCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	store.Close()

	recs, errs, err := openStore(t, dir).Recover()
	if err != nil || len(errs) != 0 || len(recs) != 1 {
		t.Fatalf("Recover: %v %v (%d tables)", err, errs, len(recs))
	}
	if !sameRows(recs[0].Base, logical) || len(recs[0].Batches) != 1 || !slices.Equal(recs[0].Batches[0], appended) {
		t.Fatalf("recovered a snapshot of %d rows and %d WAL batches: want the %d captured rows, then the append",
			len(recs[0].Base), len(recs[0].Batches), len(logical))
	}
}

// TestMultiColumnCheckpointStreamsTheCapturedView: a checkpoint of a
// three-column table, raw or FOR-BP, is its columns' blocks taken under
// the table's read lock, so the capture copies no row — it allocates under
// 1 % of the table's 8·k bytes a row — and the writer is handed one block
// of tuples at a time, block b of every column interleaved. Its tuples are
// the table's at the capture, in row order, whatever the table does next:
// appends past the seal threshold, the idle flush, claims and settles. A
// recovery returns them, with the later appends from the WAL.
func TestMultiColumnCheckpointStreamsTheCapturedView(t *testing.T) {
	const n, k = 60_000, 3
	for _, enc := range []encode.Mode{encode.ModeRaw, encode.ModeFORBP} {
		t.Run(enc.String(), func(t *testing.T) {
			dir := t.TempDir()
			store := openStore(t, dir)
			logical := data.MultiColumn(n, k, 17)
			tbl, err := NewDurable(store).Load("wide", slices.Clone(logical), Options{
				Strategy: plan.StrategyQuicksort, Delta: 0.25, Shards: 2, Encoding: enc, Columns: []string{"a", "b", "c"}})
			if err != nil {
				t.Fatal(err)
			}
			ingest := func(tuples []int64) {
				t.Helper()
				if err := tbl.Append(tuples); err != nil {
					t.Fatal(err)
				}
				if err := tbl.SyncLog(); err != nil {
					t.Fatal(err)
				}
			}
			pending := data.MultiColumn(1_000, k, 18) // rides in the tail
			ingest(pending)
			captured := append(slices.Clone(logical), pending...)

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			cp, _ := tbl.CaptureCheckpoint()
			runtime.ReadMemStats(&after)
			if alloc, table := after.TotalAlloc-before.TotalAlloc, uint64(8*len(captured)); alloc*100 >= table {
				t.Fatalf("the capture allocated %d B, not under 1 %% of the table's %d B", alloc, table)
			}
			check := func(when string) {
				t.Helper()
				longest := 0
				if err := cp.Rows.Each(func(run []int64) error { longest = max(longest, len(run)); return nil }); err != nil {
					t.Fatal(err)
				}
				if longest > k*encode.BlockRows {
					t.Fatalf("%s: the writer was handed a run of %d values, more than a block of tuples (%d)", when, longest, k*encode.BlockRows)
				}
				if !slices.Equal(rowsOf(t, cp), captured) {
					t.Fatalf("%s: the checkpoint's tuples are not the captured table's", when)
				}
			}
			check("captured")

			appended := data.MultiColumn(40_000, k, 19) // past the seal threshold
			ingest(appended)
			check("after the appends")
			h := tbl.Handle()
			for i := 0; i < 40; i++ { // heat column a's cold shards into claims
				if _, err := h.Execute(query.Request{Pred: query.Range(0, 1<<40), Aggs: column.AggAll}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 100_000 && !h.Converged(); i++ {
				h.RefineStep()
			}
			if h.PendingRows() != 0 || !slices.ContainsFunc(h.ShardStats(), func(si shard.Info) bool { return si.Form == "settled" }) {
				t.Fatalf("the table did not flush and settle: %d pending, %+v", h.PendingRows(), h.ShardStats())
			}
			check("after the flush and the settles")

			if err := tbl.WriteCheckpoint(cp); err != nil {
				t.Fatal(err)
			}
			store.Close()
			recs, errs, err := openStore(t, dir).Recover()
			if err != nil || len(errs) != 0 || len(recs) != 1 {
				t.Fatalf("Recover: %v %v (%d tables)", err, errs, len(recs))
			}
			if !slices.Equal(recs[0].Base, captured) || len(recs[0].Batches) != 1 || !slices.Equal(recs[0].Batches[0], appended) {
				t.Fatalf("recovered %d values and %d WAL batches: want the %d captured values, then the append",
					len(recs[0].Base), len(recs[0].Batches), len(captured))
			}
		})
	}
}

// TestCaptureRacesAppends: a capture is exact on any goroutine, not only
// the serving loop. One goroutine appends batches of distinct sizes (the
// frame of sequence s holds s rows) through Append and SyncLog while
// another captures in a loop: every capture holds the loaded rows plus
// frames 1..Seq, no more and no less (Rows.Len counts values, k a row).
// One capture taken mid-stream is written while the appends go on; after
// a hard close, recovery returns the loaded rows and every appended one
// exactly once. A raw one-column table and a three-column FOR-BP one.
func TestCaptureRacesAppends(t *testing.T) {
	const n, frames = 5_000, 64 // 2 080 appended rows: past the 1 024-row seal threshold twice
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"raw", Options{Strategy: plan.StrategyQuicksort, Delta: 0.25}},
		{"forbp3", Options{Strategy: plan.StrategyQuicksort, Delta: 0.25, Encoding: encode.ModeFORBP, Columns: []string{"a", "b", "c"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := tc.opts.RowWidth()
			dir := t.TempDir()
			store := openStore(t, dir)
			logical := data.MultiColumn(n, k, 23)
			tbl, err := NewDurable(store).Load("t", slices.Clone(logical), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			var appended []int64 // the appender's until done closes
			done, midTaken := make(chan struct{}), make(chan struct{})
			appendErr := make(chan error, 1)
			go func() {
				defer close(done)
				next := int64(1 << 30)
				for s := 1; s <= frames; s++ {
					batch := make([]int64, s*k)
					for i := range batch {
						batch[i] = next
						next++
					}
					if err := tbl.Append(batch); err != nil {
						appendErr <- err
						return
					}
					if err := tbl.SyncLog(); err != nil {
						appendErr <- err
						return
					}
					appended = append(appended, batch...)
					if s == frames/2 {
						<-midTaken // a capture falls mid-stream on every run
					}
				}
			}()
			captures, written := 0, false
			defer func() { // a failed check still stops and waits for the appender
				if !written {
					close(midTaken)
				}
				<-done
			}()
			for running := true; running; captures++ {
				select {
				case <-done:
					running = false
				default:
				}
				cp, _ := tbl.CaptureCheckpoint()
				if got, want := cp.Rows.Len()/k, n+int(cp.Seq*(cp.Seq+1)/2); got != want {
					t.Fatalf("capture at seq %d holds %d rows, want %d loaded and %d appended", cp.Seq, got, n, want-n)
				}
				if cp.Seq >= frames/2 && !written {
					close(midTaken) // the appends resume and race the write
					written = true
					if err := tbl.WriteCheckpoint(cp); err != nil {
						t.Fatal(err)
					}
				}
			}
			select {
			case err := <-appendErr:
				t.Fatal(err)
			default:
			}
			store.Close() // hard: no final checkpoint
			recs, errs, err := openStore(t, dir).Recover()
			if err != nil || len(errs) != 0 || len(recs) != 1 {
				t.Fatalf("Recover: %v %v (%d tables)", err, errs, len(recs))
			}
			got := slices.Concat(append([][]int64{recs[0].Base}, recs[0].Batches...)...)
			want := slices.Concat(logical, appended)
			if k == 1 && !sameRows(got, want) || k > 1 && !slices.Equal(got, want) {
				t.Fatalf("recovered %d values over %d captures, want the %d loaded and %d appended each once",
					len(got), captures, len(logical), len(appended))
			}
		})
	}
}

// TestOutOfDomainAppendWritesNoFrame: a durable table checks a batch
// whole before it logs it, so a batch holding a value outside ±2^62 —
// on a table of either row width — leaves the WAL as it was.
func TestOutOfDomainAppendWritesNoFrame(t *testing.T) {
	for _, cols := range [][]string{nil, {"a", "b"}} {
		dir := t.TempDir()
		k := max(len(cols), 1)
		tbl, err := NewDurable(openStore(t, dir)).Load("t", data.Uniform(1000*k, 3), Options{Strategy: plan.StrategyQuicksort, Columns: cols})
		if err != nil {
			t.Fatal(err)
		}
		good := data.Uniform(4*k, 5)
		if err := tbl.Append(good); err != nil {
			t.Fatal(err)
		}
		if err := tbl.SyncLog(); err != nil {
			t.Fatal(err)
		}
		segs, _ := filepath.Glob(filepath.Join(dir, "tables", "*", "wal-*.seg"))
		if len(segs) != 1 {
			t.Fatalf("%d WAL segments after one append, want 1", len(segs))
		}
		before, err := os.Stat(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		for _, bad := range []int64{1 << 62, -(1 << 62)} {
			batch := slices.Clone(good)
			batch[len(batch)-1] = bad
			if err := tbl.Append(batch); err == nil {
				t.Fatalf("columns %q: append of %d accepted", cols, bad)
			}
		}
		if err := tbl.SyncLog(); err != nil {
			t.Fatal(err)
		}
		after, err := os.Stat(segs[0])
		if d := tbl.Info().Durability; err != nil || after.Size() != before.Size() || d.TailFrames != 1 || tbl.Len() != 1004 {
			t.Fatalf("columns %q: refused appends moved the log: segment %d → %d bytes (%v), %d frames, %d rows; want %d bytes, 1 frame, 1004 rows",
				cols, before.Size(), after.Size(), err, d.TailFrames, tbl.Len(), before.Size())
		}
	}
}
