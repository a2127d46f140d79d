package durable

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/fault"
)

// TestTornAppendRepairedInline: a torn (partial) WAL write is repaired
// by the writer immediately — the failed frame's bytes are truncated
// away — so frames appended and acked afterwards are NOT stranded
// behind an unreadable region: replay must yield exactly the
// successful appends, in order, with no torn-tail warning.
func TestTornAppendRepairedInline(t *testing.T) {
	dir := t.TempDir()
	// The wal.append op counter sees the segment-create OpenFile first
	// (op 1) and the first frame's Write second (op 2); tearing op 3
	// hits the second frame's Write.
	in := fault.NewInjector(7, fault.Rule{Op: fault.OpWALAppend, Kind: fault.KindTorn, After: 2, Count: 1})
	s, err := OpenFS(dir, SyncBatch, fault.Injecting(fault.OS(), in))
	if err != nil {
		t.Fatal(err)
	}
	log, err := s.Create("demo", TableMeta{Strategy: "pq"}, 1, []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append([]int64{10, 11}); err != nil {
		t.Fatalf("append A: %v", err)
	}
	if _, err := log.Append([]int64{20, 21, 22}); err == nil {
		t.Fatal("append B survived an injected torn write")
	}
	if got := in.Fired(fault.OpWALAppend); got != 1 {
		t.Fatalf("injected %d torn writes, want 1 (op offsets shifted?)", got)
	}
	// The log stays appendable and the sequence is not burned: C takes
	// the seq the torn B never durably claimed.
	seqC, err := log.Append([]int64{30})
	if err != nil {
		t.Fatalf("append C after repaired tear: %v", err)
	}
	if seqC != 2 {
		t.Fatalf("append C seq = %d, want 2", seqC)
	}
	if err := log.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, SyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recs, errs, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range errs {
		t.Fatalf("recover error: %v", e)
	}
	if len(recs) != 1 {
		t.Fatalf("recovered %d tables, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Repaired {
		t.Fatal("replay repaired a torn tail: the writer should have repaired it inline")
	}
	want := [][]int64{{10, 11}, {30}}
	if len(rec.Batches) != len(want) {
		t.Fatalf("recovered %d batches %v, want %v", len(rec.Batches), rec.Batches, want)
	}
	for i := range want {
		if !eq(rec.Batches[i], want[i]) {
			t.Fatalf("batch %d = %v, want %v", i, rec.Batches[i], want[i])
		}
	}
}

// TestTornAppendUnrepairableBreaksLog: if the tail truncation itself
// fails, the log must refuse all further appends — acking frames it
// would strand behind the unreadable tear would be a silent-loss bug.
func TestTornAppendUnrepairableBreaksLog(t *testing.T) {
	w := &wal{dir: t.TempDir(), policy: SyncOff, fs: fault.OS(), nextSeq: 1,
		broken: errors.New("durable: WAL unwritable (test)")}
	if _, err := w.append([]int64{1}); err == nil || err != w.broken {
		t.Fatalf("append on broken log = %v, want the sticky poison error", err)
	}
}

// TestRollbackDropsPendingFrames: the frames written since the last good
// Sync, whose Sync then keeps failing, are cut from the segment by
// Rollback: the next append reuses the first one's sequence number, and
// recovery replays none of them.
func TestRollbackDropsPendingFrames(t *testing.T) {
	dir := t.TempDir()
	// The first sync succeeds, every later one fails.
	in := fault.NewInjector(1, fault.Rule{Op: fault.OpWALSync, Kind: fault.KindError, After: 1})
	s, err := OpenFS(dir, SyncBatch, fault.Injecting(fault.OS(), in))
	if err != nil {
		t.Fatal(err)
	}
	log, err := s.Create("demo", TableMeta{Strategy: "pq"}, 1, []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append([]int64{10}); err != nil {
		t.Fatal(err)
	}
	if err := log.Sync(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(log.dir, segmentName(1))
	synced, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]int64{{20, 21}, {30}} {
		if _, err := log.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	for try := 0; try < 3; try++ {
		if err := log.Sync(); err == nil {
			t.Fatal("a sync under an injected failure succeeded")
		}
	}
	log.Rollback()
	if st, err := os.Stat(seg); err != nil || st.Size() != synced.Size() {
		t.Fatalf("segment after rollback: %v %v, want %d bytes", st, err, synced.Size())
	}
	if log.LastSeq() != 1 || log.TailFrames() != 1 {
		t.Fatalf("LastSeq %d, TailFrames %d after rollback; want 1, 1", log.LastSeq(), log.TailFrames())
	}
	if seq, err := log.Append([]int64{40}); err != nil || seq != 2 {
		t.Fatalf("append after rollback = seq %d, %v; want 2", seq, err)
	}
	log.Rollback()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, SyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec := recoverOne(t, s2, "demo")
	if rec.Repaired || len(rec.Batches) != 1 || !eq(rec.Batches[0], []int64{10}) {
		t.Fatalf("recovered %v (repaired %v), want [[10]] alone", rec.Batches, rec.Repaired)
	}
	if seq, err := rec.Log.Append([]int64{50}); err != nil || seq != 2 {
		t.Fatalf("append after recovery = seq %d, %v; want 2", seq, err)
	}
}

// TestCheckpointKeepsPendingSegmentActive: a checkpoint written while a
// frame is pending does not roll its segment, so a rollback still finds
// every pending frame in the active segment; the next checkpoint with
// nothing pending rolls and prunes it.
func TestCheckpointKeepsPendingSegmentActive(t *testing.T) {
	s := openTestStore(t, SyncBatch)
	log, err := s.Create("t", TableMeta{Strategy: "pq"}, 1, []int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	log.Append([]int64{3})
	if err := log.Sync(); err != nil {
		t.Fatal(err)
	}
	log.Append([]int64{4}) // pending
	if err := log.WriteCheckpoint(Checkpoint{Seq: 1, Rows: Values{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if starts, err := listSegments(log.dir); err != nil || !slices.Equal(starts, []uint64{1}) || log.w.segStart != 1 {
		t.Fatalf("segments %v (%v), active from %d after a checkpoint over a pending frame; want [1], active", starts, err, log.w.segStart)
	}
	log.Rollback()
	if log.LastSeq() != 1 {
		t.Fatalf("LastSeq after rollback = %d, want 1", log.LastSeq())
	}
	log.Append([]int64{5})
	if err := log.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := log.WriteCheckpoint(Checkpoint{Seq: 2, Rows: Values{1, 2, 3, 5}}); err != nil {
		t.Fatal(err)
	}
	if starts, err := listSegments(log.dir); err != nil || !slices.Equal(starts, []uint64{3}) {
		t.Fatalf("segments %v (%v) after a checkpoint with nothing pending; want [3]", starts, err)
	}
}
