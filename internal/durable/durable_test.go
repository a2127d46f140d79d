package durable

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

func openTestStore(t *testing.T, policy SyncPolicy) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), policy)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func recoverOne(t *testing.T, s *Store, name string) Recovered {
	t.Helper()
	recs, errs, err := s.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	for _, e := range errs {
		t.Fatalf("Recover table error: %v", e)
	}
	for _, r := range recs {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("Recover: table %q not found (got %d tables)", name, len(recs))
	return Recovered{}
}

func eq(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"always", SyncAlways}, {"batch", SyncBatch}, {"", SyncBatch}, {"off", SyncOff}, {"OFF", SyncOff}} {
		got, err := ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("ParseSyncPolicy accepted garbage")
	}
}

func TestCreateAppendRecover(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, SyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	base := []int64{10, 20, 30}
	log, err := s.Create("demo", TableMeta{Strategy: "pq", Shards: 3}, 42, base)
	if err != nil {
		t.Fatal(err)
	}
	batches := [][]int64{{40, 50}, {60}, {70, 80, 90}}
	for i, b := range batches {
		seq, err := log.Append(b)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	if err := log.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := log.TailFrames(); got != 3 {
		t.Fatalf("TailFrames = %d, want 3", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, SyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec := recoverOne(t, s2, "demo")
	if !eq(rec.Base, base) {
		t.Fatalf("Base = %v, want %v", rec.Base, base)
	}
	if len(rec.Batches) != len(batches) {
		t.Fatalf("got %d batches, want %d", len(rec.Batches), len(batches))
	}
	for i := range batches {
		if !eq(rec.Batches[i], batches[i]) {
			t.Fatalf("batch %d = %v, want %v", i, rec.Batches[i], batches[i])
		}
	}
	if rec.Meta.Strategy != "pq" || rec.Meta.Shards != 3 || rec.CreatedAt != 42 {
		t.Fatalf("meta round-trip: %+v created %d", rec.Meta, rec.CreatedAt)
	}
	// The reopened log continues the sequence.
	seq, err := rec.Log.Append([]int64{99})
	if err != nil {
		t.Fatal(err)
	}
	if seq != 4 {
		t.Fatalf("resumed seq = %d, want 4", seq)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	log, err := s.Create("t", TableMeta{Strategy: "fs"}, 1, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append([]int64{2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append([]int64{4}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Simulate a crash mid-write: append a partial frame to the newest
	// segment — a full header promising 5 values but only 2 present.
	segs, err := listSegments(s.tableDir("t"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("listSegments: %v (%d)", err, len(segs))
	}
	path := filepath.Join(s.tableDir("t"), segmentName(segs[len(segs)-1]))
	torn := make([]byte, frameHeaderSize+16)
	binary.LittleEndian.PutUint64(torn[0:8], 3)
	binary.LittleEndian.PutUint32(torn[8:12], 5)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(torn)
	f.Close()

	s2, err := Open(dir, SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec := recoverOne(t, s2, "t")
	if !rec.Repaired {
		t.Error("torn tail not reported as repaired")
	}
	if len(rec.Batches) != 2 || !eq(rec.Batches[0], []int64{2, 3}) || !eq(rec.Batches[1], []int64{4}) {
		t.Fatalf("batches after repair = %v", rec.Batches)
	}
	// The repaired log must append cleanly at the next sequence.
	seq, err := rec.Log.Append([]int64{5})
	if err != nil || seq != 3 {
		t.Fatalf("post-repair append: seq %d err %v", seq, err)
	}
}

func TestCorruptFrameTruncated(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, SyncOff)
	log, err := s.Create("t", TableMeta{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	log.Append([]int64{1})
	log.Append([]int64{2})
	log.Append([]int64{3})
	s.Close()

	// Flip a payload bit in the last frame.
	segs, _ := listSegments(s.tableDir("t"))
	path := filepath.Join(s.tableDir("t"), segmentName(segs[len(segs)-1]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x40
	os.WriteFile(path, data, 0o644)

	s2, _ := Open(dir, SyncOff)
	defer s2.Close()
	rec := recoverOne(t, s2, "t")
	if !rec.Repaired || len(rec.Batches) != 2 {
		t.Fatalf("repaired=%v batches=%v", rec.Repaired, rec.Batches)
	}
}

func TestCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, SyncBatch)
	log, err := s.Create("t", TableMeta{Strategy: "pmsd"}, 7, []int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	log.Append([]int64{3})
	log.Append([]int64{4, 5})
	log.Sync()
	cp := Checkpoint{
		Seq: 2, Rows: Values{1, 2, 3, 4, 5},
		Progress: 0.5, Appends: 2, AppendRows: 3, CreatedAt: 7,
		Meta: TableMeta{Strategy: "pmsd"},
	}
	if err := log.WriteCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	if got := log.CoveredSeq(); got != 2 {
		t.Fatalf("CoveredSeq = %d, want 2", got)
	}
	if got := log.TailFrames(); got != 0 {
		t.Fatalf("TailFrames = %d, want 0", got)
	}
	// Appends after the checkpoint land in the fresh segment.
	log.Append([]int64{6})
	log.Sync()
	s.Close()

	// Old snapshots and covered segments are pruned.
	snaps, _ := listSnapshots(s.tableDir("t"))
	if len(snaps) != 1 || snaps[0] != 2 {
		t.Fatalf("snapshots = %v, want [2]", snaps)
	}

	s2, _ := Open(dir, SyncBatch)
	defer s2.Close()
	rec := recoverOne(t, s2, "t")
	if !eq(rec.Base, []int64{1, 2, 3, 4, 5}) {
		t.Fatalf("Base = %v", rec.Base)
	}
	if rec.Progress != 0.5 || rec.Appends != 2 || rec.AppendRows != 3 {
		t.Fatalf("snapshot state: %+v", rec)
	}
	if len(rec.Batches) != 1 || !eq(rec.Batches[0], []int64{6}) {
		t.Fatalf("tail = %v, want [[6]]", rec.Batches)
	}
}

func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, SyncBatch)
	log, err := s.Create("t", TableMeta{}, 1, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	log.Append([]int64{2})
	log.Sync()
	if err := log.WriteCheckpoint(Checkpoint{Seq: 1, Rows: Values{1, 2}}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Corrupt the newest snapshot; with the base snapshot pruned, the
	// table becomes unrecoverable and Recover must say so (not crash).
	path := filepath.Join(s.tableDir("t"), snapshotName(1))
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0xFF
	os.WriteFile(path, data, 0o644)

	s2, _ := Open(dir, SyncBatch)
	defer s2.Close()
	recs, errs, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || len(errs) != 1 {
		t.Fatalf("recs=%d errs=%v, want 0 tables and 1 error", len(recs), errs)
	}
}

func TestDropRemovesState(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, SyncBatch)
	log, err := s.Create("gone", TableMeta{}, 1, []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	log.Append([]int64{4})
	log.Sync()
	if err := s.Drop("gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.tableDir("gone")); !os.IsNotExist(err) {
		t.Fatalf("table dir survived drop: %v", err)
	}
	// Recreate the same name: recovers only the new data.
	if _, err := s.Create("gone", TableMeta{}, 2, []int64{7}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, _ := Open(dir, SyncBatch)
	defer s2.Close()
	rec := recoverOne(t, s2, "gone")
	if !eq(rec.Base, []int64{7}) || len(rec.Batches) != 0 {
		t.Fatalf("recreated table recovered %v + %v", rec.Base, rec.Batches)
	}
}

func TestEncodeName(t *testing.T) {
	a, b := encodeName("weird name/…"), encodeName("weird_name_2")
	if a == b {
		t.Fatal("collision")
	}
	for _, n := range []string{"simple", "With-Dash_1", "ça va?", ""} {
		enc := encodeName(n)
		if enc == "" || enc[0] != 't' && enc[0] != 'x' {
			t.Fatalf("encodeName(%q) = %q", n, enc)
		}
	}
}

func TestStoreStats(t *testing.T) {
	s := openTestStore(t, SyncBatch)
	log, err := s.Create("t", TableMeta{}, 1, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	log.Append([]int64{2})
	log.Append([]int64{3})
	log.Sync()
	log.Sync() // clean: no second fsync counted
	st := s.Stats()
	if st.Frames != 2 || st.Syncs != 1 {
		t.Fatalf("stats = %+v, want 2 frames / 1 sync", st)
	}
	if err := log.WriteCheckpoint(Checkpoint{Seq: 2, Rows: Values{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Snapshots; got != 1 {
		t.Fatalf("snapshots = %d, want 1", got)
	}
}
