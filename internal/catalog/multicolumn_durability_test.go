package catalog

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/data"
	"repro/internal/query"
)

// findManifests returns the raw bytes of every manifest.json under the
// data directory.
func findManifests(t *testing.T, dir string) [][]byte {
	t.Helper()
	var out [][]byte
	filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && filepath.Base(p) == "manifest.json" {
			b, rerr := os.ReadFile(p)
			if rerr != nil {
				t.Fatal(rerr)
			}
			out = append(out, b)
		}
		return nil
	})
	return out
}

// TestV1ManifestBackCompat pins the durability format contract from
// both sides: a single-column table writes a manifest with no schema or
// format keys — byte-compatible with the v1 (pre-multi-column) layout —
// and that datadir recovers unchanged under the format-2-aware reader.
func TestV1ManifestBackCompat(t *testing.T) {
	dir := t.TempDir()
	store := openStore(t, dir)
	c := NewDurable(store)

	vals := data.Uniform(3_000, 11)
	tbl, err := c.Load("legacy", vals, Options{Strategy: progidx.StrategyRadixMSD, Delta: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Append([]int64{8_000_001, 8_000_002}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SyncLog(); err != nil {
		t.Fatal(err)
	}

	// The on-disk manifest is exactly what a v1 writer would have
	// produced: the format-2 keys must not appear for k=1 tables, so v1
	// readers (and byte-level comparisons of old datadirs) see no
	// change.
	mans := findManifests(t, dir)
	if len(mans) != 1 {
		t.Fatalf("found %d manifests, want 1", len(mans))
	}
	for _, key := range []string{`"columns"`, `"format"`} {
		if bytes.Contains(mans[0], []byte(key)) {
			t.Fatalf("single-column manifest carries %s — no longer v1-compatible:\n%s", key, mans[0])
		}
	}
	store.Close()

	// The v2 reader recovers the v1 datadir unchanged.
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
	if tbl2.RowWidth() != 1 || tbl2.Columns() != nil {
		t.Fatalf("v1 table recovered with width %d columns %v", tbl2.RowWidth(), tbl2.Columns())
	}
	if tbl2.Len() != 3_002 {
		t.Fatalf("recovered rows = %d, want 3002", tbl2.Len())
	}
	ans, err := tbl2.Index().Execute(progidx.Request{Pred: progidx.Range(8_000_001, 8_000_002)})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Count != 2 || ans.Sum != 16_000_003 {
		t.Fatalf("recovered tail query: count %d sum %d", ans.Count, ans.Sum)
	}
}

// TestMultiColumnDurableRecover runs the full durability cycle for a
// schema table: snapshot, WAL tuple appends, a checkpoint, a post-
// checkpoint tail, hard stop, recovery — then requires composite
// answers identical to a brute-force oracle over the expected rows.
// Under a compressed encoding the columns are cold for the whole cycle
// (no column index exists; the packed blocks are the only copy), so
// the checkpoint is captured from, and recovery rebuilds, stores alone.
func TestMultiColumnDurableRecover(t *testing.T) {
	for _, enc := range []progidx.Encoding{progidx.EncodingRaw, progidx.EncodingFORBP} {
		t.Run(enc.String(), func(t *testing.T) { multiColumnDurableRecover(t, enc) })
	}
}

func multiColumnDurableRecover(t *testing.T, enc progidx.Encoding) {
	dir := t.TempDir()
	store := openStore(t, dir)
	c := NewDurable(store)

	const (
		n    = 9_000 // two sealed 4096-row blocks and a partial tail
		k    = 3
		seed = 13
	)
	flat := data.MultiColumn(n, k, seed)
	opts := Options{
		Strategy: progidx.StrategyQuicksort,
		Delta:    0.25,
		Encoding: enc,
		Columns:  []string{"a", "b", "c"},
	}
	tbl, err := c.Load("wide", flat, opts)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.RowWidth() != k {
		t.Fatalf("RowWidth = %d, want %d", tbl.RowWidth(), k)
	}

	// Appends are flat tuples; a ragged batch is rejected before it can
	// reach the log.
	if err := tbl.Append([]int64{1, 2}); err == nil {
		t.Fatal("ragged append accepted on a 3-column table")
	}
	first := []int64{7_000_001, 7_000_002, 101, 7_000_004, 7_000_005, 202}
	if err := tbl.Append(first); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SyncLog(); err != nil {
		t.Fatal(err)
	}
	cp, ok := tbl.CaptureCheckpoint()
	if !ok {
		t.Fatal("CaptureCheckpoint returned !ok")
	}
	if err := tbl.WriteCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	tail := []int64{7_000_007, 7_000_008, 303}
	if err := tbl.Append(tail); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SyncLog(); err != nil {
		t.Fatal(err)
	}
	want := append(append(append([]int64(nil), flat...), first...), tail...)
	store.Close() // hard stop

	// The schema travels through the manifest as format 2.
	mans := findManifests(t, dir)
	if len(mans) != 1 {
		t.Fatalf("found %d manifests, want 1", len(mans))
	}
	for _, key := range []string{`"columns":["a","b","c"]`, `"format":2`} {
		if !bytes.Contains(mans[0], []byte(key)) {
			t.Fatalf("multi-column manifest missing %s:\n%s", key, mans[0])
		}
	}

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
	if tbl2.Len() != n+3 {
		t.Fatalf("recovered tuples = %d, want %d", tbl2.Len(), n+3)
	}
	if got := tbl2.Columns(); len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("recovered columns = %v", got)
	}
	pt, ok := tbl2.Planned()
	if !ok {
		t.Fatal("recovered multi-column table is not plan-backed")
	}
	// The rows replayed from the WAL ride in the tail, pending; on a cold
	// table the first idle slice seals them, and no column has indexed.
	for i := 0; i < 2 && enc.Compressed() && pt.PendingRows() > 0; i++ {
		pt.RefineStep()
	}
	for _, cs := range pt.ColumnStates() {
		if cold := cs.EncodedBlocks > 0; cold && !(cs.Converged && cs.Progress == 1 && cs.Refines == 0) {
			t.Fatalf("recovered cold column %q reports %+v", cs.Name, cs)
		}
	}

	// Composite answers over the recovered table match a brute-force
	// oracle over the expected row set, including the WAL tail.
	for _, tc := range []struct {
		lo, hi int64
		bmin   int64
	}{
		{0, 2_000, 0},
		{7_000_000, 7_100_000, 0},
		{1_000, 3_000, 1_500},
	} {
		c := query.Conjunction{
			Preds: []query.ColPredicate{
				{Col: "a", Pred: query.Range(tc.lo, tc.hi)},
				{Col: "b", Pred: query.AtLeast(tc.bmin)},
			},
			Target: "c",
			Aggs:   progidx.Sum | progidx.Count,
		}
		got, err := pt.ExecuteConj(c)
		if err != nil {
			t.Fatal(err)
		}
		var wantCount, wantSum int64
		for i := 0; i+k <= len(want); i += k {
			a, b, cv := want[i], want[i+1], want[i+2]
			if a >= tc.lo && a <= tc.hi && b >= tc.bmin {
				wantCount++
				wantSum += cv
			}
		}
		if got.Count != wantCount || got.Sum != wantSum {
			t.Fatalf("recovered conj [%d,%d] b>=%d: got %d/%d, want %d/%d",
				tc.lo, tc.hi, tc.bmin, got.Count, got.Sum, wantCount, wantSum)
		}
	}
}

// TestUnknownFormatRejected pins forward compatibility: a manifest
// stamped with a format newer than this reader understands must fail
// recovery loudly instead of misreading the data.
func TestUnknownFormatRejected(t *testing.T) {
	dir := t.TempDir()
	store := openStore(t, dir)
	c := NewDurable(store)
	if _, err := c.Load("future", []int64{1, 2, 3}, Options{}); err != nil {
		t.Fatal(err)
	}
	store.Close()

	// Stamp the manifest with a format from the future.
	var manPath string
	filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && filepath.Base(p) == "manifest.json" {
			manPath = p
		}
		return nil
	})
	raw, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	doctored := bytes.Replace(raw, []byte(`"meta":{`), []byte(`"meta":{"format":3,`), 1)
	if bytes.Equal(doctored, raw) {
		t.Fatalf("could not doctor manifest: %s", raw)
	}
	if err := os.WriteFile(manPath, doctored, 0o644); err != nil {
		t.Fatal(err)
	}

	store2 := openStore(t, dir)
	_, errs, err := store2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "format") {
		t.Fatalf("future-format manifest recovered without error: %v", errs)
	}
}
