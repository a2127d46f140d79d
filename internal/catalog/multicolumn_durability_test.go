package catalog

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/plan"
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
	tbl, err := c.Load("legacy", vals, Options{Strategy: plan.StrategyRadixMSD, Delta: 0.25})
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
	ans, err := tbl2.Index().Execute(query.Request{Pred: query.Range(8_000_001, 8_000_002)})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Count != 2 || ans.Sum != 16_000_003 {
		t.Fatalf("recovered tail query: count %d sum %d", ans.Count, ans.Sum)
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
