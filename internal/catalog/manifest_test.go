package catalog

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/durable"
	"repro/internal/plan"
	"repro/internal/query"
)

// FuzzManifest drives arbitrary bytes through what recovery runs on a
// manifest — json.Unmarshal, TableMeta.Validate, optionsFromMeta — and
// checks that it never panics, that it refuses every format but 0 and 2
// and a format-2 meta without a schema, and that a meta Options.meta()
// wrote reads back to the same Options. The committed corpus holds
// metas the writer produced, one carrying the retired calibrate key,
// format 1, format 2 without columns, and a one-name schema, which the
// writer once dropped.
func FuzzManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		var man struct {
			Name      string            `json:"name"`
			CreatedAt int64             `json:"created_at"`
			Meta      durable.TableMeta `json:"meta"`
		}
		if json.Unmarshal(raw, &man) != nil {
			return
		}
		m := man.Meta
		verr := m.Validate()
		o, err := optionsFromMeta(m)
		switch {
		case m.Format != 0 && m.Format != durable.FormatMultiColumn && verr == nil:
			t.Fatalf("format %d accepted", m.Format)
		case m.Format == durable.FormatMultiColumn && len(m.Columns) == 0 && verr == nil:
			t.Fatal("format 2 without columns accepted")
		case verr != nil && err == nil:
			t.Fatalf("optionsFromMeta accepted a meta Validate refuses: %v", verr)
		case err != nil:
			return
		}
		back, err := optionsFromMeta(o.meta())
		if err != nil {
			t.Fatalf("the meta of %+v does not read back: %v", o, err)
		}
		want := o
		if m.DeltaPPM <= -1<<50 || m.DeltaPPM >= 1<<50 {
			// δ = ppm/1e6 in a float64 no longer resolves a ppm out here (a
			// δ of 10^9 or more, which core clamps to 1 anyway).
			want.Delta = back.Delta
		}
		if !reflect.DeepEqual(back, want) {
			t.Fatalf("meta of %+v reads back as %+v", want, back)
		}
	})
}

// TestCalibrateKeyIgnoredAtRecovery: tables no longer carry a Calibrate
// option, but a manifest and snapshot headers written while they did
// hold "calibrate": true. Such a datadir recovers, and answers exactly.
func TestCalibrateKeyIgnoredAtRecovery(t *testing.T) {
	dir := t.TempDir()
	store := openStore(t, dir)
	c := NewDurable(store)
	vals := data.Uniform(3_000, 5)
	tbl, err := c.Load("old", vals, Options{Strategy: plan.StrategyRadixMSD, Delta: 0.25, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	appended := [][]int64{{7_000_001, 7_000_002}, {7_000_003}}
	for i, b := range appended {
		if err := tbl.Append(b); err != nil {
			t.Fatal(err)
		}
		if err := tbl.SyncLog(); err != nil {
			t.Fatal(err)
		}
		if i == 0 { // the second batch stays in the WAL tail
			cp, _ := tbl.CaptureCheckpoint()
			if err := tbl.WriteCheckpoint(cp); err != nil {
				t.Fatal(err)
			}
		}
	}
	store.Close()

	// Write the key where the writer that had the option put it.
	doctor := func(meta []byte) []byte {
		out := bytes.Replace(meta, []byte(`"delta_ppm":250000,`), []byte(`"delta_ppm":250000,"calibrate":true,`), 1)
		if bytes.Equal(out, meta) {
			t.Fatalf("no delta_ppm key to put calibrate after: %s", meta)
		}
		return out
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	snapshots := 0
	for _, p := range tableFiles(t, dir) {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		switch name := filepath.Base(p); {
		case name == "manifest.json":
			raw = doctor(raw)
		case strings.HasSuffix(name, ".snap"):
			// magic, meta length, meta, payload, then the CRC of all before it.
			n := binary.LittleEndian.Uint32(raw[8:12])
			meta := doctor(raw[12 : 12+n])
			body := append(append(binary.LittleEndian.AppendUint32(append([]byte(nil), raw[:8]...), uint32(len(meta))), meta...), raw[12+n:len(raw)-4]...)
			raw = binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, castagnoli))
			snapshots++
		default:
			continue
		}
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if snapshots == 0 {
		t.Fatal("no snapshot to doctor")
	}

	store2 := openStore(t, dir)
	recs, errs, err := store2.Recover()
	if err != nil || len(errs) != 0 || len(recs) != 1 {
		t.Fatalf("Recover: %v %v (%d tables)", err, errs, len(recs))
	}
	tbl2, err := NewDurable(store2).LoadRecovered(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	all := append(append(append([]int64(nil), vals...), appended[0]...), appended[1]...)
	if tbl2.Len() != len(all) {
		t.Fatalf("recovered %d rows, want %d", tbl2.Len(), len(all))
	}
	for _, pred := range []query.Predicate{query.Range(100, 900_000), query.AtLeast(7_000_002), query.Point(vals[17])} {
		var want query.Answer
		for _, v := range all {
			if pred.Matches(v) {
				want.Count++
				want.Sum += v
			}
		}
		got, err := tbl2.Index().Execute(query.Request{Pred: pred})
		if err != nil || got.Count != want.Count || got.Sum != want.Sum {
			t.Fatalf("%+v: count %d sum %d (%v), want count %d sum %d", pred, got.Count, got.Sum, err, want.Count, want.Sum)
		}
	}
}
