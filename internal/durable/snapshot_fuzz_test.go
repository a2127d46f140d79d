package durable

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/fault"
)

// bytesFS serves one file's bytes to readSnapshot, whatever the path.
type bytesFS struct {
	fault.FS
	b []byte
}

func (fs bytesFS) ReadFile(fault.Op, string) ([]byte, error) { return fs.b, nil }

// resum rewrites b's trailing checksum to match the bytes before it.
func resum(b []byte) {
	if len(b) >= 4 {
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.Checksum(b[:len(b)-4], castagnoli))
	}
}

// FuzzSnapshot feeds the snapshot reader (readSnapshot) two kinds of
// file. First raw, as it is, its checksum recomputed when resumIt is set
// so that the input gets past it to the header and the payload: the
// reader never panics, and what it accepts holds as many values as its
// header says. Then a snapshot a real writer wrote over raw's bytes as
// values, raw or as a segment (compress), with one bit flipped when flip
// is non-zero: the reader rejects every flipped file and returns exactly
// the rows written from every other.
func FuzzSnapshot(f *testing.F) {
	f.Add([]byte("PIDXSNAP"), false, false, uint16(0))
	f.Add([]byte("0123456789abcdefghijklmnopqrstuvwxyz"), true, false, uint16(0))
	f.Add([]byte("0123456789abcdefghijklmnopqrstuvwxyz"), true, true, uint16(77))
	f.Fuzz(func(t *testing.T, raw []byte, resumIt, compress bool, flip uint16) {
		read := func(b []byte) (snapshotMeta, []int64, error) {
			return readSnapshot("snap", bytesFS{b: b})
		}

		file := slices.Clone(raw)
		if resumIt {
			resum(file)
		}
		if meta, values, err := read(file); err == nil && len(values) != meta.Rows {
			t.Fatalf("accepted %d values under a header of %d rows", len(values), meta.Rows)
		}

		rows := make([]int64, len(raw)/8)
		for i := range rows {
			rows[i] = int64(binary.LittleEndian.Uint64(raw[8*i:])) >> 2 // inside every encoding's domain
		}
		meta := snapshotMeta{Name: "t", Seq: 7, Rows: len(rows)}
		if compress {
			meta.Meta.Encoding = "forbp"
		}
		dir := t.TempDir()
		if err := writeSnapshot(dir, fault.OS(), meta, Values(rows)); err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(filepath.Join(dir, snapshotName(meta.Seq)))
		if err != nil {
			t.Fatal(err)
		}
		if flip != 0 {
			file[int(flip>>3)%len(file)] ^= 1 << (flip & 7)
		}
		got, values, err := read(file)
		switch {
		case flip != 0 && err == nil:
			t.Fatalf("bit %d flipped, yet the snapshot was accepted", flip)
		case flip == 0 && err != nil:
			t.Fatalf("a snapshot of %d rows (compress %v) refused: %v", len(rows), compress, err)
		case flip == 0 && (got.Rows != len(rows) || !slices.Equal(values, rows)):
			t.Fatalf("read back %d rows, wrote %d", len(values), len(rows))
		}
	})
}
