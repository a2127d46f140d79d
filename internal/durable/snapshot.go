package durable

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/column"
	"repro/internal/encode"
	"repro/internal/fault"
)

// Snapshot file layout:
//
//	magic    8 bytes     — "PIDXSNAP"
//	metaLen  uint32 LE   — length of the JSON metadata block
//	meta     metaLen B   — snapshotMeta as JSON
//	values   rows×8 B    — the table's logical rows, int64 LE
//	crc      uint32 LE   — CRC32C over everything before it
//
// One trailing checksum covers the whole file: a snapshot is either
// fully valid or it is ignored and recovery falls back to the previous
// one (plus a longer WAL tail). Snapshots are written to a temp file,
// fsynced, and renamed into place, so a crash mid-snapshot leaves the
// previous snapshot untouched.
var snapshotMagic = [8]byte{'P', 'I', 'D', 'X', 'S', 'N', 'A', 'P'}

// snapshotMeta is the JSON header of a snapshot file.
type snapshotMeta struct {
	Name string `json:"name"`
	// Seq is the WAL sequence number the snapshot covers: every frame
	// with seq <= Seq is reflected in the values, so replay starts at
	// Seq+1.
	Seq  uint64 `json:"seq"`
	Rows int    `json:"rows"`
	// Progress and Converged record how much indexing work the table
	// had accumulated, so recovery can re-drive the rebuilt index to at
	// least this point instead of silently losing convergence work.
	Progress  float64 `json:"progress"`
	Converged bool    `json:"converged"`
	// Append-side counters, restored so /stats survives restarts.
	Appends    uint64 `json:"appends"`
	AppendRows uint64 `json:"append_rows"`
	// CreatedAt is the table's original creation time (Unix nanos).
	CreatedAt int64     `json:"created_at"`
	Meta      TableMeta `json:"meta"`
	// Payload names the format of the values section: empty means rows×8
	// raw little-endian int64s (every snapshot before encodings existed),
	// payloadSegment means one marshaled encode.Segment holding the same
	// rows. Readers branch on this field, so raw snapshots of compressed
	// tables (the fallback when encoding fails) stay loadable.
	Payload string `json:"payload,omitempty"`
}

// payloadSegment marks a snapshot whose values section is a marshaled
// encode.Segment instead of raw int64s.
const payloadSegment = "segment"

// snapshotName formats a snapshot file name from the WAL sequence it
// covers; like segments, fixed-width decimal keeps lexical order equal
// to numeric order.
func snapshotName(seq uint64) string {
	return fmt.Sprintf("snap-%020d.snap", seq)
}

func parseSnapshotName(name string) (uint64, bool) {
	var seq uint64
	if _, err := fmt.Sscanf(name, "snap-%d.snap", &seq); err != nil || name != snapshotName(seq) {
		return 0, false
	}
	return seq, true
}

// crcWriter tees writes into a running CRC32C.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, castagnoli, p[:n])
	return n, err
}

// RowSource is a checkpoint's rows as the snapshot writer reads them:
// Len rows, handed to emit a run at a time, so a table whose rows are
// packed is written without being unpacked whole. A run is emit's to
// read until it returns.
type RowSource interface {
	Len() int
	Each(emit func(run []int64) error) error
}

// Values is a RowSource held in one slice.
type Values []int64

func (v Values) Len() int { return len(v) }

func (v Values) Each(emit func([]int64) error) error { return emit(v) }

// writeSnapshot durably writes a snapshot file for meta+rows into
// dir, then syncs the directory so the rename is durable too.
func writeSnapshot(dir string, fs fault.FS, meta snapshotMeta, rows RowSource) (retErr error) {
	if meta.Rows != rows.Len() {
		return fmt.Errorf("durable: snapshot meta rows %d != %d values", meta.Rows, rows.Len())
	}
	// Compressed tables persist compressed: the rows section becomes one
	// marshaled segment in the table's encoding, so the on-disk footprint
	// tracks the resident one. Any encoding failure falls back to the raw
	// layout — a raw snapshot of a compressed table is always loadable
	// (readers branch on meta.Payload, not meta.Meta.Encoding).
	var segPayload []byte
	if mode, err := encode.ParseMode(meta.Meta.Encoding); err == nil && mode.Compressed() && meta.Rows > 0 {
		values := make([]int64, 0, meta.Rows)
		if err := rows.Each(func(run []int64) error { values = append(values, run...); return nil }); err != nil {
			return err
		}
		mn, mx := column.MinMax(values)
		if seg, err := encode.New(values, mn, mx, mode); err == nil {
			meta.Payload = payloadSegment
			segPayload = seg.Marshal()
		}
	}
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	final := filepath.Join(dir, snapshotName(meta.Seq))
	tmp, err := fs.CreateTemp(fault.OpSnapshotWrite, dir, ".snap-*")
	if err != nil {
		return err
	}
	defer func() {
		if retErr != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriterSize(tmp, 64<<10)
	cw := &crcWriter{w: bw}
	if _, err := cw.Write(snapshotMagic[:]); err != nil {
		return err
	}
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(metaJSON)))
	if _, err := cw.Write(u32[:]); err != nil {
		return err
	}
	if _, err := cw.Write(metaJSON); err != nil {
		return err
	}
	if segPayload != nil {
		if _, err := cw.Write(segPayload); err != nil {
			return err
		}
	} else {
		var buf [8 << 10]byte
		written := 0
		err := rows.Each(func(run []int64) error {
			for off := 0; off < len(run); {
				n := 0
				for off < len(run) && n+8 <= len(buf) {
					binary.LittleEndian.PutUint64(buf[n:], uint64(run[off]))
					n += 8
					off++
				}
				if _, err := cw.Write(buf[:n]); err != nil {
					return err
				}
			}
			written += len(run)
			return nil
		})
		if err != nil {
			return err
		}
		if written != meta.Rows {
			return fmt.Errorf("durable: snapshot meta rows %d != %d values written", meta.Rows, written)
		}
	}
	binary.LittleEndian.PutUint32(u32[:], cw.crc)
	if _, err := bw.Write(u32[:]); err != nil { // CRC not included in itself
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := fs.Rename(fault.OpSnapshotWrite, tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return syncDir(dir)
}

// readSnapshot loads and verifies one snapshot file.
func readSnapshot(path string, fs fault.FS) (snapshotMeta, []int64, error) {
	var meta snapshotMeta
	data, err := fs.ReadFile(fault.OpRecoveryRead, path)
	if err != nil {
		return meta, nil, err
	}
	if len(data) < len(snapshotMagic)+4+4 {
		return meta, nil, fmt.Errorf("durable: snapshot %s truncated", filepath.Base(path))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(tail) {
		return meta, nil, fmt.Errorf("durable: snapshot %s checksum mismatch", filepath.Base(path))
	}
	if string(body[:8]) != string(snapshotMagic[:]) {
		return meta, nil, fmt.Errorf("durable: snapshot %s bad magic", filepath.Base(path))
	}
	metaLen := binary.LittleEndian.Uint32(body[8:12])
	rest := body[12:]
	if uint64(metaLen) > uint64(len(rest)) {
		return meta, nil, fmt.Errorf("durable: snapshot %s meta overruns file", filepath.Base(path))
	}
	if err := json.Unmarshal(rest[:metaLen], &meta); err != nil {
		return meta, nil, fmt.Errorf("durable: snapshot %s meta: %w", filepath.Base(path), err)
	}
	raw := rest[metaLen:]
	switch meta.Payload {
	case "":
		// Raw layout: rows×8 little-endian int64s.
	case payloadSegment:
		// Compressed layout: one marshaled segment, deep-validated by
		// Unmarshal (a segment that unmarshals cleanly is safe to decode).
		seg, err := encode.Unmarshal(raw)
		if err != nil {
			return meta, nil, fmt.Errorf("durable: snapshot %s payload: %w", filepath.Base(path), err)
		}
		if seg.Len() != meta.Rows {
			return meta, nil, fmt.Errorf("durable: snapshot %s segment has %d rows, want %d", filepath.Base(path), seg.Len(), meta.Rows)
		}
		return meta, seg.Decode(), nil
	default:
		return meta, nil, fmt.Errorf("durable: snapshot %s unknown payload format %q", filepath.Base(path), meta.Payload)
	}
	// Divided, not multiplied: 8×rows wraps for a huge or negative count.
	if meta.Rows < 0 || len(raw)%8 != 0 || len(raw)/8 != meta.Rows {
		return meta, nil, fmt.Errorf("durable: snapshot %s has %d value bytes for %d rows", filepath.Base(path), len(raw), meta.Rows)
	}
	values := make([]int64, meta.Rows)
	for i := range values {
		values[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return meta, values, nil
}

// listSnapshots returns the covered sequence numbers of dir's
// snapshots, ascending.
func listSnapshots(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range ents {
		if s, ok := parseSnapshotName(e.Name()); ok {
			seqs = append(seqs, s)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// newestValidSnapshot loads the newest snapshot in dir that passes its
// checksum, falling back to older ones; ok == false when none load.
// A snapshot that fails verification costs only a longer WAL replay —
// unless it was the base (seq 0) snapshot, in which case the caller
// reports the table unrecoverable.
func newestValidSnapshot(dir string, fs fault.FS) (snapshotMeta, []int64, bool, error) {
	seqs, err := listSnapshots(dir)
	if err != nil {
		return snapshotMeta{}, nil, false, err
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		meta, values, err := readSnapshot(filepath.Join(dir, snapshotName(seqs[i])), fs)
		if err == nil {
			return meta, values, true, nil
		}
	}
	return snapshotMeta{}, nil, false, nil
}

// pruneSnapshots deletes snapshots older than keepSeq.
func pruneSnapshots(dir string, keepSeq uint64) error {
	seqs, err := listSnapshots(dir)
	if err != nil {
		return err
	}
	for _, s := range seqs {
		if s < keepSeq {
			if err := os.Remove(filepath.Join(dir, snapshotName(s))); err != nil {
				return err
			}
		}
	}
	return nil
}
