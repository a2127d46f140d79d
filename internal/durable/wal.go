// Package durable is the serving layer's persistence tier: a per-table
// write-ahead log for append batches, checksummed snapshots of table
// state, and crash recovery that rebuilds a table from its newest valid
// snapshot plus the WAL tail.
//
// The design splits durability into two files per concern:
//
//   - WAL (this file): append batches are framed (sequence number,
//     length, CRC32C) and written to segment files named by the first
//     sequence number they hold. An fsync policy chooses when frames
//     reach stable storage: per frame (always), once per scheduler
//     batch (batch — the default, so one fsync covers every append
//     the admission queue amortized into a batch), or never (off,
//     page-cache durability only).
//   - Snapshots (snapshot.go): the table's logical rows and index
//     progress serialize to a single checksummed file via the
//     temp + fsync + rename protocol, after which the WAL segments the
//     snapshot covers are deleted (store.go).
//
// The log is written first: the caller publishes a batch's rows only
// once Sync made its frames durable. Frames written since the last Sync
// are pending, all in the active segment (no checkpoint rolls it while
// one is), so Rollback cuts a failed batch away in one truncation.
//
// Recovery (store.go) reads the newest snapshot that passes its
// checksum and replays only the frames with a higher sequence number,
// in order; a torn or corrupt tail frame — the signature of a crash
// mid-write — is detected by the CRC and cleanly truncated away, so the
// log always reopens at the last fully durable frame. Acked appends are
// therefore never lost (the scheduler syncs before acking), and a batch
// answered with an error is never replayed.
package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/fault"
)

// SyncPolicy selects when WAL writes are fsynced.
type SyncPolicy int

const (
	// SyncBatch fsyncs once per scheduler batch (the Sync call before
	// replies go out), so one fsync covers every append the admission
	// queue amortized together. The default.
	SyncBatch SyncPolicy = iota
	// SyncAlways fsyncs every frame as it is written.
	SyncAlways
	// SyncOff never fsyncs: frames reach the OS page cache only. A
	// process crash loses nothing; a machine crash may lose acked
	// appends. For bulk loads and benchmarks.
	SyncOff
)

// String implements fmt.Stringer with the flag spellings.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncBatch:
		return "batch"
	case SyncOff:
		return "off"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy resolves the -fsync flag spellings.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "batch":
		return SyncBatch, nil
	case "always":
		return SyncAlways, nil
	case "off", "none":
		return SyncOff, nil
	default:
		return 0, fmt.Errorf("durable: unknown fsync policy %q (want always|batch|off)", s)
	}
}

// Frame layout: a fixed header followed by the payload.
//
//	seq     uint64 LE   — frame sequence number, strictly increasing by 1
//	n       uint32 LE   — number of int64 values in the payload
//	crc     uint32 LE   — CRC32C over seq, n and the payload
//	payload n×8 bytes   — the appended values, int64 LE
//
// The CRC covers the header fields so a frame whose length field itself
// was torn cannot mislead the reader into skipping valid bytes.
const frameHeaderSize = 8 + 4 + 4

// maxFrameValues bounds a single frame's payload. It exists purely as a
// replay sanity check: a corrupt length field must not make the reader
// attempt a multi-gigabyte allocation before the CRC can reject it.
const maxFrameValues = 1 << 27 // 128M values = 1 GiB payload

// castagnoli is the CRC32C table (the Castagnoli polynomial has
// hardware support on both amd64 and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// segmentName formats a WAL segment file name from the sequence number
// of the first frame it holds. Fixed-width decimal keeps lexical and
// numeric order identical, so sorted directory listings are replay
// order.
func segmentName(firstSeq uint64) string {
	return fmt.Sprintf("wal-%020d.seg", firstSeq)
}

// parseSegmentName inverts segmentName; ok == false for foreign files.
func parseSegmentName(name string) (uint64, bool) {
	var seq uint64
	if _, err := fmt.Sscanf(name, "wal-%d.seg", &seq); err != nil || name != segmentName(seq) {
		return 0, false
	}
	return seq, true
}

// appendFrame encodes one frame into buf (reusing its capacity) and
// returns the encoded bytes.
func appendFrame(buf []byte, seq uint64, values []int64) []byte {
	need := frameHeaderSize + 8*len(values)
	if cap(buf) < need {
		buf = make([]byte, need)
	}
	buf = buf[:need]
	binary.LittleEndian.PutUint64(buf[0:8], seq)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(values)))
	for i, v := range values {
		binary.LittleEndian.PutUint64(buf[frameHeaderSize+8*i:], uint64(v))
	}
	crc := crc32.Update(0, castagnoli, buf[0:12])
	crc = crc32.Update(crc, castagnoli, buf[frameHeaderSize:])
	binary.LittleEndian.PutUint32(buf[12:16], crc)
	return buf
}

// readFrame decodes the next frame from r. It returns io.EOF exactly at
// a clean end of segment; any torn or corrupt tail (short header, short
// payload, CRC mismatch, absurd length) is reported as errTornFrame so
// the caller can truncate the segment at the last good offset.
func readFrame(r io.Reader) (seq uint64, values []int64, err error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return 0, nil, errTornFrame // short header: torn mid-write
		}
		// A real read error (failing disk, injected fault) is not a torn
		// tail: truncating here would destroy acked frames the device
		// might still yield. Surface it so recovery fails this table
		// loudly instead of silently repairing away good data.
		return 0, nil, err
	}
	seq = binary.LittleEndian.Uint64(hdr[0:8])
	n := binary.LittleEndian.Uint32(hdr[8:12])
	want := binary.LittleEndian.Uint32(hdr[12:16])
	if n > maxFrameValues {
		return 0, nil, errTornFrame
	}
	// Read what the segment holds rather than what the length claims: a
	// torn length field would otherwise allocate up to a GiB per frame.
	payload, err := io.ReadAll(io.LimitReader(r, 8*int64(n)))
	if err != nil {
		return 0, nil, err
	}
	if len(payload) < 8*int(n) {
		return 0, nil, errTornFrame // short payload
	}
	crc := crc32.Update(0, castagnoli, hdr[0:12])
	crc = crc32.Update(crc, castagnoli, payload)
	if crc != want {
		return 0, nil, errTornFrame
	}
	values = make([]int64, n)
	for i := range values {
		values[i] = int64(binary.LittleEndian.Uint64(payload[8*i:]))
	}
	return seq, values, nil
}

// errTornFrame marks a frame that did not fully reach the disk — the
// expected state of a WAL tail after a crash mid-write. Replay treats
// it as the end of the log and truncates it away.
var errTornFrame = fmt.Errorf("durable: torn or corrupt WAL frame")

// wal is one table's write-ahead log writer over a directory of
// segment files. It is not safe for concurrent use; TableLog serializes
// access.
type wal struct {
	dir    string
	policy SyncPolicy
	fs     fault.FS // the injectable filesystem seam (fault.OS() in production)

	f        fault.File // active segment (nil until first write after open)
	segStart uint64     // first sequence number of the active segment
	nextSeq  uint64     // sequence number the next frame receives
	off      int64      // bytes of fully written frames in the active segment
	// synced and syncedSeq are off and nextSeq as of the last sync: the
	// frames past synced are pending, and Rollback cuts them away.
	synced    int64
	syncedSeq uint64
	// broken is set when a tail could not be cut back: the log refuses
	// further appends, because frames written after an unreadable region
	// would be stranded — replay stops at the tear and would silently
	// discard them even though they were acked.
	broken error

	scratch []byte // frame encode buffer, reused across appends
}

// openWAL positions a writer at nextSeq. If the segment holding the
// previous frame still exists it is reopened for append (recovery has
// already truncated any torn tail); otherwise the first write creates a
// fresh segment named nextSeq.
func openWAL(dir string, policy SyncPolicy, fs fault.FS, nextSeq uint64) (*wal, error) {
	w := &wal{dir: dir, policy: policy, fs: fs, nextSeq: nextSeq, syncedSeq: nextSeq}
	starts, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(starts) > 0 {
		last := starts[len(starts)-1]
		path := filepath.Join(dir, segmentName(last))
		f, err := fs.OpenFile(fault.OpWALAppend, path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("durable: reopen WAL segment: %w", err)
		}
		st, err := os.Stat(path)
		if err != nil {
			f.Close()
			return nil, err
		}
		// Recovery already truncated any torn tail, so the current size
		// is exactly the fully-written frames.
		w.f, w.segStart, w.off, w.synced = f, last, st.Size(), st.Size()
	}
	return w, nil
}

// listSegments returns the start sequence numbers of dir's WAL
// segments, ascending.
func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var starts []uint64
	for _, e := range ents {
		if s, ok := parseSegmentName(e.Name()); ok {
			starts = append(starts, s)
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	return starts, nil
}

// append writes one frame and returns its sequence number. The frame is
// pending until the next sync.
func (w *wal) append(values []int64) (uint64, error) {
	if w.broken != nil {
		return 0, w.broken
	}
	if w.f == nil {
		if err := w.roll(); err != nil {
			return 0, err
		}
	}
	seq := w.nextSeq
	w.scratch = appendFrame(w.scratch, seq, values)
	if _, err := w.f.Write(w.scratch); err != nil {
		// A short write leaves a torn frame at the tail. Repair it
		// right now, not at the next recovery: frames appended (and
		// acked!) after an unreadable region would be stranded behind
		// it — replay stops at the tear and truncates everything past
		// it. With the tear cut away the failed append is simply not
		// durable, exactly what the caller's error reports, and the
		// log stays appendable.
		w.cut(w.off)
		return 0, fmt.Errorf("durable: WAL append: %w", err)
	}
	w.off += int64(len(w.scratch))
	w.nextSeq++
	return seq, nil
}

// pending reports whether frames were written since the last sync.
func (w *wal) pending() bool { return w.off > w.synced }

// sync flushes the pending frames to stable storage (under the off
// policy it only marks them synced).
func (w *wal) sync() error {
	if !w.pending() {
		return nil
	}
	if w.policy != SyncOff {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("durable: WAL sync: %w", err)
		}
	}
	w.synced, w.syncedSeq = w.off, w.nextSeq
	return nil
}

// rollback cuts the pending frames away and hands their sequence
// numbers out again.
func (w *wal) rollback() {
	if w.pending() {
		w.cut(w.synced)
		w.nextSeq = w.syncedSeq
	}
}

// cut truncates the active segment back to off, the end of its last
// frame to keep: the one routine behind the torn-write repair and the
// rollback. A cut that fails breaks the log.
func (w *wal) cut(off int64) {
	if err := os.Truncate(filepath.Join(w.dir, segmentName(w.segStart)), off); err != nil {
		w.broken = fmt.Errorf("durable: WAL unwritable (its tail could not be cut back): %w", err)
		return
	}
	w.off = off
}

// roll closes the active segment and arranges for the next write to
// open a fresh one starting at nextSeq. Called by the snapshot path so
// covered segments become immutable and deletable, only when no frame is
// pending: every pending frame stays in the active segment.
func (w *wal) roll() error {
	if w.f != nil {
		if err := w.f.Close(); err != nil {
			return err
		}
		w.f = nil
	}
	// O_APPEND matters for torn-write repair: every write lands at EOF,
	// so after a failed write's truncate the next frame starts exactly at
	// the repaired tail instead of the fd's stale offset (which would
	// leave an unreadable hole stranding every frame behind it).
	f, err := w.fs.OpenFile(fault.OpWALAppend, filepath.Join(w.dir, segmentName(w.nextSeq)), os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("durable: create WAL segment: %w", err)
	}
	w.f, w.segStart, w.off, w.synced = f, w.nextSeq, 0, 0
	return syncDir(w.dir)
}

// close releases the active segment after a final sync.
func (w *wal) close() error {
	if w.f == nil {
		return nil
	}
	err := w.sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// pruneSegments deletes every segment fully covered by a snapshot at
// coveredSeq: a segment is deletable when the next segment starts at or
// below coveredSeq+1 (so every frame it holds has seq <= coveredSeq).
// The active segment is never deleted.
func (w *wal) pruneSegments(coveredSeq uint64) error {
	starts, err := listSegments(w.dir)
	if err != nil {
		return err
	}
	for i := 0; i+1 < len(starts); i++ {
		if starts[i] == w.segStart && w.f != nil {
			continue
		}
		if starts[i+1] <= coveredSeq+1 {
			if err := os.Remove(filepath.Join(w.dir, segmentName(starts[i]))); err != nil {
				return err
			}
		}
	}
	return nil
}

// replayResult is what replaying a table's WAL yields: the surviving
// batches past the snapshot, and where the writer should resume.
type replayResult struct {
	batches  [][]int64 // frames with seq > coveredSeq, in sequence order
	lastSeq  uint64    // highest valid frame seq seen (coveredSeq if none)
	repaired bool      // a torn tail was truncated away
}

// replayWAL reads dir's segments in order, skipping frames at or below
// coveredSeq, collecting the rest, and repairing the log: a torn or
// corrupt frame ends the replay, the segment is truncated at the last
// good offset, and any later segments (which could only exist through
// corruption — frames are written strictly in order) are deleted.
func replayWAL(dir string, fs fault.FS, coveredSeq uint64) (replayResult, error) {
	res := replayResult{lastSeq: coveredSeq}
	starts, err := listSegments(dir)
	if err != nil {
		return res, err
	}
	for si, start := range starts {
		path := filepath.Join(dir, segmentName(start))
		torn, err := replaySegment(path, fs, coveredSeq, &res)
		if err != nil {
			return res, err
		}
		if torn {
			res.repaired = true
			for _, later := range starts[si+1:] {
				if err := os.Remove(filepath.Join(dir, segmentName(later))); err != nil {
					return res, err
				}
			}
			break
		}
	}
	return res, nil
}

// replaySegment replays one segment file into res, returning whether a
// torn tail was found (and truncated).
func replaySegment(path string, fs fault.FS, coveredSeq uint64, res *replayResult) (torn bool, err error) {
	f, err := fs.OpenFile(fault.OpRecoveryRead, path, os.O_RDONLY, 0)
	if err != nil {
		return false, err
	}
	defer f.Close()
	r := &countingReader{r: f}
	goodOffset := int64(0)
	for {
		seq, values, err := readFrame(r)
		if err == io.EOF {
			return false, nil
		}
		if err == errTornFrame {
			return true, truncateAt(path, fs, f, goodOffset)
		}
		if err != nil {
			return false, err
		}
		if seq <= coveredSeq {
			goodOffset = r.n
			continue
		}
		if seq != res.lastSeq+1 {
			// A sequence gap past the snapshot can only arise from
			// corruption (or replaying against an older snapshot than
			// the one that pruned these segments); treat it like a torn
			// tail — replay keeps the longest consistent prefix.
			return true, truncateAt(path, fs, f, goodOffset)
		}
		res.batches = append(res.batches, values)
		res.lastSeq = seq
		goodOffset = r.n
	}
}

// truncateAt cuts the segment at offset — the last byte of the final
// valid frame — removing the torn tail, and syncs the result so the
// repair itself is durable.
func truncateAt(path string, fs fault.FS, f fault.File, offset int64) error {
	f.Close() // opened read-only; reopen for truncation
	if err := fs.Truncate(fault.OpRecoveryRead, path, offset); err != nil {
		return fmt.Errorf("durable: truncate torn WAL tail: %w", err)
	}
	wf, err := fs.OpenFile(fault.OpRecoveryRead, path, os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer wf.Close()
	return wf.Sync()
}

// countingReader tracks how many bytes have been consumed, so the
// replayer knows the offset of the last fully valid frame.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// syncDir fsyncs a directory so metadata operations (create, rename,
// remove) inside it are durable. Best-effort on platforms where
// directories cannot be opened for sync.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return nil // some filesystems refuse; the rename is still atomic
	}
	return nil
}
