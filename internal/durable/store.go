package durable

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
)

// TableMeta is the durable copy of a table's catalog options, stored in
// both the manifest and every snapshot header. It deliberately mirrors
// the serving layer's options as plain JSON-friendly fields so this
// package needs no progidx import.
type TableMeta struct {
	Strategy   string `json:"strategy"`
	DeltaPPM   int64  `json:"delta_ppm,omitempty"` // δ × 1e6, avoids float drift
	BudgetNs   int64  `json:"budget_ns,omitempty"`
	Adaptive   bool   `json:"adaptive,omitempty"`
	Workers    int    `json:"workers,omitempty"`
	Shards     int    `json:"shards,omitempty"`
	IdleRefine *bool  `json:"idle_refine,omitempty"`
	// Encoding is the table's storage mode wire spelling ("auto",
	// "forbp", "dict"); empty means raw. Compressed tables also get
	// compressed snapshot payloads (see snapshotMeta.Payload).
	Encoding string `json:"encoding,omitempty"`
	// Columns is the table's schema for multi-column tables; absent (or
	// one name) means the v1 single-column layout. Rows are stored flat
	// row-major in WAL frames and snapshots — len(Columns) values per
	// tuple — so the frame and snapshot byte formats are unchanged and a
	// k=1 table's files stay byte-identical to v1.
	Columns []string `json:"columns,omitempty"`
	// Format versions the manifest/meta layout: 0 (absent) is the v1
	// single-column format, FormatMultiColumn marks a schema-carrying
	// table. Readers reject formats they do not know.
	Format int `json:"format,omitempty"`
}

// FormatMultiColumn is the meta format written for tables created with
// an explicit multi-column schema.
const FormatMultiColumn = 2

// Validate rejects meta this build cannot interpret.
func (m TableMeta) Validate() error {
	if m.Format != 0 && m.Format != FormatMultiColumn {
		return fmt.Errorf("durable: meta format %d not supported: this build reads formats 0 and %d", m.Format, FormatMultiColumn)
	}
	if m.Format == FormatMultiColumn && len(m.Columns) == 0 {
		return fmt.Errorf("durable: multi-column meta without a schema")
	}
	return nil
}

// manifest is the per-table manifest.json: identity plus the durable
// options. Row/progress state lives in snapshots, not here, so the
// manifest is written once at create and never rewritten on the hot
// path.
type manifest struct {
	Name      string    `json:"name"`
	CreatedAt int64     `json:"created_at"`
	Meta      TableMeta `json:"meta"`
}

const (
	manifestFile = "manifest.json"
	tablesDir    = "tables"
	trashDir     = ".trash"
)

// encodeName maps an arbitrary table name to a filesystem-safe
// directory name. Alphanumerics, dash and underscore pass through with
// a "t-" prefix; anything else is hex-encoded with an "x-" prefix. The
// manifest holds the authoritative name, so the encoding only needs to
// be injective, not reversible by eye.
func encodeName(name string) string {
	safe := true
	for _, r := range name {
		if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '-' || r == '_') {
			safe = false
			break
		}
	}
	if safe && name != "" && len(name) <= 100 {
		return "t-" + name
	}
	return "x-" + hex.EncodeToString([]byte(name))
}

// Store is the durability root for one -datadir: it owns the directory
// layout
//
//	<dir>/tables/<encoded-name>/manifest.json
//	<dir>/tables/<encoded-name>/wal-<seq>.seg
//	<dir>/tables/<encoded-name>/snap-<seq>.snap
//	<dir>/.trash/...                               (mid-drop staging)
//
// and hands out one TableLog per live table. Store methods are safe for
// concurrent use; each TableLog additionally serializes its own WAL.
type Store struct {
	dir    string
	policy SyncPolicy
	fs     fault.FS // injectable filesystem (fault.OS() unless OpenFS said otherwise)

	mu     sync.Mutex
	tables map[string]*TableLog

	// Counters for /metrics, aggregated across tables.
	frames    atomic.Uint64 // WAL frames appended
	syncs     atomic.Uint64 // fsync calls issued for WAL batches
	snapshots atomic.Uint64 // snapshot files written

	// syncObs, when set, receives the wall-clock duration of every WAL
	// fsync (the serving layer feeds it into a latency histogram).
	// Atomic so the observer can be attached after Open without racing
	// live appends.
	syncObs atomic.Pointer[func(time.Duration)]
}

// SetSyncObserver registers fn to receive the duration of every WAL
// fsync across all tables; nil clears it. The callback runs on the
// syncing goroutine and must be cheap and non-blocking.
func (s *Store) SetSyncObserver(fn func(time.Duration)) {
	if fn == nil {
		s.syncObs.Store(nil)
		return
	}
	s.syncObs.Store(&fn)
}

func (s *Store) observeSync(d time.Duration) {
	if fn := s.syncObs.Load(); fn != nil {
		(*fn)(d)
	}
}

// Open prepares (creating if needed) a durability root at dir. Any
// half-dropped tables left in .trash by a crash are cleared.
func Open(dir string, policy SyncPolicy) (*Store, error) {
	return OpenFS(dir, policy, fault.OS())
}

// OpenFS is Open with an injectable filesystem: WAL appends and
// fsyncs, snapshot writes and recovery reads all route through fs, so
// tests (and the daemon's -fault flag) can inject disk failures at
// those points. Directory-level metadata operations (mkdir, listing,
// pruning) stay on the real filesystem.
func OpenFS(dir string, policy SyncPolicy, fs fault.FS) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("durable: empty data directory")
	}
	if fs == nil {
		fs = fault.OS()
	}
	if err := os.MkdirAll(filepath.Join(dir, tablesDir), 0o755); err != nil {
		return nil, err
	}
	// A crash between the drop rename and RemoveAll leaves the table's
	// directory in .trash; finishing the delete here makes Drop atomic.
	os.RemoveAll(filepath.Join(dir, trashDir))
	if err := os.MkdirAll(filepath.Join(dir, trashDir), 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir, policy: policy, fs: fs, tables: make(map[string]*TableLog)}, nil
}

// StoreStats is a point-in-time read of the store's counters.
type StoreStats struct {
	Frames    uint64
	Syncs     uint64
	Snapshots uint64
}

// Stats reads the aggregate WAL/snapshot counters.
func (s *Store) Stats() StoreStats {
	return StoreStats{
		Frames:    s.frames.Load(),
		Syncs:     s.syncs.Load(),
		Snapshots: s.snapshots.Load(),
	}
}

// tableDir returns the directory for name (not necessarily existing).
func (s *Store) tableDir(name string) string {
	return filepath.Join(s.dir, tablesDir, encodeName(name))
}

// Create establishes the on-disk state for a new table: directory,
// base snapshot at seq 0 holding the initial rows, and manifest —
// all durable before Create returns, so a table acked as created
// recovers with its load data intact. The returned TableLog is open
// and ready for Append.
func (s *Store) Create(name string, meta TableMeta, createdAt int64, values []int64) (*TableLog, error) {
	s.mu.Lock()
	if _, ok := s.tables[name]; ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("durable: table %q already open", name)
	}
	s.mu.Unlock()

	dir := s.tableDir(name)
	// The catalog has already established name uniqueness and recovery
	// has already claimed every valid on-disk table, so a pre-existing
	// directory here is leftover garbage (e.g. a crash between mkdir
	// and manifest write) and is safe to clear.
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	base := snapshotMeta{
		Name:      name,
		Seq:       0,
		Rows:      len(values),
		CreatedAt: createdAt,
		Meta:      meta,
	}
	if err := writeSnapshot(dir, s.fs, base, Values(values)); err != nil {
		return nil, err
	}
	man, err := json.Marshal(manifest{Name: name, CreatedAt: createdAt, Meta: meta})
	if err != nil {
		return nil, err
	}
	manPath := filepath.Join(dir, manifestFile)
	if err := os.WriteFile(manPath, man, 0o644); err != nil {
		return nil, err
	}
	if f, err := os.Open(manPath); err == nil {
		f.Sync()
		f.Close()
	}
	if err := syncDir(dir); err != nil {
		return nil, err
	}
	if err := syncDir(filepath.Join(s.dir, tablesDir)); err != nil {
		return nil, err
	}
	return s.openTableLog(name, dir, 1, 0)
}

// openTableLog registers a live TableLog for name whose next WAL frame
// is nextSeq and whose newest snapshot covers coveredSeq.
func (s *Store) openTableLog(name, dir string, nextSeq, coveredSeq uint64) (*TableLog, error) {
	w, err := openWAL(dir, s.policy, s.fs, nextSeq)
	if err != nil {
		return nil, err
	}
	tl := &TableLog{store: s, name: name, dir: dir, w: w}
	tl.covered.Store(coveredSeq)
	tl.lastSeq.Store(nextSeq - 1)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; ok {
		w.close()
		return nil, fmt.Errorf("durable: table %q already open", name)
	}
	s.tables[name] = tl
	return tl, nil
}

// Drop removes a table's on-disk state. The directory is renamed into
// .trash first (one atomic step that makes the table invisible to
// recovery) and then deleted; a crash mid-delete is finished by the
// next Open. Dropping a table with no on-disk state is a no-op.
func (s *Store) Drop(name string) error {
	s.mu.Lock()
	tl := s.tables[name]
	delete(s.tables, name)
	s.mu.Unlock()
	if tl != nil {
		tl.close()
	}
	dir := s.tableDir(name)
	if _, err := os.Stat(dir); os.IsNotExist(err) {
		return nil
	}
	dst := filepath.Join(s.dir, trashDir, encodeName(name))
	os.RemoveAll(dst)
	if err := os.Rename(dir, dst); err != nil {
		return err
	}
	if err := syncDir(filepath.Join(s.dir, tablesDir)); err != nil {
		return err
	}
	return os.RemoveAll(dst)
}

// Close closes every open table log (final sync included).
func (s *Store) Close() error {
	s.mu.Lock()
	tables := make([]*TableLog, 0, len(s.tables))
	for _, tl := range s.tables {
		tables = append(tables, tl)
	}
	s.tables = make(map[string]*TableLog)
	s.mu.Unlock()
	var first error
	for _, tl := range tables {
		if err := tl.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Recovered is one table reconstructed from disk: its durable options,
// the snapshot state, and the WAL tail to replay through the normal
// Append path. Log is open and positioned after the last valid frame.
type Recovered struct {
	Name      string
	Meta      TableMeta
	CreatedAt int64

	// Base is the snapshot's rows; Batches are the WAL-tail append
	// batches (seq > snapshot seq) in commit order.
	Base    []int64
	Batches [][]int64

	// Progress/Converged are the snapshot's recorded index progress —
	// the floor recovery must re-drive the rebuilt index to.
	Progress  float64
	Converged bool

	// Append counters as of the snapshot; the caller adds the replayed
	// batches on top.
	Appends    uint64
	AppendRows uint64

	// Repaired reports that a torn/corrupt WAL tail was truncated.
	Repaired bool

	Log *TableLog
}

// Recover scans the store's tables directory and rebuilds every table:
// newest valid snapshot, WAL tail replay with torn-tail repair, and an
// open TableLog positioned for new appends. Tables are returned sorted
// by name for deterministic boot order. A table directory with no
// loadable snapshot is skipped with an error entry in errs (the data
// files are left in place for forensics); the remaining tables still
// recover.
func (s *Store) Recover() (recs []Recovered, errs []error, err error) {
	root := filepath.Join(s.dir, tablesDir)
	ents, err := os.ReadDir(root)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(root, e.Name())
		rec, rerr := s.recoverTable(dir)
		if rerr != nil {
			errs = append(errs, fmt.Errorf("durable: table dir %s: %w", e.Name(), rerr))
			continue
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Name < recs[j].Name })
	return recs, errs, nil
}

func (s *Store) recoverTable(dir string) (Recovered, error) {
	var rec Recovered
	manData, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return rec, fmt.Errorf("manifest: %w", err)
	}
	var man manifest
	if err := json.Unmarshal(manData, &man); err != nil {
		return rec, fmt.Errorf("manifest: %w", err)
	}
	if man.Name == "" {
		return rec, fmt.Errorf("manifest: empty table name")
	}
	if err := man.Meta.Validate(); err != nil {
		return rec, fmt.Errorf("manifest: %w", err)
	}
	meta, base, ok, err := newestValidSnapshot(dir, s.fs)
	if err != nil {
		return rec, err
	}
	if !ok {
		return rec, fmt.Errorf("no valid snapshot")
	}
	res, err := replayWAL(dir, s.fs, meta.Seq)
	if err != nil {
		return rec, err
	}
	log, err := s.openTableLog(man.Name, dir, res.lastSeq+1, meta.Seq)
	if err != nil {
		return rec, err
	}
	return Recovered{
		Name:       man.Name,
		Meta:       man.Meta,
		CreatedAt:  man.CreatedAt,
		Base:       base,
		Batches:    res.batches,
		Progress:   meta.Progress,
		Converged:  meta.Converged,
		Appends:    meta.Appends,
		AppendRows: meta.AppendRows,
		Repaired:   res.repaired,
		Log:        log,
	}, nil
}

// TableLog is one table's handle on its durable state: WAL appends,
// batch syncs, and checkpoint (snapshot + truncate). Append/Sync are
// called from the table's scheduler loop; WriteCheckpoint may run on
// any goroutine — an internal mutex serializes the WAL.
type TableLog struct {
	store *Store
	name  string
	dir   string

	mu      sync.Mutex
	w       *wal
	closed  bool
	lastSeq atomic.Uint64 // highest sequence number handed out
	covered atomic.Uint64 // newest snapshot's covered sequence number
}

// Name returns the table name this log belongs to.
func (t *TableLog) Name() string { return t.name }

// LastSeq returns the sequence number of the most recent WAL frame (0
// when the log holds only the base snapshot).
func (t *TableLog) LastSeq() uint64 { return t.lastSeq.Load() }

// CoveredSeq returns the newest snapshot's covered sequence number.
func (t *TableLog) CoveredSeq() uint64 { return t.covered.Load() }

// TailFrames returns how many WAL frames a crash right now would
// replay.
func (t *TableLog) TailFrames() uint64 { return t.lastSeq.Load() - t.covered.Load() }

// Append logs one append batch and returns its sequence number. Under
// the always policy the frame is durable on return; under batch it is
// durable after the next Sync.
func (t *TableLog) Append(values []int64) (uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return 0, fmt.Errorf("durable: table %q log closed", t.name)
	}
	// Under the always policy the append call carries its own fsync, so
	// its duration is the WAL-durability latency the client waits on.
	var start time.Time
	if t.store.policy == SyncAlways {
		start = time.Now()
	}
	seq, err := t.w.append(values)
	if err != nil {
		return 0, err
	}
	t.lastSeq.Store(seq)
	t.store.frames.Add(1)
	if t.store.policy == SyncAlways {
		t.store.syncs.Add(1)
		t.store.observeSync(time.Since(start))
	}
	return seq, nil
}

// Sync makes every appended frame durable (no-op under always, which
// already synced, and off). One call covers a whole scheduler batch.
func (t *TableLog) Sync() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return fmt.Errorf("durable: table %q log closed", t.name)
	}
	if t.store.policy != SyncBatch || !t.w.dirty {
		return nil
	}
	start := time.Now()
	if err := t.w.sync(); err != nil {
		return err
	}
	t.store.syncs.Add(1)
	t.store.observeSync(time.Since(start))
	return nil
}

// Checkpoint is the captured state a snapshot serializes: the table's
// rows as of WAL sequence Seq plus the index-progress floor. Captured
// under the table's ingest lock, which keeps appends out so the row/seq
// pairing is exact, and written by WriteCheckpoint after it is released.
type Checkpoint struct {
	Seq        uint64
	Rows       RowSource
	Progress   float64
	Converged  bool
	Appends    uint64
	AppendRows uint64
	CreatedAt  int64
	Meta       TableMeta
}

// WriteCheckpoint serializes cp into a durable snapshot file, then
// rolls the WAL so the covered segments become immutable and prunes
// both the covered segments and older snapshots. On return, recovery
// cost is proportional to appends since cp.Seq, not table size history.
//
// cp.Rows must reflect exactly the appends through cp.Seq; the caller
// guarantees this by capturing under its table's ingest lock
// (catalog.Table.CaptureCheckpoint). A checkpoint at
// an already-covered seq is a no-op.
func (t *TableLog) WriteCheckpoint(cp Checkpoint) error {
	if cp.Seq < t.covered.Load() {
		return nil
	}
	// Roll first: frames after cp.Seq keep landing in the new segment
	// while we serialize, and the old segment can be deleted afterward.
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return fmt.Errorf("durable: table %q log closed", t.name)
	}
	// Only roll when the active segment actually contains covered
	// frames; otherwise (segment already starts past cp.Seq, or nothing
	// was ever written) rolling would just create an empty orphan.
	if t.w.f != nil && t.w.segStart <= cp.Seq {
		if err := t.w.roll(); err != nil {
			t.mu.Unlock()
			return err
		}
	}
	t.mu.Unlock()

	meta := snapshotMeta{
		Name:       t.name,
		Seq:        cp.Seq,
		Rows:       cp.Rows.Len(),
		Progress:   cp.Progress,
		Converged:  cp.Converged,
		Appends:    cp.Appends,
		AppendRows: cp.AppendRows,
		CreatedAt:  cp.CreatedAt,
		Meta:       cp.Meta,
	}
	if err := writeSnapshot(t.dir, t.store.fs, meta, cp.Rows); err != nil {
		return err
	}
	t.store.snapshots.Add(1)
	t.covered.Store(cp.Seq)

	// Prune under the WAL lock so a concurrent roll cannot race the
	// segment listing.
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	if err := t.w.pruneSegments(cp.Seq); err != nil {
		return err
	}
	return pruneSnapshots(t.dir, cp.Seq)
}

// close finalizes the WAL (without snapshotting; graceful shutdown
// checkpoints first, crash tests skip it on purpose).
func (t *TableLog) close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	return t.w.close()
}

// Close detaches the log from the store and finalizes the WAL.
func (t *TableLog) Close() error {
	t.store.mu.Lock()
	if t.store.tables[t.name] == t {
		delete(t.store.tables, t.name)
	}
	t.store.mu.Unlock()
	return t.close()
}
