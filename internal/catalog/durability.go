package catalog

import (
	"fmt"
	"math"
	"time"

	"repro/internal/durable"
	"repro/internal/encode"
	"repro/internal/obs"
	"repro/internal/plan"
)

// This file is the catalog half of the durability subsystem
// (internal/durable): option <-> TableMeta conversion, the per-table
// durable lifecycle (WAL-backed Append, checkpoint capture, recovery),
// and the Drop teardown of on-disk state. The catalog stays usable
// without a store — every hook is a no-op on an ephemeral catalog — so
// tests and deployments that want a pure in-memory server keep exactly
// the old behavior.

// meta projects the catalog options into the durable layer's
// JSON-friendly TableMeta. Delta is stored in parts-per-million so the
// round-trip is exact for any δ a client can reasonably configure.
func (o Options) meta() durable.TableMeta {
	m := durable.TableMeta{
		Strategy:   o.Strategy.String(),
		DeltaPPM:   int64(math.Round(o.Delta * 1e6)),
		BudgetNs:   o.Budget.Nanoseconds(),
		Adaptive:   o.Adaptive,
		Workers:    o.Workers,
		Shards:     o.Shards,
		IdleRefine: o.IdleRefine,
	}
	// Raw stays the empty string so manifests and snapshot headers of
	// pre-encoding tables remain byte-identical.
	if o.Encoding.Compressed() {
		m.Encoding = o.Encoding.String()
	}
	// Single-column tables keep Format 0 and no schema so their
	// manifests stay byte-identical to the v1 layout; only a real
	// multi-column schema marks the meta as format v2.
	if len(o.Columns) > 1 {
		m.Columns = append([]string(nil), o.Columns...)
		m.Format = durable.FormatMultiColumn
	}
	return m
}

// optionsFromMeta inverts Options.meta at recovery time.
func optionsFromMeta(m durable.TableMeta) (Options, error) {
	strat, err := plan.ParseStrategy(m.Strategy)
	if err != nil {
		return Options{}, fmt.Errorf("catalog: recovered table meta: %w", err)
	}
	enc, err := encode.ParseMode(m.Encoding)
	if err != nil {
		return Options{}, fmt.Errorf("catalog: recovered table meta: %w", err)
	}
	if err := m.Validate(); err != nil {
		return Options{}, fmt.Errorf("catalog: recovered table meta: %w", err)
	}
	return Options{
		Strategy:   strat,
		Delta:      float64(m.DeltaPPM) / 1e6,
		Budget:     time.Duration(m.BudgetNs),
		Adaptive:   m.Adaptive,
		Workers:    m.Workers,
		Shards:     m.Shards,
		IdleRefine: m.IdleRefine,
		Encoding:   enc,
		Columns:    append([]string(nil), m.Columns...),
	}, nil
}

// NewDurable returns a catalog whose tables persist into store: Load
// writes a base snapshot before acking, Append write-ahead-logs every
// batch, and Drop removes the on-disk state. Recovery is driven by the
// server through LoadRecovered.
func NewDurable(store *durable.Store) *Catalog {
	c := New()
	c.store = store
	return c
}

// Durable reports whether the table write-ahead-logs its appends.
func (t *Table) Durable() bool { return t.log != nil }

// SyncLog flushes the table's WAL to stable storage. The scheduler
// calls this once per batch, after applying the batch's appends and
// before acking any of them — the ack-after-WAL ordering that makes an
// acked append survive a crash. No-op on an ephemeral table.
func (t *Table) SyncLog() error {
	if t.log == nil {
		return nil
	}
	return t.log.Sync()
}

// DurabilityInfo is the WAL/snapshot view of one table for /stats.
type DurabilityInfo struct {
	// WALSeq is the sequence number of the newest logged append batch;
	// CoveredSeq the newest snapshot's coverage. TailFrames is their
	// difference: how many batches a crash right now would replay.
	WALSeq     uint64 `json:"wal_seq"`
	CoveredSeq uint64 `json:"covered_seq"`
	TailFrames uint64 `json:"tail_frames"`
}

// durabilityInfo returns the table's durability snapshot (nil when
// ephemeral).
func (t *Table) durabilityInfo() *DurabilityInfo {
	if t.log == nil {
		return nil
	}
	return &DurabilityInfo{
		WALSeq:     t.log.LastSeq(),
		CoveredSeq: t.log.CoveredSeq(),
		TailFrames: t.log.TailFrames(),
	}
}

// NeedsCheckpoint reports whether a background checkpoint would make
// progress durable: there are WAL-tail frames to fold into a snapshot,
// or the index has converged further than the newest snapshot recorded
// (idle refinement keeps working between appends, and that work should
// survive a crash too). Always false on an ephemeral table.
func (t *Table) NeedsCheckpoint() bool {
	if t.log == nil {
		return false
	}
	if t.log.TailFrames() > 0 {
		return true
	}
	return t.idx.Progress() > t.snapProgressLoad()
}

func (t *Table) snapProgressLoad() float64 {
	return math.Float64frombits(t.snapProgress.Load())
}

func (t *Table) snapProgressStore(p float64) {
	t.snapProgress.Store(math.Float64bits(p))
}

// CaptureCheckpoint snapshots the table's durable state: rows as of
// the newest WAL frame, plus the index-progress floor. It may run on
// any goroutine: the ingest lock keeps appends out while it reads, so
// the (rows, seq) pairing is exact. ok == false on an ephemeral table.
func (t *Table) CaptureCheckpoint() (durable.Checkpoint, bool) {
	if t.log == nil {
		return durable.Checkpoint{}, false
	}
	t.ingest.Lock()
	defer t.ingest.Unlock()
	// The rows are the columns' published blocks, which no later append,
	// seal or settle changes: the background write interleaves them a
	// block at a time and never holds a copy of the table.
	return durable.Checkpoint{
		Seq:        t.log.LastSeq(),
		Rows:       t.idx.Snapshot(),
		Progress:   t.idx.Progress(),
		Converged:  t.idx.Converged(),
		Appends:    t.appends.Load(),
		AppendRows: t.appendRows.Load(),
		CreatedAt:  t.created.UnixNano(),
		Meta:       t.opts.meta(),
	}, true
}

// WriteCheckpoint serializes a captured checkpoint to a durable
// snapshot and truncates the covered WAL prefix. It runs without the
// ingest lock: the captured rows are a snapshot no later change
// reaches, and the WAL keeps accepting appends while the file is written.
func (t *Table) WriteCheckpoint(cp durable.Checkpoint) error {
	if t.log == nil {
		return nil
	}
	start := time.Now()
	if err := t.log.WriteCheckpoint(cp); err != nil {
		return err
	}
	t.snapProgressStore(cp.Progress)
	t.timeline().Record(obs.EvCheckpoint, -1, float64(cp.Rows.Len()), time.Since(start).Seconds())
	return nil
}

// LoadRecovered rebuilds one table from its recovered durable state:
// column from the snapshot rows, index handle from the recovered
// options, WAL-tail batches replayed through the normal Append path
// (without re-logging — they are already in the WAL), and the index
// re-driven to at least the snapshot's recorded progress so
// convergence work paid for before the crash is not silently lost.
func (c *Catalog) LoadRecovered(rec durable.Recovered) (*Table, error) {
	if c.store == nil {
		return nil, fmt.Errorf("catalog: LoadRecovered on an ephemeral catalog")
	}
	opts, err := optionsFromMeta(rec.Meta)
	if err != nil {
		return nil, err
	}
	// Observability is attached before the fill runs, so /healthz can
	// report this table's frames-replayed progress while recovery is
	// running, and the replayed appends' structural events (tail seals)
	// land in the timeline like live ones would.
	return c.build("recover", rec.Name, rec.Base, opts, time.Unix(0, rec.CreatedAt), func(t *Table) error {
		t.log = rec.Log
		t.snapProgressStore(rec.Progress)
		// Replay the WAL tail through the normal ingest path: each batch
		// lands in the pending tail / tail shard exactly as it originally
		// did, and the index absorbs it under its usual budget discipline.
		k := opts.RowWidth()
		tl := t.timeline()
		total := uint64(len(rec.Batches))
		tl.SetReplayProgress(0, total)
		if total > 0 {
			tl.Record(obs.EvReplay, -1, 0, float64(total))
		}
		var tailRows uint64
		for i, b := range rec.Batches {
			if len(b)%k != 0 {
				return fmt.Errorf("replay frame of %d values, not a multiple of row width %d", len(b), k)
			}
			if err := t.idx.Append(b); err != nil {
				return fmt.Errorf("replay append: %w", err)
			}
			t.rows.Add(int64(len(b) / k))
			tailRows += uint64(len(b) / k)
			tl.SetReplayProgress(uint64(i+1), total)
		}
		if total > 0 {
			tl.Record(obs.EvReplay, -1, float64(total), float64(total))
		}
		t.appends.Store(rec.Appends + uint64(len(rec.Batches)))
		t.appendRows.Store(rec.AppendRows + tailRows)
		t.redrive(rec.Progress)
		return nil
	})
}

// redrive spends refinement slices until the rebuilt index's Progress
// reaches the snapshot's recorded floor. The snapshot stores progress
// rather than strategy internals — the four algorithms' in-memory
// layouts would each need their own serialization format, while
// re-running RefineStep reproduces the work in a format-independent way,
// bounded by the same budget slices queries would have spent. A stall
// guard breaks the loop if progress plateaus below the floor; single
// non-increasing steps are normal (a step may spend its slice flushing
// the replayed tail into a shard before any of it counts as indexed),
// so only a long run of them gives up.
func (t *Table) redrive(target float64) {
	if target <= 0 {
		return
	}
	const stallLimit = 256
	stalled := 0
	last := t.idx.Progress()
	for last < target && stalled < stallLimit {
		_, done := t.idx.RefineStep()
		p := t.idx.Progress()
		if p >= target || done {
			return
		}
		if p <= last {
			stalled++
		} else {
			stalled = 0
		}
		last = p
	}
}
