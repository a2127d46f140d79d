package server

import (
	"context"
	"fmt"
	"time"
)

// This file is the server half of the durability subsystem: boot
// states for /healthz, boot-time recovery that rebuilds the catalog and
// schedulers from a durable.Store, the background snapshot cadence, and
// graceful shutdown (drain + final checkpoints). The WAL itself is
// threaded lower down — catalog.Table.Append logs, the scheduler's sync
// publishes before acking (scheduler.go) — so this layer only orchestrates.

// Boot states, reported by /healthz. A durable server is starting until
// Recover is called, recovering while WAL replay rebuilds its tables,
// and ready afterwards; an ephemeral server is born ready.
const (
	bootStarting int32 = iota
	bootRecovering
	bootReady
)

// BootState reports the server's boot lifecycle as the /healthz string.
func (s *Server) BootState() string {
	switch s.boot.Load() {
	case bootStarting:
		return "starting"
	case bootRecovering:
		return "recovering"
	default:
		return "ready"
	}
}

// defaultSnapshotInterval is the background checkpoint cadence when
// Config.SnapshotInterval is unset.
const defaultSnapshotInterval = 30 * time.Second

// Recover rebuilds every table found in the configured store — newest
// valid snapshot, WAL-tail replay through the normal Append path, index
// re-driven to the snapshot's progress floor — starts their schedulers,
// flips /healthz to ready, and starts the snapshot cadence. Tables that
// cannot be recovered (e.g. no valid snapshot survived) are returned as
// warnings without failing the boot; their files stay on disk for
// inspection. On an ephemeral server Recover is a no-op.
//
// The HTTP listener may already be serving: /healthz answers
// starting/recovering (503) until this returns, which is what the load
// generator's wait-for-ready polls.
func (s *Server) Recover() (warnings []error, err error) {
	if s.cfg.Store == nil {
		s.boot.Store(bootReady)
		return nil, nil
	}
	s.boot.Store(bootRecovering)
	recs, recErrs, err := s.cfg.Store.Recover()
	if err != nil {
		return nil, fmt.Errorf("server: recover: %w", err)
	}
	warnings = append(warnings, recErrs...)
	for _, rec := range recs {
		t, lerr := s.catalog.LoadRecovered(rec)
		if lerr != nil {
			rec.Log.Close()
			warnings = append(warnings, lerr)
			continue
		}
		if err := s.register(t); err == errClosed {
			return warnings, fmt.Errorf("server: recover: %w", err)
		} else if err != nil {
			warnings = append(warnings, err) // dropped by a client meanwhile
		}
	}
	s.boot.Store(bootReady)
	s.startSnapshotLoop()
	return warnings, nil
}

// startSnapshotLoop begins the background checkpoint cadence: every
// interval, each durable table that accumulated WAL tail or new index
// progress is checkpointed on the cadence goroutine (Scheduler.Checkpoint,
// whose capture the table's ingest lock keeps exact against appends).
func (s *Server) startSnapshotLoop() {
	interval := s.cfg.SnapshotInterval
	if interval <= 0 {
		interval = defaultSnapshotInterval
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	s.mu.Lock()
	s.snapQuit, s.snapDone = quit, done
	s.mu.Unlock()
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				s.CheckpointAll(context.Background())
			case <-quit:
				return
			}
		}
	}()
}

// stopSnapshotLoop halts the cadence goroutine (idempotent, nil-safe
// for servers that never started one).
func (s *Server) stopSnapshotLoop() {
	s.mu.Lock()
	quit, done := s.snapQuit, s.snapDone
	s.snapQuit = nil
	s.mu.Unlock()
	if quit == nil {
		return
	}
	close(quit)
	<-done
}

// CheckpointAll snapshots every durable table that needs it (WAL tail
// to truncate, or index progress not yet persisted). Exposed for tests
// and for the cadence loop; errors on one table do not stop the others,
// a cancelled ctx stops before the next table.
func (s *Server) CheckpointAll(ctx context.Context) []error {
	s.mu.Lock()
	scheds := make([]*Scheduler, 0, len(s.scheds))
	for _, sched := range s.scheds {
		scheds = append(scheds, sched)
	}
	s.mu.Unlock()
	var errs []error
	for _, sched := range scheds {
		if ctx.Err() != nil {
			return append(errs, ctx.Err())
		}
		if !sched.table.NeedsCheckpoint() {
			continue
		}
		if _, err := sched.Checkpoint(); err != nil && err != ErrStopped {
			errs = append(errs, fmt.Errorf("server: checkpoint %q: %w", sched.table.Name(), err))
		}
	}
	return errs
}

// Shutdown is the graceful counterpart to Close: every scheduler is
// drained — queued appends flushed to the WAL and acked (or rejected
// explicitly), queued queries answered — then each durable table that
// is not quarantined gets a final checkpoint so restart replays no WAL
// at all, and the store is closed. Callers shut the HTTP listener down
// first, so no new requests are arriving while the queues drain.
func (s *Server) Shutdown() error { return s.close(true) }
