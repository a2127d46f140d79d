package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// EventKind classifies one convergence-timeline event. Kinds are a
// small enum (not strings) so recording an event allocates nothing.
type EventKind uint8

const (
	// EvProgress: index progress moved. A = new progress [0,1],
	// B = delta since the last recorded progress event.
	EvProgress EventKind = iota
	// EvPhase: the handle's refinement phase changed. A = new phase
	// ordinal (query.Phase), B = previous phase ordinal.
	EvPhase
	// EvShardSeal: the append tail was sealed into a shard, merging
	// in the smaller tail-born shards to its left. Shard = the
	// resulting shard's index, A = its rows, B = shards it absorbed
	// (0: the tail alone became a new shard).
	EvShardSeal
	// EvShardClaim: a cold compressed shard was claimed (decoded to
	// raw rows and handed its own progressive index). Shard = shard
	// index, A = rows decoded.
	EvShardClaim
	// EvShardSettle: a shard whose index had converged dropped its raw
	// rows, keeping the index, whose packed leaves hold them (or the
	// packed base blocks the shard keeps where the table keeps row order).
	// Shard = shard index, A = rows settled, B = bytes the shard then
	// holds.
	EvShardSettle
	// EvCheckpoint: a durability checkpoint (snapshot) was written.
	// A = rows captured, B = write duration in seconds.
	EvCheckpoint
	// EvReplay: WAL tail replay progress during recovery.
	// A = frames replayed so far, B = total tail frames.
	EvReplay
	// EvSuspend: per-batch indexing suspension — only the first query
	// of a batch pays an indexing delta; A = queries in the batch
	// that executed with refinement suspended.
	EvSuspend
	// EvDegrade: persistent WAL sync failure pushed the table into
	// degraded read-only mode. A = sync attempts the last batch made.
	EvDegrade
	// EvShed: admission-queue overflow rejected work (HTTP 429).
	// A = requests shed since the previous EvShed event (sheds are
	// coalesced so an overload burst cannot flush the ring).
	EvShed
	// EvDeadlineClamp: queries executed with their indexing budget
	// clamped to meet a deadline. A = clamped queries in the batch.
	EvDeadlineClamp
	// EvQuarantine: a panic in the table's scheduler loop quarantined
	// the table; siblings are unaffected. A is unused.
	EvQuarantine

	numEventKinds
)

var eventKindNames = [numEventKinds]string{
	EvProgress:      "progress",
	EvPhase:         "phase",
	EvShardSeal:     "shard_seal",
	EvShardClaim:    "shard_claim",
	EvShardSettle:   "shard_settle",
	EvCheckpoint:    "checkpoint",
	EvReplay:        "replay",
	EvSuspend:       "suspend",
	EvDegrade:       "degrade",
	EvShed:          "shed",
	EvDeadlineClamp: "deadline_clamp",
	EvQuarantine:    "quarantine",
}

// String returns the event kind's wire name.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "unknown"
}

// Event is one entry in a table's convergence timeline. The payload
// is two generic float fields whose meaning depends on Kind (see the
// kind constants); keeping the struct flat and allocation-free is
// what lets the shard layer record seals and claims from inside its
// locks without a heap write.
type Event struct {
	Seq   uint64
	At    time.Time
	Kind  EventKind
	Shard int32
	A, B  float64
}

// EventJSON is the wire form of one event, with kind-specific field
// names resolved at render time (far from the recording path).
type EventJSON struct {
	Seq   uint64         `json:"seq"`
	At    time.Time      `json:"at"`
	Kind  string         `json:"kind"`
	Shard *int32         `json:"shard,omitempty"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// JSON renders the event for the debug endpoint.
func (e Event) JSON() EventJSON {
	out := EventJSON{Seq: e.Seq, At: e.At, Kind: e.Kind.String()}
	switch e.Kind {
	case EvProgress:
		out.Attrs = map[string]any{"progress": e.A, "delta": e.B}
	case EvPhase:
		out.Attrs = map[string]any{"phase": int(e.A), "from": int(e.B)}
	case EvShardSeal:
		sh := e.Shard
		out.Shard = &sh
		out.Attrs = map[string]any{"rows": int64(e.A), "merged": int64(e.B)}
	case EvShardClaim:
		sh := e.Shard
		out.Shard = &sh
		out.Attrs = map[string]any{"rows": int64(e.A)}
	case EvShardSettle:
		sh := e.Shard
		out.Shard = &sh
		out.Attrs = map[string]any{"rows": int64(e.A), "packed_bytes": int64(e.B)}
	case EvCheckpoint:
		out.Attrs = map[string]any{"rows": int64(e.A), "write_seconds": e.B}
	case EvReplay:
		out.Attrs = map[string]any{"frames_replayed": int64(e.A), "tail_frames": int64(e.B)}
	case EvSuspend:
		out.Attrs = map[string]any{"suspended_queries": int64(e.A)}
	case EvDegrade:
		out.Attrs = map[string]any{"sync_attempts": int64(e.A)}
	case EvShed:
		out.Attrs = map[string]any{"shed_requests": int64(e.A)}
	case EvDeadlineClamp:
		out.Attrs = map[string]any{"clamped_queries": int64(e.A)}
	case EvQuarantine:
		// No payload: the event's timestamp is the story.
	}
	return out
}

// Timeline is a bounded ring of convergence events for one table.
// Record writes into preallocated storage under a short mutex and
// never allocates; Snapshot copies events out for the debug endpoint.
// All methods are nil-safe so uninstrumented handles cost one nil
// test.
type Timeline struct {
	mu   sync.Mutex
	ring []Event
	pos  int
	n    int
	seq  uint64

	// Replay progress is mirrored into atomics (in addition to
	// EvReplay events) so /healthz can report per-table recovery
	// progress without touching the ring lock.
	replayDone  atomic.Uint64
	replayTotal atomic.Uint64
}

// NewTimeline builds a timeline ring holding up to capacity events
// (minimum 1).
func NewTimeline(capacity int) *Timeline {
	if capacity < 1 {
		capacity = 1
	}
	return &Timeline{ring: make([]Event, capacity)}
}

// Record appends an event, evicting the oldest when full. The Seq
// field is assigned by the timeline (monotonic per table) so readers
// can detect eviction gaps.
func (tl *Timeline) Record(kind EventKind, shard int32, a, b float64) {
	if tl == nil {
		return
	}
	at := time.Now()
	tl.mu.Lock()
	tl.seq++
	tl.ring[tl.pos] = Event{Seq: tl.seq, At: at, Kind: kind, Shard: shard, A: a, B: b}
	tl.pos = (tl.pos + 1) % len(tl.ring)
	if tl.n < len(tl.ring) {
		tl.n++
	}
	tl.mu.Unlock()
}

// Snapshot returns the retained events, oldest first.
func (tl *Timeline) Snapshot() []Event {
	if tl == nil {
		return nil
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	out := make([]Event, 0, tl.n)
	start := (tl.pos - tl.n + 2*len(tl.ring)) % len(tl.ring)
	for i := 0; i < tl.n; i++ {
		out = append(out, tl.ring[(start+i)%len(tl.ring)])
	}
	return out
}

// Len reports how many events the ring currently holds.
func (tl *Timeline) Len() int {
	if tl == nil {
		return 0
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return tl.n
}

// SetReplayProgress updates the recovery replay counters read by
// /healthz. done == total marks replay complete.
func (tl *Timeline) SetReplayProgress(done, total uint64) {
	if tl == nil {
		return
	}
	tl.replayTotal.Store(total)
	tl.replayDone.Store(done)
}

// ReplayProgress reports (frames replayed, total tail frames) for the
// table's most recent recovery; total is 0 when the table never
// replayed a WAL tail.
func (tl *Timeline) ReplayProgress() (done, total uint64) {
	if tl == nil {
		return 0, 0
	}
	return tl.replayDone.Load(), tl.replayTotal.Load()
}
