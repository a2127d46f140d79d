// Scheduler: the per-table serving loop. One goroutine owns each
// table's admission; concurrent requests queue on a channel, the loop
// drains whatever is queued into a batch and executes it through the
// table's ExecuteConjBatch — paying one indexing budget (δ) per batch
// instead of one per caller — and whenever the queue is empty it spends
// the same budget slices on background refinement (RefineStep), so the
// index converges during user think-time. Idle slices are budget-
// bounded, so the loop re-checks the queue between slices and yields to
// an arriving request within one slice's latency.
//
// Appends ride the same admission queue as queries: a batch's ingest
// tasks apply first (appended rows cost no indexing budget — they land
// in the handle's pending tail), then its queries execute under the
// batch's single δ, so the one-budget-per-batch amortization holds for
// mixed reader/writer traffic too. A session that appends and then
// queries sees its own rows: the append's reply is sent only after its
// batch fully executed, so the follow-up query lands in a later batch.
//
// A query that needs no δ does not queue for one. Once a batch has found
// the table quiescent — every column converged, no cold shard left to
// claim (plan.Table.ExecuteQuiescent) — its queries are answered on the
// caller's goroutine under the table's read lock, each counted as a
// batch of one, until an append (or anything else that changes the
// table) sends the next query to a batch again.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/query"
)

// ErrStopped is returned for requests admitted to (or waiting on) a
// scheduler that has been stopped, e.g. because its table was dropped.
var ErrStopped = errors.New("server: table scheduler stopped")

// ErrOverloaded is returned at admission when the table's queue is
// full: the request was shed without waiting (HTTP 429). The caller
// should back off for roughly Scheduler.RetryAfter and retry.
var ErrOverloaded = errors.New("server: table admission queue full")

// ErrDegraded rejects appends on a table whose WAL stopped accepting
// syncs: after the retry budget is exhausted the table goes sticky
// read-only — queries keep serving from memory, but no new append can
// be honestly acked, so none is accepted (HTTP 503). Only a restart
// (with the underlying storage healthy again) clears the state.
var ErrDegraded = errors.New("server: table degraded to read-only (WAL sync failing)")

// ErrQuarantined rejects all work on a table whose serving loop
// panicked. The panic is contained to this table — sibling tables'
// loops are independent goroutines — and the state is sticky until
// restart, because a panicked loop may have left the index in an
// unknown state.
var ErrQuarantined = errors.New("server: table quarantined after scheduler panic")

// Scheduler tunables. Defaults are applied by newScheduler.
const (
	// defaultQueueDepth bounds how many requests may wait in admission;
	// beyond it, Execute blocks (backpressure) until the loop drains.
	defaultQueueDepth = 256
	// defaultMaxBatch caps how many queued requests one ExecuteConjBatch
	// call absorbs; the cap bounds the tail latency of the last request
	// in a batch on a not-yet-converged index.
	defaultMaxBatch = 64
	// latencyWindow is how many recent request latencies the quantile
	// estimates are computed over.
	latencyWindow = 4096
	// walSyncRetries is how many times a failed batch WAL sync is
	// retried before the table degrades to read-only. With the initial
	// 1ms backoff doubling per attempt, the whole retry ladder blocks
	// the serving loop for under ~50ms.
	walSyncRetries = 5
	// walSyncBackoff is the first retry's backoff; later retries double
	// it, each jittered to half-to-full value.
	walSyncBackoff = time.Millisecond
	// overloadWindow: a shed within this window keeps the table
	// reporting overloaded on /healthz even after the queue drains, so
	// health checks sampled between bursts still see the pressure.
	overloadWindow = 5 * time.Second
	// shedEventInterval throttles EvShed timeline events: sheds inside
	// the interval coalesce into the next event's count, so an overload
	// burst cannot flush the bounded event ring.
	shedEventInterval = time.Second
	// leadEWMAAlpha/batchEWMAAlpha smooth the leader-slice and
	// batch-duration estimates that drive deadline clamping and
	// Retry-After.
	leadEWMAAlpha  = 0.3
	batchEWMAAlpha = 0.2
)

// ExecInfo is the serving metadata attached to one answered request.
type ExecInfo struct {
	// Batch is the size of the batch the request was executed in (the
	// requests that shared one indexing step).
	Batch int
	// QueueWait is how long the request sat in admission before its
	// batch started executing (excludes the execution itself).
	QueueWait time.Duration
}

// result is what the scheduler sends back for one request.
type result struct {
	ans  query.Answer
	rows int // table row count after an append task applied
	err  error
	info ExecInfo
}

// task is one admitted request — a query or an append — waiting for
// execution.
type task struct {
	// conj is the query: a plain request is the one-predicate conjunction
	// on the unnamed first column, its Preds backed by pred so that the
	// task stays the request's one allocation.
	conj     query.Conjunction
	pred     [1]query.ColPredicate
	append   []int64 // ingest payload; meaningful when isAppend
	isAppend bool
	reply    chan result // buffered(1): the loop never blocks on a reply
	enqueued time.Time
	// deadline, when non-zero, is the caller's answer-by time. It does
	// not cancel the query — it clamps the indexing budget: a batch
	// whose deadline cannot absorb the estimated leader slice executes
	// with refinement suspended (or fully clamped), so the answer comes
	// back exact but the table does not converge on this query's dime.
	deadline time.Time
	// panicTest makes runBatch, or the route, panic when it reaches this
	// task — the fault-injection point for quarantine tests. Never set in
	// production paths.
	panicTest bool
	// trace, when non-nil, records this request's lifecycle spans
	// (queue wait, WAL sync, execute with per-shard children). Set at
	// admission for sampled queries and for ?trace=1 requests; nil for
	// everything else, which keeps the batch path allocation-free.
	trace *obs.Trace
}

// Scheduler serializes one table's appends and index-building queries
// through a single goroutine.
type Scheduler struct {
	table    *catalog.Table
	idx      *plan.Table
	idle     bool // idle-time refinement enabled
	maxBatch int

	// reg and tobs are the observability hooks (both nil when the
	// scheduler runs unobserved, e.g. in library tests): reg samples
	// traces and owns the trace ring and the slow-query logger, tobs
	// holds this table's convergence timeline and histograms.
	// lastProgress/lastPhase remember the convergence state the loop
	// last published to the timeline; only the loop goroutine touches
	// them, so they need no lock.
	reg          *obs.Registry
	tobs         *obs.Table
	lastProgress float64
	lastPhase    query.Phase

	tasks chan *task
	quit  chan struct{} // closed by Stop/Drain
	done  chan struct{} // closed by the loop after the final drain

	stopOnce sync.Once
	// draining selects the final-drain behavior: Drain (graceful
	// shutdown) executes whatever is still queued — appends flushed to
	// the WAL and acked — where Stop (table drop) rejects it.
	draining atomic.Bool

	// degraded (sticky): the WAL stopped accepting syncs after the full
	// retry ladder; appends are rejected with ErrDegraded, reads keep
	// serving. quarantined (sticky): the serving loop panicked; all work
	// is rejected with ErrQuarantined. Both clear only on restart.
	degraded    atomic.Bool
	quarantined atomic.Bool

	// Loop-goroutine-only state (no lock): the batch currently inside
	// runBatch (so a panic recovery can fail its unanswered tasks) and
	// the leader-indexing-slice estimate that drives deadline clamping.
	inflight []*task
	leadEWMA float64 // seconds one unclamped batch leader spends indexing

	mu          sync.Mutex // guards the metrics below
	queries     uint64
	appends     uint64
	appendRows  uint64
	batches     uint64
	maxSeen     int
	idleSlices  uint64
	idleWorkSec float64
	lat         [latencyWindow]time.Duration
	latLen      int // filled prefix of lat
	latPos      int // next write position (ring)

	sheds           uint64    // requests rejected with ErrOverloaded
	shedUnreported  uint64    // sheds not yet carried by an EvShed event
	lastShed        time.Time // drives the overloaded health window
	lastShedEvent   time.Time // drives EvShed throttling
	deadlineClamped uint64    // queries whose indexing budget a deadline clamped
	syncRetries     uint64    // WAL sync attempts beyond the first, summed
	batchEWMA       float64   // seconds one batch takes to execute
}

// recordLatency pushes one request latency into the ring. Caller holds
// s.mu. Before the ring wraps, only the filled prefix [0, latLen) is
// ever read by Metrics — unwritten slots never leak into quantiles.
func (s *Scheduler) recordLatency(d time.Duration) {
	s.lat[s.latPos] = d
	s.latPos = (s.latPos + 1) % latencyWindow
	if s.latLen < latencyWindow {
		s.latLen++
	}
}

// newScheduler starts the serving loop for t. queueDepth and maxBatch
// fall back to the defaults when <= 0; reg may be nil (no tracing, no
// histograms, no slow-query log).
func newScheduler(t *catalog.Table, queueDepth, maxBatch int, reg *obs.Registry) *Scheduler {
	if queueDepth <= 0 {
		queueDepth = defaultQueueDepth
	}
	if maxBatch <= 0 {
		maxBatch = defaultMaxBatch
	}
	s := &Scheduler{
		table:    t,
		idx:      t.Handle(),
		idle:     t.Options().IdleRefineEnabled(),
		maxBatch: maxBatch,
		reg:      reg,
		tasks:    make(chan *task, queueDepth),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if reg != nil {
		s.tobs = reg.Table(t.Name())
	}
	s.lastProgress = s.idx.Progress()
	s.lastPhase = s.idx.Phase()
	go s.loop()
	return s
}

// Execute admits req and blocks until the scheduler answers it, the
// context is cancelled, or the scheduler stops: ExecuteConj for a plain
// request, with no deadline and no forced trace.
func (s *Scheduler) Execute(ctx context.Context, req query.Request) (query.Answer, ExecInfo, error) {
	t := &task{enqueued: time.Now()}
	t.pred[0].Pred = req.Pred
	t.conj = query.Conjunction{Preds: t.pred[:], Aggs: req.Aggs}
	ans, info, _, err := s.submit(ctx, t, false)
	return ans, info, err
}

// ExecuteConj admits a query — one predicate or several — and blocks
// until its batch answered it. A non-zero deadline is an answer-by time
// that clamps the indexing budget (it never cancels the query — see
// task.deadline). With forceTrace the finished full-fidelity trace is
// returned inline (the ?trace=1 path) as well as retained in the
// registry's /debug/traces ring; otherwise one in every
// Config.TraceSample queries is traced into the ring, at the cost of one
// atomic load when sampling is off, and the returned trace is nil.
func (s *Scheduler) ExecuteConj(ctx context.Context, c query.Conjunction, deadline time.Time, forceTrace bool) (query.Answer, ExecInfo, *obs.Trace, error) {
	return s.submit(ctx, &task{conj: c, deadline: deadline, enqueued: time.Now()}, forceTrace)
}

// submit answers the query task t for Execute and ExecuteConj: on the
// caller's goroutine when its table is quiescent (route), through the
// admission queue otherwise.
func (s *Scheduler) submit(ctx context.Context, t *task, forceTrace bool) (query.Answer, ExecInfo, *obs.Trace, error) {
	if forceTrace || s.reg.Sample() {
		t.trace = obs.NewTrace("query", s.table.Name())
	}
	r, routed := s.route(t)
	var err error
	if !routed {
		t.reply = make(chan result, 1)
		r, err = s.admit(ctx, t)
	}
	if err != nil {
		return query.Answer{}, ExecInfo{}, nil, err
	}
	var tr *obs.Trace
	if forceTrace {
		tr = t.trace
	}
	return r.ans, r.info, tr, r.err
}

// route answers query t on the caller's goroutine, under the table's
// read lock, if the table is quiescent: no column has index work left to
// hand out, so a batch would do nothing but answer it
// (plan.Table.ExecuteQuiescent). Otherwise it reports false and t goes
// to admit, which also turns away a stopped or quarantined table's
// queries with ErrStopped or ErrQuarantined. A routed query keeps what
// the queue gives one — the count as a batch of one, the latency ring,
// histograms, traces and the slow-query log — and its trace the queue's
// shape: a queue_wait span, which here lasts from admission to the
// check, then execute. A panic quarantines the table, as one in the loop
// does (guard), and answers ErrQuarantined.
func (s *Scheduler) route(t *task) (r result, routed bool) {
	select {
	case <-s.quit:
		return result{}, false
	default:
	}
	if s.quarantined.Load() || s.idx == nil { // a scheduler over no table only queues
		return result{}, false
	}
	defer func() {
		if p := recover(); p != nil {
			s.quarantine(p)
			r, routed = result{err: ErrQuarantined}, true
		}
	}()
	started := time.Now()
	if t.trace != nil {
		sp := t.trace.StartAt(t.trace.Root(), "queue_wait", t.enqueued)
		t.trace.EndAt(sp, started)
	}
	sp := t.trace.StartAt(t.trace.Root(), "execute", started)
	t.trace.Int(sp, "batch", 1)
	t.trace.SetAttach(sp)
	ans, ok, err := s.idx.ExecuteQuiescent(t.conj, t.trace)
	if !ok {
		if t.trace != nil {
			// Drop the spans just opened: the queue opens its own.
			t.trace = obs.NewTrace("query", s.table.Name())
		}
		return result{}, false
	}
	if t.panicTest {
		panic("test-injected route panic")
	}
	finished := time.Now()
	t.trace.EndAt(sp, finished)
	r = result{ans: ans, err: err, info: ExecInfo{Batch: 1}}
	s.mu.Lock()
	s.queries++
	s.batches++
	s.maxSeen = max(s.maxSeen, 1)
	s.recordLatency(finished.Sub(t.enqueued))
	s.mu.Unlock()
	if s.tobs != nil {
		s.tobs.BatchSize.Observe(1)
	}
	s.observeTask(t, &r, started, finished, s.reg.SlowThreshold())
	return r, true
}

// Append admits an ingest task on the same queue as queries and blocks
// until its batch applied it. It returns the table's row count after
// the append and the usual serving metadata.
func (s *Scheduler) Append(ctx context.Context, values []int64) (int, ExecInfo, error) {
	r, err := s.admit(ctx, &task{append: values, isAppend: true, reply: make(chan result, 1), enqueued: time.Now()})
	if err != nil {
		return 0, ExecInfo{}, err
	}
	return r.rows, r.info, r.err
}

// admit enqueues t and waits for its result. Queries and appends
// never wait for a queue slot: a full queue sheds the request with
// ErrOverloaded immediately (load shedding beats convoying — a caller
// told "429, retry in 2s" behaves better under overload than one
// silently parked on a channel).
func (s *Scheduler) admit(ctx context.Context, t *task) (result, error) {
	// Check quit with priority before racing it against a queue slot:
	// once Stop/Drain fired, a caller in a retry loop must see
	// ErrStopped rather than win the select's coin flip and keep
	// feeding the final drain forever.
	select {
	case <-s.quit:
		return result{}, ErrStopped
	default:
	}
	// Sticky failure states reject at the door: a quarantined table
	// serves nothing, a degraded one serves no appends. Checking here
	// (not only in the loop) keeps the rejection latency flat even
	// when the queue has backlog.
	if s.quarantined.Load() {
		return result{}, ErrQuarantined
	}
	if t.isAppend && s.degraded.Load() {
		return result{}, ErrDegraded
	}
	select {
	case s.tasks <- t:
	default:
		s.noteShed()
		return result{}, ErrOverloaded
	}
	select {
	case r := <-t.reply:
		return r, nil
	case <-s.done:
		// The loop exited; it may have answered us during its final
		// drain, so prefer a waiting reply over ErrStopped.
		select {
		case r := <-t.reply:
			return r, nil
		default:
			return result{}, ErrStopped
		}
	case <-ctx.Done():
		// The loop may still execute the task; the buffered reply
		// channel means it will never block on our absence.
		return result{}, ctx.Err()
	}
}

// Stop terminates the loop and fails any queued requests with
// ErrStopped. Safe to call more than once; blocks until the loop has
// fully exited.
func (s *Scheduler) Stop() {
	s.stopOnce.Do(func() { close(s.quit) })
	<-s.done
}

// Drain terminates the loop like Stop, but everything already admitted
// is executed first: queued appends are applied, flushed to the WAL,
// and acked (or rejected with an explicit error), and queued queries
// are answered. Requests arriving after the drain finishes fail with
// ErrStopped. Used by graceful shutdown so no acked append can be lost
// and no queued one is silently dropped.
func (s *Scheduler) Drain() {
	s.stopOnce.Do(func() {
		s.draining.Store(true)
		close(s.quit)
	})
	<-s.done
}

// Checkpoint captures the table's durable state, then writes the
// snapshot file and truncates the covered WAL prefix, all on the
// caller's goroutine: the table's ingest lock, not the serving loop,
// keeps the capture exact, and it holds appends back only for the
// in-memory capture. A quarantined table is refused with
// ErrQuarantined (its state is not trusted again before a restart), a
// dropped one with ErrStopped. ok == false means the table is not
// durable.
func (s *Scheduler) Checkpoint() (ok bool, err error) {
	if s.quarantined.Load() {
		return false, ErrQuarantined
	}
	if s.table.Status() == catalog.StatusDropped {
		return false, ErrStopped
	}
	cp, ok := s.table.CaptureCheckpoint()
	if !ok {
		return false, nil
	}
	return true, s.table.WriteCheckpoint(cp)
}

// noteShed counts one rejected admission and (throttled) publishes it
// to the table's timeline, coalescing the sheds since the last event
// into one count so a burst cannot flush the bounded event ring.
func (s *Scheduler) noteShed() {
	now := time.Now()
	s.mu.Lock()
	s.sheds++
	s.shedUnreported++
	s.lastShed = now
	emit := s.tobs != nil && now.Sub(s.lastShedEvent) >= shedEventInterval
	var n uint64
	if emit {
		n = s.shedUnreported
		s.shedUnreported = 0
		s.lastShedEvent = now
	}
	s.mu.Unlock()
	if emit {
		s.tobs.Timeline.Record(obs.EvShed, -1, float64(n), 0)
	}
}

// RetryAfter estimates how long a shed caller should back off: the
// queue holds roughly queueDepth/maxBatch batches of work, each taking
// about one smoothed batch duration to drain. Clamped to [1s, 30s] so
// the hint stays useful before the estimate warms up and bounded when
// a cold index makes early batches slow.
func (s *Scheduler) RetryAfter() time.Duration {
	s.mu.Lock()
	batchSec := s.batchEWMA
	s.mu.Unlock()
	backlog := float64(len(s.tasks))/float64(s.maxBatch) + 1
	d := time.Duration(batchSec * backlog * float64(time.Second))
	if d < time.Second {
		d = time.Second
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// TableState classifies a table's serving health for /healthz, the
// debug endpoint, and the progidx_table_state gauge. Values order by
// severity; the numeric encoding is the gauge's wire value.
type TableState int

const (
	StateOK TableState = iota
	StateOverloaded
	StateDegraded
	StateQuarantined
)

// String returns the state's wire name.
func (st TableState) String() string {
	switch st {
	case StateOverloaded:
		return "overloaded"
	case StateDegraded:
		return "degraded"
	case StateQuarantined:
		return "quarantined"
	}
	return "ok"
}

// State reports the table's current serving health: quarantined and
// degraded are sticky fault states; overloaded means the admission
// queue shed a request within overloadWindow or is nearly full right
// now; everything else is ok.
func (s *Scheduler) State() TableState {
	if s.quarantined.Load() {
		return StateQuarantined
	}
	if s.degraded.Load() {
		return StateDegraded
	}
	s.mu.Lock()
	last := s.lastShed
	s.mu.Unlock()
	if !last.IsZero() && time.Since(last) < overloadWindow {
		return StateOverloaded
	}
	if c := cap(s.tasks); c > 0 && len(s.tasks) >= c-c/10 {
		return StateOverloaded
	}
	return StateOK
}

// loop is the per-table serving goroutine.
func (s *Scheduler) loop() {
	defer close(s.done)
	if s.guard(s.serve) {
		// The serving loop panicked: the table is quarantined. Keep
		// draining the queue with rejections so callers fail fast
		// instead of timing out, until Stop/Drain fires.
		s.rejectUntilQuit()
	}
	if s.guard(s.finalDrain) {
		s.failQueued()
	}
}

// serve is the normal request loop; it returns when quit fires.
func (s *Scheduler) serve() {
	for {
		var first *task
		if s.idleEligible() {
			// Queue empty: spend one budget slice on background
			// refinement, then re-check — the moment a request is
			// queued the next iteration takes the request branch.
			select {
			case first = <-s.tasks:
			case <-s.quit:
				return
			default:
				s.idleSlice()
				continue
			}
		} else {
			select {
			case first = <-s.tasks:
			case <-s.quit:
				return
			}
		}

		batch := s.collect(first)
		s.runBatch(batch)
	}
}

// finalDrain empties the queue after quit. Under Stop, everything
// still queued fails cleanly; under Drain it executes — batched
// through the normal path, so queued appends reach the WAL (and are
// synced) before their acks; on a quarantined table it is rejected
// either way. New admissions race with this drain, but admit also
// watches s.done, which closes strictly after it.
func (s *Scheduler) finalDrain() {
	for {
		select {
		case t := <-s.tasks:
			switch {
			case s.quarantined.Load():
				t.reply <- result{err: ErrQuarantined}
			case s.draining.Load():
				s.runBatch(s.collect(t))
			default:
				t.reply <- result{err: ErrStopped}
			}
		default:
			return
		}
	}
}

// guard runs fn, converting a panic into sticky table quarantine: the
// panic is logged with its stack, every in-flight task that has not
// yet been answered gets ErrQuarantined, and the caller is told so it
// can keep rejecting queued work. Sibling tables' loops are separate
// goroutines and never notice — that is the isolation property.
func (s *Scheduler) guard(fn func()) (panicked bool) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		panicked = true
		s.quarantine(r)
		for _, t := range s.inflight {
			select {
			case t.reply <- result{err: ErrQuarantined}:
			default: // already answered before the panic
			}
		}
		s.inflight = nil
	}()
	fn()
	return false
}

// quarantine makes the table's quarantine sticky after the panic p and
// logs p with the stack of the recovering goroutine.
func (s *Scheduler) quarantine(p any) {
	s.quarantined.Store(true)
	if s.tobs != nil {
		s.tobs.Timeline.Record(obs.EvQuarantine, -1, 0, 0)
	}
	s.reg.Logger().Error("table scheduler panicked; table quarantined",
		slog.String("table", s.table.Name()),
		slog.Any("panic", p),
		slog.String("stack", string(debug.Stack())),
	)
}

// rejectUntilQuit answers queued and future tasks with ErrQuarantined
// until Stop or Drain fires. The loop goroutine must keep consuming
// the queue here: admit's fast-path rejection races with tasks already
// admitted before the panic, and those callers are parked on replies.
func (s *Scheduler) rejectUntilQuit() {
	for {
		select {
		case t := <-s.tasks:
			t.reply <- result{err: ErrQuarantined}
		case <-s.quit:
			return
		}
	}
}

// failQueued is the last-resort flush when even the final drain
// panicked: everything still queued is answered with ErrQuarantined,
// non-blocking, so no caller hangs on a reply that will never come.
func (s *Scheduler) failQueued() {
	for {
		select {
		case t := <-s.tasks:
			select {
			case t.reply <- result{err: ErrQuarantined}:
			default:
			}
		default:
			return
		}
	}
}

// idleEligible reports whether an empty queue should be spent on
// refinement: the table opted in and the index is not yet converged.
// Converged() is a lock-free load once the index finishes, so the
// post-convergence loop parks on the channel with no polling.
func (s *Scheduler) idleEligible() bool {
	return s.idle && !s.idx.Converged()
}

// idleSlice performs one budget-bounded refinement step and records it.
func (s *Scheduler) idleSlice() {
	st, _ := s.idx.RefineStep()
	if s.tobs != nil {
		s.tobs.SliceBudget.Observe(st.WorkSeconds)
	}
	s.noteConvergence()
	s.mu.Lock()
	s.idleSlices++
	s.idleWorkSec += st.WorkSeconds
	s.mu.Unlock()
}

// progressEventEpsilon filters sub-0.1% progress deltas out of the
// timeline, so a long convergence does not evict the structural
// events (seals, claims, checkpoints) from the bounded ring.
const progressEventEpsilon = 1e-3

// noteConvergence publishes progress deltas and phase transitions to
// the table's timeline. Called only from the loop goroutine, so the
// last-seen fields need no lock.
func (s *Scheduler) noteConvergence() {
	if s.tobs == nil {
		return
	}
	p := s.idx.Progress()
	if d := p - s.lastProgress; d >= progressEventEpsilon || -d >= progressEventEpsilon ||
		(p >= 1 && s.lastProgress < 1) {
		s.tobs.Timeline.Record(obs.EvProgress, -1, p, d)
		s.lastProgress = p
	}
	if ph := s.idx.Phase(); ph != s.lastPhase {
		s.tobs.Timeline.Record(obs.EvPhase, -1, float64(ph), float64(s.lastPhase))
		s.lastPhase = ph
	}
}

// collect drains queued tasks behind first into one batch, up to
// maxBatch, without blocking.
func (s *Scheduler) collect(first *task) []*task {
	batch := []*task{first}
	for len(batch) < s.maxBatch {
		select {
		case t := <-s.tasks:
			batch = append(batch, t)
		default:
			return batch
		}
	}
	return batch
}

// runBatch executes a batch through the shared index handle and
// replies to every caller. Ingest tasks apply first, in admission
// order (appended rows are visible to the batch's queries and cost no
// indexing budget); the queries then share one indexing budget
// (ExecuteConjBatch clamps every query but the leader). Replies go out
// only after the whole batch executed, so a caller's next request always
// lands in a later batch.
func (s *Scheduler) runBatch(batch []*task) {
	// Track the batch so a panic inside any of the calls below can
	// fail its unanswered tasks instead of leaving callers parked.
	// Cleared at the bottom, NOT by a defer: a deferred clear would run
	// while the panic unwinds — before guard's recover — and erase the
	// very list the recovery needs to reply to.
	s.inflight = batch
	started := time.Now()
	for _, t := range batch {
		if t.panicTest {
			panic("test-injected scheduler panic")
		}
		if t.trace != nil {
			// The root opened at admission; a closed queue_wait span
			// makes the admission wait visible in the tree.
			sp := t.trace.StartAt(t.trace.Root(), "queue_wait", t.enqueued)
			t.trace.EndAt(sp, started)
		}
	}
	results := make([]result, len(batch))
	var (
		reqIdx     []int // batch positions of the query tasks
		appendIdx  []int // batch positions of successful appends
		nAppends   uint64
		nAppendRow uint64
	)
	degraded := s.degraded.Load()
	for i, t := range batch {
		if !t.isAppend {
			reqIdx = append(reqIdx, i)
			continue
		}
		if degraded {
			// Admitted before the table degraded (or while racing the
			// transition): the WAL cannot promise durability, so the
			// append must not touch the in-memory table either.
			results[i].err = ErrDegraded
			continue
		}
		results[i].err = s.table.Append(t.append)
		results[i].rows = s.table.Len()
		if results[i].err == nil {
			// Only successful ingests count, matching catalog.Info's
			// appends counter — a rejected batch changed nothing.
			nAppends++
			nAppendRow += uint64(len(t.append))
			appendIdx = append(appendIdx, i)
		}
	}
	if nAppends > 0 {
		// Ack-after-WAL: one fsync makes the whole batch's appends
		// durable before any reply goes out (no-op on an ephemeral
		// table or under the always/off policies). If the sync fails,
		// nothing in this batch was promised to disk — every append
		// that thought it succeeded is un-acked. Transient failures are
		// retried with jittered exponential backoff; exhausting the
		// ladder degrades the table to sticky read-only.
		syncStart := time.Now()
		attempts, err := s.syncLogWithRetry()
		syncEnd := time.Now()
		if attempts > 1 {
			s.mu.Lock()
			s.syncRetries += uint64(attempts - 1)
			s.mu.Unlock()
		}
		for _, t := range batch {
			if t.trace != nil {
				// The sync is batch-level work every traced request in
				// the batch waited on, so each trace carries it.
				sp := t.trace.StartAt(t.trace.Root(), "wal_sync", syncStart)
				t.trace.EndAt(sp, syncEnd)
			}
		}
		if err != nil {
			s.degraded.Store(true)
			if s.tobs != nil {
				s.tobs.Timeline.Record(obs.EvDegrade, -1, float64(attempts), 0)
			}
			s.reg.Logger().Error("WAL sync failing persistently; table degraded to read-only",
				slog.String("table", s.table.Name()),
				slog.Int("attempts", attempts),
				slog.Any("error", err),
			)
			for _, i := range appendIdx {
				results[i].err = fmt.Errorf("%w: %v", ErrDegraded, err)
			}
			nAppends, nAppendRow = 0, 0
		}
	}
	if len(reqIdx) > 0 {
		// Deadline clamping: only the batch leader pays the indexing
		// budget, so a deadline only matters for who leads. A query
		// whose remaining headroom cannot absorb the estimated leader
		// slice must not lead — swap an unhurried query to the front,
		// or, when every query is squeezed, run the whole batch with
		// the budget clamped to zero. Answers stay exact either way.
		now := time.Now()
		headroom := time.Duration(s.leadEWMA * float64(time.Second))
		squeezedN, lead := 0, -1
		for k, i := range reqIdx {
			if d := batch[i].deadline; !d.IsZero() && now.Add(headroom).After(d) {
				squeezedN++
			} else if lead == -1 {
				lead = k
			}
		}
		clamp := false
		clampedQueries := 0
		if squeezedN > 0 {
			switch {
			case lead == -1:
				clamp = true
				clampedQueries = squeezedN
			case lead > 0:
				reqIdx[0], reqIdx[lead] = reqIdx[lead], reqIdx[0]
				clampedQueries = squeezedN
			}
			// lead == 0: the natural leader has headroom; squeezed
			// followers run suspended anyway, so nothing to do.
		}
		answers, errs := s.executeQueries(reqIdx, batch, clamp)
		for k, i := range reqIdx {
			results[i].ans, results[i].err = answers[k], errs[k]
		}
		if !clamp && errs[0] == nil {
			// Fold the leader's actual indexing spend into the slice
			// estimate that drives future clamp decisions.
			work := answers[0].Stats.WorkSeconds
			if s.leadEWMA == 0 {
				s.leadEWMA = work
			} else {
				s.leadEWMA += leadEWMAAlpha * (work - s.leadEWMA)
			}
		}
		if clampedQueries > 0 {
			s.mu.Lock()
			s.deadlineClamped += uint64(clampedQueries)
			s.mu.Unlock()
		}
		if s.tobs != nil {
			if errs[0] == nil {
				// The batch leader carries the batch's one indexing
				// budget; followers run with indexing suspended.
				s.tobs.SliceBudget.Observe(answers[0].Stats.WorkSeconds)
			}
			if len(reqIdx) > 1 {
				s.tobs.Timeline.Record(obs.EvSuspend, -1, float64(len(reqIdx)-1), 0)
			}
			if clampedQueries > 0 {
				s.tobs.Timeline.Record(obs.EvDeadlineClamp, -1, float64(clampedQueries), 0)
			}
		}
	}
	finished := time.Now()
	s.noteConvergence()

	s.mu.Lock()
	s.queries += uint64(len(reqIdx))
	s.appends += nAppends
	s.appendRows += nAppendRow
	s.batches++
	if len(batch) > s.maxSeen {
		s.maxSeen = len(batch)
	}
	for _, t := range batch {
		s.recordLatency(finished.Sub(t.enqueued))
	}
	dur := finished.Sub(started).Seconds()
	if s.batchEWMA == 0 {
		s.batchEWMA = dur
	} else {
		s.batchEWMA += batchEWMAAlpha * (dur - s.batchEWMA)
	}
	s.mu.Unlock()

	if s.tobs != nil {
		s.tobs.BatchSize.Observe(float64(len(batch)))
	}
	slow := s.reg.SlowThreshold()
	for i, t := range batch {
		results[i].info = ExecInfo{Batch: len(batch), QueueWait: started.Sub(t.enqueued)}
		s.observeTask(t, &results[i], started, finished, slow)
		t.reply <- results[i]
	}
	s.inflight = nil
}

// syncLogWithRetry flushes the table's WAL, retrying transient
// failures with jittered exponential backoff (1ms, 2ms, 4ms, ... —
// the whole ladder blocks the loop for under ~50ms). It returns the
// number of attempts made and the final error; a non-nil error means
// the retry budget is exhausted and the caller should degrade.
func (s *Scheduler) syncLogWithRetry() (attempts int, err error) {
	backoff := walSyncBackoff
	for attempt := 1; ; attempt++ {
		err = s.table.SyncLog()
		if err == nil || attempt > walSyncRetries {
			return attempt, err
		}
		// Jitter to half-to-full backoff: schedulers for many tables
		// share the disk, and synchronized retry waves would re-collide.
		time.Sleep(backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1)))
		backoff *= 2
	}
}

// executeQueries runs one batch's queries through the table's one batch
// entry point, plain and composite alike, so the one-δ-per-batch
// discipline holds for mixed traffic; a query the table cannot answer —
// a column it lacks — fails alone. Each traced query gets an "execute"
// span that the table's children (the planner's plan span, per-shard
// fan-out, tail scan, merge) attach under via the trace's attach point.
// clamp asks for the zero-budget batch — used when every query's
// deadline is squeezed — and composes with tracing: a clamped traced
// query still returns its span tree, its shards marked suspended.
func (s *Scheduler) executeQueries(reqIdx []int, batch []*task, clamp bool) ([]query.Answer, []error) {
	opts := query.BatchOpts{Clamp: clamp}
	conjs := make([]query.Conjunction, len(reqIdx))
	traced := false
	for k, i := range reqIdx {
		conjs[k] = batch[i].conj
		traced = traced || batch[i].trace != nil
	}
	if traced {
		var spans []obs.SpanID
		opts.Traces, spans = openExecuteSpans(reqIdx, batch)
		defer closeExecuteSpans(opts.Traces, spans)
	}
	return s.idx.ExecuteConjBatch(conjs, opts)
}

// openExecuteSpans starts one "execute" span per traced request and
// sets it as the trace's attach point, so handle-internal children
// (per-shard fan-out, the planner's plan span) nest under it.
func openExecuteSpans(reqIdx []int, batch []*task) ([]*obs.Trace, []obs.SpanID) {
	traces := make([]*obs.Trace, len(reqIdx))
	spans := make([]obs.SpanID, len(reqIdx))
	for k, i := range reqIdx {
		tr := batch[i].trace
		traces[k] = tr
		if tr == nil {
			continue
		}
		sp := tr.Start(tr.Root(), "execute")
		tr.Int(sp, "batch", int64(len(batch)))
		tr.SetAttach(sp)
		spans[k] = sp
	}
	return traces, spans
}

func closeExecuteSpans(traces []*obs.Trace, spans []obs.SpanID) {
	for k, tr := range traces {
		if tr != nil {
			tr.End(spans[k])
		}
	}
}

// observeTask finishes one task's observability work: the
// query-latency histogram, trace finalization into the registry ring,
// the slow-query log line, and a retroactive coarse trace for slow
// queries that were not sampled.
func (s *Scheduler) observeTask(t *task, r *result, started, finished time.Time, slow time.Duration) {
	isQuery := !t.isAppend
	lat := finished.Sub(t.enqueued)
	if isQuery && s.tobs != nil {
		s.tobs.QueryDur.Observe(lat.Seconds())
	}
	if t.trace != nil {
		t.trace.FinishAt(finished)
		if s.reg != nil {
			s.reg.Traces.Add(t.trace)
		}
	}
	if !isQuery || slow <= 0 || lat < slow {
		return
	}
	if t.trace == nil && s.reg != nil {
		// Not sampled: synthesize a coarse trace from the timestamps
		// the loop already had, so /debug/traces still shows the slow
		// query's queue/execute split even with sampling off.
		tr := s.reg.NewRetro(s.table.Name(), t.enqueued)
		sp := tr.StartAt(tr.Root(), "queue_wait", t.enqueued)
		tr.EndAt(sp, started)
		sp = tr.StartAt(tr.Root(), "execute", started)
		tr.EndAt(sp, finished)
		tr.FinishAt(finished)
		s.reg.Traces.Add(tr)
	}
	pred, predKind := t.conj.String(), "conjunction"
	if len(t.conj.Preds) == 1 && t.conj.Preds[0].Col == "" && t.conj.Target == "" {
		// A plain request logs as it always has.
		pred, predKind = t.conj.Preds[0].Pred.String(), t.conj.Preds[0].Pred.Kind.String()
	}
	s.reg.Logger().Warn("slow query",
		slog.String("table", s.table.Name()),
		slog.String("pred", pred),
		slog.String("pred_kind", predKind),
		slog.String("phase", r.ans.Stats.Phase.String()),
		slog.Int("shards_scanned", r.ans.Stats.ShardsScanned),
		slog.Int("shards_pruned", r.ans.Stats.ShardsPruned),
		slog.Int("batch", r.info.Batch),
		slog.Duration("duration", lat),
	)
}

// Metrics is a point-in-time snapshot of a scheduler's counters and
// latency quantiles (microseconds, over the recent window).
type Metrics struct {
	Queries       uint64  `json:"queries"`
	Appends       uint64  `json:"appends"`
	AppendRows    uint64  `json:"append_rows"`
	Batches       uint64  `json:"batches"`
	MaxBatch      int     `json:"max_batch"`
	AvgBatch      float64 `json:"avg_batch"`
	IdleSlices    uint64  `json:"idle_slices"`
	IdleWorkSec   float64 `json:"idle_work_seconds"`
	P50LatencyUs  float64 `json:"p50_latency_us"`
	P99LatencyUs  float64 `json:"p99_latency_us"`
	LatencyWindow int     `json:"latency_window"`

	// Robustness counters (DESIGN.md section 14).
	Sheds           uint64 `json:"sheds"`
	DeadlineClamped uint64 `json:"deadline_clamped"`
	SyncRetries     uint64 `json:"wal_sync_retries"`
	QueueDepth      int    `json:"queue_depth"`
	QueueCap        int    `json:"queue_cap"`
	State           string `json:"state"`
}

// Metrics snapshots the scheduler's counters. The latency quantiles
// are computed over the ring's filled prefix only — a partially filled
// window (fewer requests served than the ring holds) never mixes
// unwritten zero slots into p50/p99.
func (s *Scheduler) Metrics() Metrics {
	s.mu.Lock()
	m := Metrics{
		Queries:       s.queries,
		Appends:       s.appends,
		AppendRows:    s.appendRows,
		Batches:       s.batches,
		MaxBatch:      s.maxSeen,
		IdleSlices:    s.idleSlices,
		IdleWorkSec:   s.idleWorkSec,
		LatencyWindow: s.latLen,

		Sheds:           s.sheds,
		DeadlineClamped: s.deadlineClamped,
		SyncRetries:     s.syncRetries,
		QueueDepth:      len(s.tasks),
		QueueCap:        cap(s.tasks),
	}
	window := make([]time.Duration, s.latLen)
	copy(window, s.lat[:s.latLen])
	s.mu.Unlock()
	m.State = s.State().String()

	if m.Batches > 0 {
		m.AvgBatch = float64(m.Queries+m.Appends) / float64(m.Batches)
	}
	m.P50LatencyUs, m.P99LatencyUs = latencyQuantiles(window)
	return m
}

// latencyQuantiles computes the p50/p99 microsecond quantiles of a
// latency sample (nearest-rank over the sorted window). An empty
// sample reports zeros.
func latencyQuantiles(window []time.Duration) (p50, p99 float64) {
	if len(window) == 0 {
		return 0, 0
	}
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	p50 = float64(window[quantileIndex(len(window), 0.50)]) / float64(time.Microsecond)
	p99 = float64(window[quantileIndex(len(window), 0.99)]) / float64(time.Microsecond)
	return p50, p99
}

// quantileIndex maps a quantile to an index in a sorted sample of n
// (nearest-rank method).
func quantileIndex(n int, q float64) int {
	i := int(q*float64(n)+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}
