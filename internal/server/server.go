// Package server is the progidx serving layer: an HTTP/JSON front-end
// over a table catalog, with one batching scheduler goroutine per table
// (see scheduler.go) that amortizes indexing work across concurrent
// requests and refines indexes during idle time.
//
// Endpoints:
//
//	GET    /healthz              — liveness
//	POST   /tables               — load a table (inline values or a
//	                               deterministic generator spec)
//	GET    /tables               — list tables
//	GET    /tables/{name}        — one table's info
//	DELETE /tables/{name}        — drop a table (stops its scheduler)
//	POST   /tables/{name}/query  — execute one query
//	POST   /tables/{name}/append — ingest rows at the table's tail
//	GET    /stats                — per-table serving stats (JSON)
//	GET    /metrics              — same data, Prometheus text format
//
// Appends share the query admission queue, so the one-indexing-budget-
// per-batch amortization holds for mixed reader/writer traffic; the
// ingest counters surface in /stats and /metrics.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/column"
	"repro/internal/data"
	"repro/internal/durable"
	"repro/internal/encode"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/shard"
)

// Config tunes the server; the zero value is fully usable.
type Config struct {
	// QueueDepth and MaxBatch configure every table's scheduler (<= 0
	// means the package defaults).
	QueueDepth int
	MaxBatch   int
	// MaxLoadRows caps generator-spec loads to keep one request from
	// exhausting memory (<= 0 means the 100M default).
	MaxLoadRows int
	// Store enables durability: tables persist (WAL + snapshots) into
	// it, /healthz reports starting|recovering until Recover has
	// replayed the on-disk state, and a background checkpoint cadence
	// runs. Nil keeps the server fully in-memory.
	Store *durable.Store
	// SnapshotInterval is the background checkpoint cadence for durable
	// tables (<= 0 means the 30s default). Only meaningful with Store.
	SnapshotInterval time.Duration
	// TraceSample traces one in every N queries at full per-shard
	// fidelity into the /debug/traces ring. 0 disables sampling;
	// ?trace=1 requests and slow queries are always traced.
	TraceSample int
	// SlowQuery is the latency threshold above which a query is logged
	// and retro-traced (0 = the 250ms default, negative = disabled).
	SlowQuery time.Duration
	// DefaultDeadline is applied to queries that carry no ?deadline_ms=
	// of their own (0 = none). A deadline never cancels a query — it
	// clamps the indexing budget so the answer returns promptly at the
	// cost of convergence progress (DESIGN.md section 14).
	DefaultDeadline time.Duration
	// Logger receives slow-query lines; nil means slog.Default().
	Logger *slog.Logger
}

const defaultMaxLoadRows = 100_000_000

// Server owns the catalog and the per-table schedulers.
type Server struct {
	cfg     Config
	catalog *catalog.Catalog
	obs     *obs.Registry
	started time.Time

	mu     sync.Mutex
	scheds map[string]*Scheduler
	closed bool

	// boot is the /healthz lifecycle (durability.go); snapQuit/snapDone
	// bound the background snapshot-cadence goroutine.
	boot     atomic.Int32
	snapQuit chan struct{}
	snapDone chan struct{}
}

// New returns a server with an empty catalog. With Config.Store set the
// catalog is durable and the server reports "starting" until Recover is
// called — start the HTTP listener first if clients should see the boot
// progress, then Recover.
func New(cfg Config) *Server {
	if cfg.MaxLoadRows <= 0 {
		cfg.MaxLoadRows = defaultMaxLoadRows
	}
	s := &Server{
		cfg:     cfg,
		started: time.Now(),
		scheds:  make(map[string]*Scheduler),
	}
	s.obs = obs.NewRegistry(obs.Config{
		SampleEvery: cfg.TraceSample,
		SlowQuery:   cfg.SlowQuery,
		Logger:      cfg.Logger,
	})
	if cfg.Store != nil {
		s.catalog = catalog.NewDurable(cfg.Store)
		s.boot.Store(bootStarting)
		cfg.Store.SetSyncObserver(func(d time.Duration) {
			s.obs.WALSync.Observe(d.Seconds())
		})
	} else {
		s.catalog = catalog.New()
		s.boot.Store(bootReady)
	}
	s.catalog.SetObservability(s.obs)
	return s
}

// Catalog exposes the underlying catalog (tests, preloading).
func (s *Server) Catalog() *catalog.Catalog { return s.catalog }

// errClosed is what Load and Recover return once the server has closed.
var errClosed = errors.New("server: closed")

// Load registers a table and starts its scheduler. It is the
// programmatic twin of POST /tables, used by the daemon's preload flag
// and by tests.
//
// catalog.Load performs an O(N) column scan, so it runs outside the
// server mutex — holding s.mu across it would stall every query on
// every table (handleQuery resolves schedulers under the same mutex).
func (s *Server) Load(name string, values []int64, opts catalog.Options) (*catalog.Table, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errClosed
	}
	s.mu.Unlock()

	t, err := s.catalog.Load(name, values, opts)
	if err != nil {
		return nil, err
	}
	if err := s.register(t); err != nil {
		if err == errClosed {
			s.catalog.Drop(name)
		}
		return nil, err
	}
	return t, nil
}

// register starts t's scheduler and publishes it under the table's name:
// the one way a table Load or Recover has built gets served. Both build
// it outside the server mutex, while the listener already serves
// DELETE /tables/{name}, so there is a window between the catalog
// publish and the map insert in which a Drop finds no scheduler to stop;
// the status re-check after the insert detects that and finishes the
// drop's job, so a dropped table never keeps a loop goroutine, nor a
// scheduler CheckpointAll would drive into its removed WAL.
func (s *Server) register(t *catalog.Table) error {
	name := t.Name()
	sched := newScheduler(t, s.cfg.QueueDepth, s.cfg.MaxBatch, s.obs)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		sched.Stop()
		return errClosed
	}
	s.scheds[name] = sched
	s.mu.Unlock()
	if t.Status() == catalog.StatusDropped {
		// The map guard keeps a same-name re-load's scheduler untouched.
		s.mu.Lock()
		if s.scheds[name] == sched {
			delete(s.scheds, name)
		}
		s.mu.Unlock()
		sched.Stop()
		return fmt.Errorf("server: table %q dropped before its scheduler started", name)
	}
	return nil
}

// Drop removes a table and stops its scheduler, failing queued queries
// with ErrStopped.
func (s *Server) Drop(name string) error {
	s.mu.Lock()
	_, err := s.catalog.Drop(name)
	var sched *Scheduler
	if err == nil {
		sched = s.scheds[name]
		delete(s.scheds, name)
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if sched != nil {
		sched.Stop() // outside the mutex: Stop waits for the loop to drain
	}
	return nil
}

// Scheduler returns the named table's scheduler, if present.
func (s *Server) Scheduler(name string) (*Scheduler, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sched, ok := s.scheds[name]
	return sched, ok
}

// Close stops every scheduler, rejecting queued requests — the hard
// stop, also used by crash tests to simulate dying without a final
// checkpoint (the WAL is closed but no snapshot is taken). For the
// graceful path that drains queues and checkpoints, use Shutdown
// (durability.go). The HTTP handler keeps answering catalog reads but
// fails queries; callers normally shut the listener down first
// (http.Server.Shutdown) and then Close.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	scheds := make([]*Scheduler, 0, len(s.scheds))
	for _, sched := range s.scheds {
		scheds = append(scheds, sched)
	}
	s.scheds = make(map[string]*Scheduler)
	s.mu.Unlock()
	s.stopSnapshotLoop()
	for _, sched := range scheds {
		sched.Stop()
	}
	if s.cfg.Store != nil {
		s.cfg.Store.Close()
	}
}

// Handler returns the HTTP mux for the API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("POST /tables", s.handleLoad)
	mux.HandleFunc("GET /tables", s.handleListTables)
	mux.HandleFunc("GET /tables/{name}", s.handleTableInfo)
	mux.HandleFunc("DELETE /tables/{name}", s.handleDrop)
	mux.HandleFunc("POST /tables/{name}/query", s.handleQuery)
	mux.HandleFunc("POST /tables/{name}/append", s.handleAppend)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	mux.HandleFunc("GET /tables/{name}/debug", s.handleTableDebug)
	return mux
}

// --- wire types ---

// GenerateSpec asks the server to synthesize the column with one of
// the repository's deterministic generators, so clients (and the CI
// smoke test) can regenerate the same data locally for oracle checks.
type GenerateSpec struct {
	// Kind is uniform (default), skewed, or skyserver.
	Kind string `json:"kind,omitempty"`
	N    int    `json:"n"`
	Seed int64  `json:"seed"`
}

// OptionsSpec is the wire form of catalog.Options.
type OptionsSpec struct {
	// Strategy is the paper abbreviation of one of the four progressive
	// algorithms (PQ, PMSD, PB, PLSD); empty means PQ.
	Strategy string  `json:"strategy,omitempty"`
	Delta    float64 `json:"delta,omitempty"`
	BudgetMs float64 `json:"budget_ms,omitempty"`
	Adaptive bool    `json:"adaptive,omitempty"`
	Workers  int     `json:"workers,omitempty"`
	// Shards range-partitions the table (see catalog.Options.Shards);
	// 0 or 1 loads one unsharded index.
	Shards int `json:"shards,omitempty"`
	// IdleRefine overrides the default (on).
	IdleRefine *bool `json:"idle_refine,omitempty"`
	// Encoding selects compressed columnar storage: "auto", "forbp",
	// "dict", or "raw"/empty for the uncompressed default (see
	// catalog.Options.Encoding).
	Encoding string `json:"encoding,omitempty"`
	// Columns names a multi-column schema: values (inline or generated)
	// become flat row-major tuples of len(Columns) values each, queries
	// may carry a predicate list, and the planner picks the driving
	// column (see catalog.Options.Columns). Empty or one name keeps the
	// single-column layout.
	Columns []string `json:"columns,omitempty"`
}

func (o *OptionsSpec) catalogOptions() (catalog.Options, error) {
	opts := catalog.Options{}
	if o == nil {
		return opts, nil
	}
	strat, err := plan.ParseStrategy(o.Strategy)
	if err != nil {
		return opts, err
	}
	enc, err := encode.ParseMode(o.Encoding)
	if err != nil {
		return opts, err
	}
	if o.Delta < 0 || o.Delta > 1 {
		return opts, fmt.Errorf("delta %v outside [0, 1]", o.Delta)
	}
	if o.BudgetMs < 0 {
		return opts, fmt.Errorf("budget_ms %v negative", o.BudgetMs)
	}
	if o.Shards < 0 || o.Shards > maxShards {
		return opts, fmt.Errorf("shards %d outside [0, %d]", o.Shards, maxShards)
	}
	if len(o.Columns) > maxColumns {
		return opts, fmt.Errorf("%d columns exceed the %d-column cap", len(o.Columns), maxColumns)
	}
	opts.Strategy = strat
	opts.Delta = o.Delta
	opts.Budget = time.Duration(o.BudgetMs * float64(time.Millisecond))
	opts.Adaptive = o.Adaptive
	opts.Workers = o.Workers
	opts.Shards = o.Shards
	opts.IdleRefine = o.IdleRefine
	opts.Encoding = enc
	opts.Columns = o.Columns
	return opts, nil
}

// maxShards caps the wire-requested partition count: beyond a few
// thousand shards the per-shard fixed costs dominate any pruning win,
// and an unbounded count is a memory-amplification vector.
const maxShards = 4096

// maxColumns caps a table's schema width: each column carries its own
// progressive index, so width multiplies memory.
const maxColumns = 64

// LoadRequest is the POST /tables body: a name plus either inline
// values or a generator spec.
type LoadRequest struct {
	Name     string        `json:"name"`
	Values   []int64       `json:"values,omitempty"`
	Generate *GenerateSpec `json:"generate,omitempty"`
	Options  *OptionsSpec  `json:"options,omitempty"`
}

// PredSpec is the wire form of a predicate. Range uses lo/hi; point,
// atleast and atmost use value.
type PredSpec struct {
	Kind  string `json:"kind"`
	Lo    *int64 `json:"lo,omitempty"`
	Hi    *int64 `json:"hi,omitempty"`
	Value *int64 `json:"value,omitempty"`
}

func (p PredSpec) predicate() (query.Predicate, error) {
	switch strings.ToLower(p.Kind) {
	case "", "range":
		if p.Lo == nil || p.Hi == nil {
			return query.Predicate{}, fmt.Errorf("range predicate needs lo and hi")
		}
		return query.Range(*p.Lo, *p.Hi), nil
	case "point":
		if p.Value == nil {
			return query.Predicate{}, fmt.Errorf("point predicate needs value")
		}
		return query.Point(*p.Value), nil
	case "atleast", "at-least":
		if p.Value == nil {
			return query.Predicate{}, fmt.Errorf("atleast predicate needs value")
		}
		return query.AtLeast(*p.Value), nil
	case "atmost", "at-most":
		if p.Value == nil {
			return query.Predicate{}, fmt.Errorf("atmost predicate needs value")
		}
		return query.AtMost(*p.Value), nil
	default:
		return query.Predicate{}, fmt.Errorf("unknown predicate kind %q", p.Kind)
	}
}

// parseAggs maps wire aggregate names onto the bitmask; empty means
// the library default (SUM+COUNT).
func parseAggs(names []string) (column.Aggregates, error) {
	var aggs column.Aggregates
	for _, n := range names {
		switch strings.ToLower(n) {
		case "sum":
			aggs |= column.AggSum
		case "count":
			aggs |= column.AggCount
		case "min":
			aggs |= column.AggMin
		case "max":
			aggs |= column.AggMax
		case "avg":
			aggs |= column.AggAvg
		default:
			return 0, fmt.Errorf("unknown aggregate %q", n)
		}
	}
	return aggs, nil
}

// ColPredSpec binds a predicate to a named column for composite
// queries.
type ColPredSpec struct {
	Col string `json:"col"`
	PredSpec
}

// QueryRequest is the POST /tables/{name}/query body. Pred is the v1
// single-predicate form; Predicates (with the optional aggregate
// Target column) is the composite form for multi-column tables —
// every predicate must hold (AND), and the planner picks the driving
// column. Exactly one of the two forms may be used.
type QueryRequest struct {
	Pred       PredSpec      `json:"pred"`
	Aggs       []string      `json:"aggs,omitempty"`
	Predicates []ColPredSpec `json:"predicates,omitempty"`
	Target     string        `json:"target,omitempty"`
}

// AppendRequest is the POST /tables/{name}/append body: Values for
// single-column tables (or pre-flattened tuples), Rows as explicit
// tuples for multi-column tables — each row must have exactly the
// table's column count.
type AppendRequest struct {
	Values []int64   `json:"values,omitempty"`
	Rows   [][]int64 `json:"rows,omitempty"`
}

// AppendResponse acknowledges an ingest: how many rows were appended,
// the table's row count afterwards, and the same serving metadata
// queries carry (the append rode a batch on the admission queue).
type AppendResponse struct {
	Appended    int   `json:"appended"`
	Rows        int   `json:"rows"`
	BatchSize   int   `json:"batch_size"`
	QueueMicros int64 `json:"queue_us"`
}

// StatsJSON is the wire form of the per-query work stats.
type StatsJSON struct {
	Phase       string  `json:"phase"`
	Delta       float64 `json:"delta"`
	WorkSeconds float64 `json:"work_seconds"`
	Workers     int     `json:"workers"`
	// ShardsScanned/ShardsPruned report the shard fan-out (both zero
	// on unsharded tables).
	ShardsScanned int `json:"shards_scanned,omitempty"`
	ShardsPruned  int `json:"shards_pruned,omitempty"`
}

// QueryResponse is the query answer plus serving metadata. Optional
// aggregates are pointers so "absent" and "zero" stay distinguishable.
// queue_us is pure admission wait (time queued before the request's
// batch started executing), not total latency.
type QueryResponse struct {
	Sum         *int64    `json:"sum,omitempty"`
	Count       int64     `json:"count"`
	Min         *int64    `json:"min,omitempty"`
	Max         *int64    `json:"max,omitempty"`
	Avg         *float64  `json:"avg,omitempty"`
	Stats       StatsJSON `json:"stats"`
	BatchSize   int       `json:"batch_size"`
	QueueMicros int64     `json:"queue_us"`
	// Trace is the query's span tree, present only on ?trace=1
	// requests.
	Trace *obs.TraceJSON `json:"trace,omitempty"`
}

func queryResponse(ans query.Answer, info ExecInfo) QueryResponse {
	resp := QueryResponse{
		Count: ans.Count,
		Stats: StatsJSON{
			Phase:         ans.Stats.Phase.String(),
			Delta:         ans.Stats.Delta,
			WorkSeconds:   ans.Stats.WorkSeconds,
			Workers:       ans.Stats.Workers,
			ShardsScanned: ans.Stats.ShardsScanned,
			ShardsPruned:  ans.Stats.ShardsPruned,
		},
		BatchSize:   info.Batch,
		QueueMicros: info.QueueWait.Microseconds(),
	}
	if ans.Aggs.Has(column.AggSum) {
		v := ans.Sum
		resp.Sum = &v
	}
	if v, ok := ans.MinOk(); ok {
		resp.Min = &v
	}
	if v, ok := ans.MaxOk(); ok {
		resp.Max = &v
	}
	if v, ok := ans.AvgOk(); ok {
		resp.Avg = &v
	}
	return resp
}

// TableStats pairs a table's catalog info with its scheduler metrics.
type TableStats struct {
	catalog.Info
	Scheduler Metrics `json:"scheduler"`
}

// StatsResponse is the GET /stats body.
type StatsResponse struct {
	UptimeSeconds float64      `json:"uptime_seconds"`
	Tables        []TableStats `json:"tables"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// --- handlers ---

// ReplayProgress is one table's boot-time WAL replay state, reported
// by /healthz while the server is recovering.
type ReplayProgress struct {
	FramesReplayed uint64 `json:"frames_replayed"`
	TailFrames     uint64 `json:"tail_frames"`
}

// HealthResponse is the /healthz body. Recovery is present only while
// the server replays WALs, keyed by table name. Tables lists only the
// tables whose serving state is not ok (degraded | quarantined |
// overloaded) — an empty/absent map means every table is healthy.
type HealthResponse struct {
	Status   string                    `json:"status"`
	Recovery map[string]ReplayProgress `json:"recovery,omitempty"`
	Tables   map[string]string         `json:"tables,omitempty"`
}

// handleHealthz reports the boot lifecycle: starting|recovering|ready.
// Non-ready states answer 503 so load balancers (and the load
// generator's wait-for-ready poll) hold traffic during boot-time WAL
// replay instead of racing tables that are still loading. While
// recovering, the body carries per-table replay progress (WAL frames
// replayed out of the tail total) instead of a bare 503.
//
// Per-table fault states ride along in Tables but never flip the
// top-level status: a degraded or quarantined table still serves (or
// cleanly rejects) requests, and taking the whole node out of rotation
// for one sick table would hurt its healthy siblings.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	state := s.BootState()
	code := http.StatusOK
	if state != "ready" {
		code = http.StatusServiceUnavailable
	}
	resp := HealthResponse{Status: state}
	if state == "recovering" {
		resp.Recovery = make(map[string]ReplayProgress)
		for _, ot := range s.obs.Tables() {
			done, total := ot.Obs.Timeline.ReplayProgress()
			resp.Recovery[ot.Name] = ReplayProgress{FramesReplayed: done, TailFrames: total}
		}
	}
	s.mu.Lock()
	for name, sched := range s.scheds {
		if st := sched.State(); st != StateOK {
			if resp.Tables == nil {
				resp.Tables = make(map[string]string)
			}
			resp.Tables[name] = st.String()
		}
	}
	s.mu.Unlock()
	writeJSON(w, code, resp)
}

// Request body caps: loads may carry large inline value arrays (the
// row cap still applies after decoding); query bodies are tiny.
const (
	maxLoadBodyBytes  = 256 << 20
	maxQueryBodyBytes = 1 << 20
)

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	var req LoadRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxLoadBodyBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode body: %w", err))
		return
	}
	opts, err := req.Options.catalogOptions()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	values, err := s.loadValues(req, opts.RowWidth())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	t, err := s.Load(req.Name, values, opts)
	if err != nil {
		status := http.StatusBadRequest
		if strings.Contains(err.Error(), "already exists") {
			status = http.StatusConflict
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusCreated, t.Info())
}

// loadValues resolves the table's rows: inline values or a generator
// spec. k is the row width — a multi-column table's inline values are
// flat row-major tuples (k values per row, cap counted in rows), and
// its generator is the correlated MultiColumn set.
func (s *Server) loadValues(req LoadRequest, k int) ([]int64, error) {
	switch {
	case len(req.Values) > 0 && req.Generate != nil:
		return nil, fmt.Errorf("provide either values or generate, not both")
	case len(req.Values) > 0:
		if len(req.Values) > s.cfg.MaxLoadRows*k {
			return nil, fmt.Errorf("%d inline values exceed the %d-row load cap", len(req.Values), s.cfg.MaxLoadRows)
		}
		return req.Values, nil
	case req.Generate != nil:
		g := req.Generate
		if g.N <= 0 || g.N > s.cfg.MaxLoadRows {
			return nil, fmt.Errorf("generate.n %d outside (0, %d]", g.N, s.cfg.MaxLoadRows)
		}
		if k > 1 {
			switch strings.ToLower(g.Kind) {
			case "", "multicol", "correlated":
				return data.MultiColumn(g.N, k, g.Seed), nil
			default:
				return nil, fmt.Errorf("generator kind %q does not produce %d-column rows (use multicol)", g.Kind, k)
			}
		}
		switch strings.ToLower(g.Kind) {
		case "", "uniform":
			return data.Uniform(g.N, g.Seed), nil
		case "skewed":
			return data.Skewed(g.N, g.Seed), nil
		case "skyserver":
			return data.SkyServer(g.N, g.Seed), nil
		default:
			return nil, fmt.Errorf("unknown generator kind %q", g.Kind)
		}
	default:
		return nil, fmt.Errorf("provide values or a generate spec")
	}
}

func (s *Server) handleListTables(w http.ResponseWriter, _ *http.Request) {
	tables := s.catalog.List()
	infos := make([]catalog.Info, len(tables))
	for i, t := range tables {
		infos[i] = t.Info()
	}
	writeJSON(w, http.StatusOK, map[string]any{"tables": infos})
}

func (s *Server) handleTableInfo(w http.ResponseWriter, r *http.Request) {
	t, ok := s.catalog.Get(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("table %q not found", r.PathValue("name")))
		return
	}
	writeJSON(w, http.StatusOK, t.Info())
}

func (s *Server) handleDrop(w http.ResponseWriter, r *http.Request) {
	if err := s.Drop(r.PathValue("name")); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	sched, ok := s.Scheduler(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("table %q not found", name))
		return
	}
	var qreq QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBodyBytes)).Decode(&qreq); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode body: %w", err))
		return
	}
	c, err := qreq.conjunction()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var params url.Values
	if r.URL.RawQuery != "" {
		params = r.URL.Query()
	}
	deadline, derr := s.queryDeadline(params)
	if derr != nil {
		writeError(w, http.StatusBadRequest, derr)
		return
	}
	ans, info, trace, err := sched.ExecuteConj(r.Context(), c, deadline, params.Get("trace") == "1")
	if err != nil {
		s.writeSchedError(w, r, sched, name, err)
		return
	}
	if trace != nil {
		resp := queryResponse(ans, info)
		resp.Trace = trace.Tree()
		writeJSON(w, http.StatusOK, resp)
		return
	}
	out := answerPool.Get().(*[]byte)
	*out = appendAnswer((*out)[:0], ans, info)
	w.Header()["Content-Type"] = jsonContentType
	w.Write(*out)
	answerPool.Put(out)
}

var jsonContentType = []string{"application/json"}

// conjunction is the query q asks: a predicate list (possibly empty,
// aggregating the whole Target column), or the single pred, which
// addresses the unnamed first column. The two are mutually exclusive.
func (q *QueryRequest) conjunction() (query.Conjunction, error) {
	aggs, err := parseAggs(q.Aggs)
	if err != nil {
		return query.Conjunction{}, err
	}
	c := query.Conjunction{Target: q.Target, Aggs: aggs}
	if len(q.Predicates) == 0 && q.Target == "" {
		pred, err := q.Pred.predicate()
		if err != nil {
			return query.Conjunction{}, err
		}
		c.Preds = []query.ColPredicate{{Pred: pred}}
		return c, nil
	}
	if q.Pred.Kind != "" || q.Pred.Lo != nil || q.Pred.Hi != nil || q.Pred.Value != nil {
		return query.Conjunction{}, fmt.Errorf("provide pred or predicates, not both")
	}
	for _, ps := range q.Predicates {
		p, err := ps.predicate()
		if err != nil {
			return query.Conjunction{}, fmt.Errorf("predicate on column %q: %w", ps.Col, err)
		}
		c.Preds = append(c.Preds, query.ColPredicate{Col: ps.Col, Pred: p})
	}
	return c, c.Validate()
}

// queryDeadline resolves one query's answer-by time: ?deadline_ms=
// wins, Config.DefaultDeadline covers the rest, zero means none.
func (s *Server) queryDeadline(params url.Values) (time.Time, error) {
	if ms := params.Get("deadline_ms"); ms != "" {
		n, err := strconv.ParseInt(ms, 10, 64)
		if err != nil || n <= 0 {
			return time.Time{}, fmt.Errorf("deadline_ms must be a positive integer, got %q", ms)
		}
		return time.Now().Add(time.Duration(n) * time.Millisecond), nil
	}
	if s.cfg.DefaultDeadline > 0 {
		return time.Now().Add(s.cfg.DefaultDeadline), nil
	}
	return time.Time{}, nil
}

// writeSchedError maps a scheduler failure onto HTTP: full queue →
// 429 with a Retry-After derived from the observed batch latency and
// queue depth; degraded/quarantined → 503 (the client cannot fix it
// by retrying soon, but the node as a whole is still up); dropped →
// 410; client gone → 499; anything else is the request's own fault.
func (s *Server) writeSchedError(w http.ResponseWriter, r *http.Request, sched *Scheduler, name string, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		retry := sched.RetryAfter()
		w.Header().Set("Retry-After", strconv.FormatInt(int64((retry+time.Second-1)/time.Second), 10))
		writeError(w, http.StatusTooManyRequests, fmt.Errorf("table %q overloaded: %w", name, err))
	case errors.Is(err, ErrDegraded), errors.Is(err, ErrQuarantined):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrStopped):
		writeError(w, http.StatusGone, fmt.Errorf("table %q dropped", name))
	case r.Context().Err() != nil:
		// Client went away; best effort.
		writeError(w, statusClientClosedRequest, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	sched, ok := s.Scheduler(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("table %q not found", name))
		return
	}
	var areq AppendRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxLoadBodyBytes)).Decode(&areq); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode body: %w", err))
		return
	}
	k := sched.table.RowWidth()
	values := areq.Values
	if len(areq.Rows) > 0 {
		if len(areq.Values) > 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("provide values or rows, not both"))
			return
		}
		values = make([]int64, 0, len(areq.Rows)*k)
		for ri, row := range areq.Rows {
			if len(row) != k {
				writeError(w, http.StatusBadRequest, fmt.Errorf("row %d has %d values, table expects %d", ri, len(row), k))
				return
			}
			values = append(values, row...)
		}
	}
	if len(values) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("append needs at least one value"))
		return
	}
	if len(values)%k != 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%d values are not a multiple of the table's row width %d", len(values), k))
		return
	}
	if len(values) > s.cfg.MaxLoadRows*k {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%d rows exceed the %d-row append cap", len(values)/k, s.cfg.MaxLoadRows))
		return
	}

	rows, info, err := sched.Append(r.Context(), values)
	if err != nil {
		s.writeSchedError(w, r, sched, name, err)
		return
	}
	writeJSON(w, http.StatusOK, AppendResponse{
		Appended:    len(values) / k,
		Rows:        rows,
		BatchSize:   info.Batch,
		QueueMicros: info.QueueWait.Microseconds(),
	})
}

// statusClientClosedRequest is nginx's non-standard 499.
const statusClientClosedRequest = 499

func (s *Server) tableStats() []TableStats {
	tables := s.catalog.List()
	out := make([]TableStats, 0, len(tables))
	for _, t := range tables {
		ts := TableStats{Info: t.Info()}
		if sched, ok := s.Scheduler(t.Name()); ok {
			ts.Scheduler = sched.Metrics()
		}
		out = append(out, ts)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// handleTraces returns the registry's retained traces (sampled,
// ?trace=1 and slow-query retro traces), newest first, as nested span
// trees.
func (s *Server) handleTraces(w http.ResponseWriter, _ *http.Request) {
	traces := s.obs.Traces.Snapshot()
	out := make([]*obs.TraceJSON, len(traces))
	for i, tr := range traces {
		out[i] = tr.Tree()
	}
	writeJSON(w, http.StatusOK, map[string]any{"traces": out})
}

// ShardDebug is one shard's deep-inspection state: the shard layer's
// Info plus this shard's share of the table's total access heat.
type ShardDebug struct {
	ID int `json:"id"`
	shard.Info
	// HeatShare is this shard's fraction of the table's total heat —
	// the weight the budget split gives it at query time.
	HeatShare float64 `json:"heat_share"`
}

// TableDebug is the GET /tables/{name}/debug body: the table's info,
// per-shard state, scheduler metrics, the convergence-timeline event
// ring, and (when relevant) boot-time replay progress.
type TableDebug struct {
	catalog.Info
	Scheduler Metrics      `json:"scheduler"`
	ShardInfo []ShardDebug `json:"shard_state,omitempty"`
	// ColumnState is the per-column index state of a multi-column
	// table: heat, refinement slices, convergence, block/encoding
	// counts, and each column's own convergence-timeline events.
	ColumnState []plan.ColumnState `json:"column_state,omitempty"`
	Events      []obs.EventJSON    `json:"events"`
	Replay      *ReplayProgress    `json:"replay,omitempty"`
}

// handleTableDebug is the deep-inspection surface for one table.
func (s *Server) handleTableDebug(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	t, ok := s.catalog.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("table %q not found", name))
		return
	}
	resp := TableDebug{Info: t.Info()}
	if sched, ok := s.Scheduler(name); ok {
		resp.Scheduler = sched.Metrics()
	}
	if infos, ok := t.ShardStats(); ok {
		var totalHeat uint64
		for _, si := range infos {
			totalHeat += si.Heat
		}
		resp.ShardInfo = make([]ShardDebug, len(infos))
		for i, si := range infos {
			sd := ShardDebug{ID: i, Info: si}
			if totalHeat > 0 {
				sd.HeatShare = float64(si.Heat) / float64(totalHeat)
			}
			resp.ShardInfo[i] = sd
		}
	}
	if pt, ok := t.Planned(); ok {
		resp.ColumnState = pt.ColumnStates()
	}
	if tobs := t.Obs(); tobs != nil {
		events := tobs.Timeline.Snapshot()
		resp.Events = make([]obs.EventJSON, len(events))
		for i, e := range events {
			resp.Events[i] = e.JSON()
		}
		if done, total := tobs.Timeline.ReplayProgress(); total > 0 {
			resp.Replay = &ReplayProgress{FramesReplayed: done, TailFrames: total}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, StatsResponse{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Tables:        s.tableStats(),
	})
}

// handleMetrics renders the same stats in the Prometheus text
// exposition format, one gauge/counter family per line group.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	stats := s.tableStats()
	writeFamily := func(name, kind, help string, value func(TableStats) (float64, bool)) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
		for _, ts := range stats {
			v, ok := value(ts)
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "%s{table=%q} %g\n", name, ts.Name, v)
		}
	}
	writeFamily("progidx_table_rows", "gauge", "Rows in the table.",
		func(ts TableStats) (float64, bool) { return float64(ts.Rows), true })
	writeFamily("progidx_table_shards", "gauge", "Index shards backing the table (1 = unsharded).",
		func(ts TableStats) (float64, bool) { return float64(ts.Shards), true })
	writeFamily("progidx_table_columns", "gauge", "Columns in the table's schema (1 = single-column).",
		func(ts TableStats) (float64, bool) {
			if len(ts.Columns) > 1 {
				return float64(len(ts.Columns)), true
			}
			return 1, true
		})
	writeFamily("progidx_table_convergence", "gauge", "Index convergence fraction in [0,1].",
		func(ts TableStats) (float64, bool) { return ts.Progress, true })
	writeFamily("progidx_table_converged", "gauge", "1 once the index reached its terminal state.",
		func(ts TableStats) (float64, bool) {
			if ts.Converged {
				return 1, true
			}
			return 0, true
		})
	writeFamily("progidx_table_pending_rows", "gauge", "Appended rows not yet absorbed into an index shard.",
		func(ts TableStats) (float64, bool) { return float64(ts.PendingRows), true })
	writeFamily("progidx_table_queries_total", "counter", "Queries served.",
		func(ts TableStats) (float64, bool) { return float64(ts.Scheduler.Queries), true })
	writeFamily("progidx_table_appends_total", "counter", "Append batches ingested.",
		func(ts TableStats) (float64, bool) { return float64(ts.Scheduler.Appends), true })
	writeFamily("progidx_table_append_rows_total", "counter", "Rows ingested through appends.",
		func(ts TableStats) (float64, bool) { return float64(ts.Scheduler.AppendRows), true })
	writeFamily("progidx_table_batches_total", "counter", "Batches executed.",
		func(ts TableStats) (float64, bool) { return float64(ts.Scheduler.Batches), true })
	writeFamily("progidx_table_idle_slices_total", "counter", "Idle-time refinement slices performed.",
		func(ts TableStats) (float64, bool) { return float64(ts.Scheduler.IdleSlices), true })
	writeFamily("progidx_table_state", "gauge", "Serving state: 0 ok, 1 overloaded, 2 degraded, 3 quarantined.",
		func(ts TableStats) (float64, bool) {
			switch ts.Scheduler.State {
			case "overloaded":
				return float64(StateOverloaded), true
			case "degraded":
				return float64(StateDegraded), true
			case "quarantined":
				return float64(StateQuarantined), true
			}
			return float64(StateOK), true
		})
	writeFamily("progidx_table_sheds_total", "counter", "Requests shed at admission with HTTP 429.",
		func(ts TableStats) (float64, bool) { return float64(ts.Scheduler.Sheds), true })
	writeFamily("progidx_table_deadline_clamped_total", "counter", "Queries whose indexing budget a deadline clamped.",
		func(ts TableStats) (float64, bool) { return float64(ts.Scheduler.DeadlineClamped), true })
	writeFamily("progidx_table_wal_sync_retries_total", "counter", "WAL sync attempts beyond each batch's first.",
		func(ts TableStats) (float64, bool) { return float64(ts.Scheduler.SyncRetries), true })
	writeFamily("progidx_table_queue_depth", "gauge", "Requests waiting in the admission queue.",
		func(ts TableStats) (float64, bool) { return float64(ts.Scheduler.QueueDepth), true })
	writeFamily("progidx_table_latency_p50_seconds", "gauge", "p50 request latency over the recent window.",
		func(ts TableStats) (float64, bool) {
			return ts.Scheduler.P50LatencyUs / 1e6, ts.Scheduler.LatencyWindow > 0
		})
	writeFamily("progidx_table_latency_p99_seconds", "gauge", "p99 request latency over the recent window.",
		func(ts TableStats) (float64, bool) {
			return ts.Scheduler.P99LatencyUs / 1e6, ts.Scheduler.LatencyWindow > 0
		})
	writeFamily("progidx_table_wal_seq", "gauge", "Sequence number of the newest WAL frame.",
		func(ts TableStats) (float64, bool) {
			if ts.Durability == nil {
				return 0, false
			}
			return float64(ts.Durability.WALSeq), true
		})
	writeFamily("progidx_table_wal_covered_seq", "gauge", "WAL sequence covered by the newest snapshot.",
		func(ts TableStats) (float64, bool) {
			if ts.Durability == nil {
				return 0, false
			}
			return float64(ts.Durability.CoveredSeq), true
		})
	writeFamily("progidx_table_wal_tail_frames", "gauge", "WAL frames a crash right now would replay.",
		func(ts TableStats) (float64, bool) {
			if ts.Durability == nil {
				return 0, false
			}
			return float64(ts.Durability.TailFrames), true
		})
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		for _, c := range []struct {
			name, help string
			v          uint64
		}{
			{"progidx_wal_frames_total", "WAL frames appended across all tables.", st.Frames},
			{"progidx_wal_syncs_total", "WAL fsync calls issued.", st.Syncs},
			{"progidx_snapshots_total", "Snapshot files written.", st.Snapshots},
		} {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.v)
		}
	}
	// Real histogram families, observed on the serving hot path with
	// atomic adds (internal/obs): cumulative le buckets, _sum, _count.
	obsTables := s.obs.Tables()
	writeHistFamily := func(name, help string, pick func(*obs.Table) *obs.Histogram) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
		for _, ot := range obsTables {
			pick(ot.Obs).Expose(&b, name, fmt.Sprintf("table=%q", ot.Name))
		}
	}
	writeHistFamily("progidx_query_duration_seconds",
		"End-to-end query latency (admission to reply).",
		func(t *obs.Table) *obs.Histogram { return t.QueryDur })
	writeHistFamily("progidx_batch_size",
		"Tasks coalesced into one scheduler batch.",
		func(t *obs.Table) *obs.Histogram { return t.BatchSize })
	writeHistFamily("progidx_slice_budget_spent",
		"Indexing budget spent per slice, in cost-model seconds.",
		func(t *obs.Table) *obs.Histogram { return t.SliceBudget })
	if s.cfg.Store != nil {
		fmt.Fprintf(&b, "# HELP progidx_wal_sync_seconds WAL fsync latency.\n# TYPE progidx_wal_sync_seconds histogram\n")
		s.obs.WALSync.Expose(&b, "progidx_wal_sync_seconds", "")
	}
	w.Write([]byte(b.String()))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
