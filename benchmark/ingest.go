package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro"
	"repro/internal/catalog"
	"repro/internal/durable"
	"repro/internal/server"
	"repro/internal/workload"
)

// ingest: writes beside reads on a sharded, durable table. Each client
// repeats nine queries and one append; one fsync covers a whole
// admission batch, so a slower WAL shows in the appends' latency and in
// the queries' tail alike. It is the only workload in which shard
// zone-map pruning, the pending tail, tail seals, the copy-on-write
// view, checkpoints and recovery run.

const ingestTable = "ingest"

var ingestOptions = catalog.Options{Strategy: progidx.StrategyQuicksort, Delta: 0.25, Shards: 4}

// ingestValues is the position-clustered column cmd/bench's shard suite
// uses: row i holds i give or take N/200, so contiguous row ranges have
// narrow value ranges and shard zone maps prune.
func ingestValues(n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	noise := int64(n/200) + 1
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i) + rng.Int63n(2*noise+1) - noise
	}
	return vals
}

// ingestPool is how many distinct drift queries each client draws; a
// longer window cycles through them.
const ingestPool = 1 << 14

// ingestStream is one client's operations: op i is an append when
// i % 10 == 9, else a query. Appended values are consecutive integers
// from the client's own base, above the loaded domain and apart from
// the other clients', so what the client has had acknowledged is known
// in closed form. One query in ten reads the client's own appended
// range; the others follow the SkyServer drift over the loaded domain.
type ingestStream struct {
	query, app route
	drift      []workload.Query
	oracle     *rangeOracle
	base       int64 // first appended value
	perAppend  int
	sent       int // appends sent
	ackedRows  int64
	probe      *rand.Rand
	lo, hi     int64 // the pending query's bounds, kept for want
}

func newIngestStream(oracle *rangeOracle, rows, perAppend int, seed int64, client int) *ingestStream {
	s := &ingestStream{
		query: newRoute("/tables/" + ingestTable + "/query"), app: newRoute("/tables/" + ingestTable + "/append"),
		oracle: oracle, base: ingestBase(rows, client), perAppend: perAppend,
		drift: workload.SkyServer(int64(rows), seed*31+int64(client)).Queries(ingestPool),
		probe: rand.New(rand.NewSource(seed*131 + int64(client))),
	}
	return s
}

// ingestBase keeps each client's appended run clear of the loaded
// domain (at most rows + rows/200) and of the other clients' runs.
func ingestBase(rows, client int) int64 { return int64(rows) * 4 * int64(client+1) }

func (s *ingestStream) next(i int, o *op) {
	if i%10 == 9 {
		o.rt, o.isAppend, o.rows = s.app, true, s.perAppend
		o.first = s.base + int64(s.sent*s.perAppend)
		o.body = appendRunBody(o.body, o.first, s.perAppend)
		s.sent++
		return
	}
	q := i - i/10 // the client's q-th query
	if q%10 == 5 && s.ackedRows > 0 {
		s.lo = s.base + s.probe.Int63n(s.ackedRows)
		s.hi = s.lo + max(s.ackedRows/50, 1)
	} else {
		d := s.drift[q%len(s.drift)]
		s.lo, s.hi = d.Lo, d.Hi
	}
	o.rt, o.isAppend, o.pred = s.query, false, progidx.Range(s.lo, s.hi)
	o.body = appendRangeBody(o.body, s.lo, s.hi)
}

func (s *ingestStream) want(int) (sum, count int64) {
	if s.lo >= s.base {
		return runAgg(s.base, s.ackedRows, s.lo, s.hi)
	}
	return s.oracle.agg(s.lo, s.hi)
}

func (s *ingestStream) acked(int) { s.ackedRows += int64(s.perAppend) }

type ingestSetup struct {
	h          *host
	store      *durable.Store
	dir        string
	tbl        *catalog.Table
	vals       []int64
	oracle     *rangeOracle
	streams    []*ingestStream
	heapBefore uint64
	loadTime   time.Duration
	// probe is a query over the loaded rows — a quarter of them, in two
	// of the four shards — with its answer: the cold tables' first query,
	// and the recoveries', which run after the oracle has been released.
	probe fixedQuery
}

// openDurable starts a durable server on dir and recovers whatever the
// directory holds.
func openDurable(dir string, snapshotEvery time.Duration) (*host, *durable.Store, error) {
	store, err := durable.Open(dir, durable.SyncBatch)
	if err != nil {
		return nil, nil, fmt.Errorf("open store: %w", err)
	}
	h, err := startHost(server.Config{Store: store, SnapshotInterval: snapshotEvery})
	if err != nil {
		store.Close()
		return nil, nil, err
	}
	warnings, err := h.srv.Recover()
	if err == nil && len(warnings) > 0 {
		err = fmt.Errorf("recover: %v", warnings[0])
	}
	if err != nil {
		h.close()
		return nil, nil, err
	}
	return h, store, nil
}

func setupIngest(cfg config, seed int64) (*ingestSetup, error) {
	dir := filepath.Join(cfg.outDir, fmt.Sprintf("ingest-data-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	// Checkpoints are time-triggered; a third of the window apart puts
	// at least two, and the WAL truncation behind them, inside it.
	h, store, err := openDurable(dir, cfg.window*2/7)
	if err != nil {
		return nil, err
	}
	s := &ingestSetup{h: h, store: store, dir: dir, heapBefore: heapInUse()}
	s.vals = ingestValues(cfg.ingestN, seed)
	s.oracle = newRangeOracle(s.vals)
	s.probe = fixedQuery{lo: int64(cfg.ingestN / 4), hi: int64(cfg.ingestN / 2)}
	s.probe.sum, s.probe.count = s.oracle.agg(s.probe.lo, s.probe.hi)
	for c := 0; c < cfg.clients; c++ {
		s.streams = append(s.streams, newIngestStream(s.oracle, cfg.ingestN, cfg.appendRows, seed, c))
	}
	if s.tbl, s.loadTime, err = h.load(ingestTable, s.vals, ingestOptions); err != nil {
		s.teardown()
		return nil, err
	}
	return s, nil
}

func (s *ingestSetup) teardown() {
	s.h.close()
	os.RemoveAll(s.dir)
}

func (s *ingestSetup) asStreams() []stream {
	out := make([]stream, len(s.streams))
	for i, st := range s.streams {
		out[i] = st
	}
	return out
}

// recoverOnce opens the abandoned data directory on a fresh server and
// returns how long it took until the first verified answer. It then
// checks that every acknowledged row is readable.
func (s *ingestSetup) recoverOnce(res *result) (time.Duration, error) {
	start := time.Now()
	h, _, err := openDurable(s.dir, time.Hour) // no checkpoint: each recovery reads the same bytes
	if err != nil {
		return 0, err
	}
	defer h.close()
	c, err := dial(h.addr)
	if err != nil {
		return 0, err
	}
	defer c.close()
	check := func(lo, hi, wantSum, wantCount int64) error {
		_, err := c.ask(s.streams[0].query.plain, appendRangeBody(nil, lo, hi), wantSum, wantCount)
		if err != nil {
			err = fmt.Errorf("after recovery, [%d, %d]: %w", lo, hi, err)
		}
		res.countOne(err)
		return err
	}
	if err := check(s.probe.lo, s.probe.hi, s.probe.sum, s.probe.count); err != nil {
		return 0, err
	}
	took := time.Since(start)
	for _, st := range s.streams {
		hi := st.base + st.ackedRows - 1
		sum, count := runAgg(st.base, st.ackedRows, st.base, hi)
		// One row past the acknowledged run: an append that was applied
		// but never acknowledged would show here.
		if err := check(st.base, hi+1, sum, count); err != nil {
			return 0, err
		}
	}
	return took, nil
}

func runIngest(cfg config, seed int64, traced bool) (*result, error) {
	res := newResult("ingest", seed, traced)
	s, setups, err := repeatSetup(cfg.setupReps, func() (*ingestSetup, error) { return setupIngest(cfg, seed) },
		(*ingestSetup).teardown)
	if err != nil {
		return nil, err
	}
	defer s.teardown()
	if traced {
		return res, traceIngest(cfg, s, res)
	}
	res.set("setup_s", median(secondsOf(setups)))

	m, err := res.measureClosed(s.h.addr, s.asStreams(), cfg.window)
	if err != nil {
		return nil, err
	}
	appendMetrics(res, m)

	rows := cfg.ingestN
	for _, st := range s.streams {
		rows += int(st.ackedRows)
	}
	s.vals, s.oracle = nil, nil
	for _, st := range s.streams {
		st.oracle, st.drift = nil, nil
	}
	res.set("resident_bytes_per_row", resident(s.heapBefore, rows))
	runtime.KeepAlive(s.tbl)

	// Abandon the server: no drain, no final checkpoint. The process
	// lives on, so the operating system's cache is intact and what the
	// recoveries measure is replay, not durability.
	s.h.close()
	// One recovery, as the check that every acknowledged row survived;
	// the traced run times several.
	took, err := s.recoverOnce(res)
	if err != nil {
		return nil, err
	}
	res.setN("recover_s", took.Seconds(), 1)
	return res, nil
}

// coldProbes times the first query on cold copies of the table.
func (s *ingestSetup) coldProbes(cfg config, res *result) error {
	return coldFirstQueries(s.h, cfg.coldProbes, s.probe, res, func(name string) error {
		_, _, err := s.h.load(name, s.vals, ingestOptions)
		return err
	})
}

func appendMetrics(res *result, m merged) {
	res.setN("append_p50_ms", slicedQuantile(m.appendMs, 0.5), len(m.appendMs))
	res.setN("append_p99_ms", slicedQuantile(m.appendMs, 0.99), len(m.appendMs))
}
