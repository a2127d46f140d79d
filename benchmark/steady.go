package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro"
	"repro/internal/catalog"
	"repro/internal/data"
	"repro/internal/server"
)

// steady: a converged single-column table under point and narrow range
// queries. Index work is about a microsecond, so JSON, net/http, the
// admission queue and batching are nearly all of the latency — the
// opposite split to converge. A closed loop gives capacity; an open
// loop at two fixed rates gives the latency independent analysts see,
// counted from each request's due time.

const steadyTable = "steady"

// steadyStream is stateless — operation i is a pure function of i — so
// the open loop's connections share one.
type steadyStream struct {
	rt    route
	width int64 // range width: 0.01 % of the domain
	los   []int64
	// The pool's answers, worked out in set-up: two binary searches of a
	// 4M-row oracle per check are a tenth of this workload's latency.
	wantSum, wantCnt []int64
}

// steadyPool is how many distinct queries are drawn; a window longer
// than the pool cycles through it. The server has no result cache.
const steadyPool = 1 << 17

func newSteadyStream(vals []int64, seed int64) *steadyStream {
	n := int64(len(vals))
	s := &steadyStream{rt: newRoute("/tables/" + steadyTable + "/query"), width: max(n/10000, 1),
		los: make([]int64, steadyPool), wantSum: make([]int64, steadyPool), wantCnt: make([]int64, steadyPool)}
	oracle := newRangeOracle(vals)
	rng := rand.New(rand.NewSource(seed))
	for i := range s.los {
		s.los[i] = rng.Int63n(n)
		s.wantSum[i], s.wantCnt[i] = oracle.agg(s.bounds(i))
	}
	return s
}

// Even operations are point queries, odd ones ranges; the pool's size
// is even, so a pool entry is always asked the same way.
func (s *steadyStream) bounds(i int) (lo, hi int64) {
	lo = s.los[i%len(s.los)]
	if i%2 == 0 {
		return lo, lo
	}
	return lo, lo + s.width - 1
}

func (s *steadyStream) next(i int, o *op) {
	lo, hi := s.bounds(i)
	o.rt, o.isAppend = s.rt, false
	o.pred = progidx.Range(lo, hi)
	if i%2 == 0 {
		o.pred = progidx.Point(lo)
		o.body = appendPointBody(o.body, lo)
		return
	}
	o.body = appendRangeBody(o.body, lo, hi)
}

func (s *steadyStream) want(i int) (sum, count int64) {
	return s.wantSum[i%len(s.los)], s.wantCnt[i%len(s.los)]
}
func (s *steadyStream) acked(int) {}

var steadyOptions = catalog.Options{Strategy: progidx.StrategyQuicksort, Delta: 0.25, IdleRefine: boolPtr(false)}

// steadySetup is one set-up: data, oracle, load, and driving the index
// to convergence.
type steadySetup struct {
	h          *host
	tbl        *catalog.Table
	st         *steadyStream
	vals       []int64
	heapBefore uint64
	loadTime   time.Duration
}

func setupSteady(cfg config, seed int64) (*steadySetup, error) {
	h, err := startHost(server.Config{})
	if err != nil {
		return nil, err
	}
	s := &steadySetup{h: h, heapBefore: heapInUse()}
	s.vals = data.Uniform(cfg.steadyN, seed)
	s.st = newSteadyStream(s.vals, seed)
	if s.tbl, s.loadTime, err = h.load(steadyTable, s.vals, steadyOptions); err != nil {
		h.close()
		return nil, err
	}
	for idx := s.tbl.Index(); !idx.Converged(); {
		idx.RefineStep()
	}
	return s, nil
}

func runSteady(cfg config, seed int64, traced bool) (*result, error) {
	res := newResult("steady", seed, traced)
	s, setups, err := repeatSetup(cfg.setupReps, func() (*steadySetup, error) { return setupSteady(cfg, seed) },
		func(s *steadySetup) { s.h.close() })
	if err != nil {
		return nil, err
	}
	defer s.h.close()
	if !s.tbl.Index().Converged() {
		return nil, fmt.Errorf("steady: table not converged after set-up")
	}
	if traced {
		return res, traceSteady(cfg, s, res)
	}
	res.set("setup_s", median(secondsOf(setups)))

	// The gated numbers come from the closed loop alone. On this box an
	// open loop's latency at a fifth of capacity is mostly how long an
	// idle virtual CPU takes to wake, which no bound holds; the traced
	// run reports it.
	if _, err := res.measureClosed(s.h.addr, s.clientStreams(cfg), cfg.window); err != nil {
		return nil, err
	}

	s.vals, s.st = nil, nil
	res.set("resident_bytes_per_row", resident(s.heapBefore, cfg.steadyN))
	runtime.KeepAlive(s.tbl)
	return res, nil
}

// coldProbes times the first query on cold copies of the table.
func (s *steadySetup) coldProbes(cfg config, res *result) error {
	return coldFirstQueries(s.h, cfg.coldProbes, s.st, res, func(name string) error {
		_, _, err := s.h.load(name, s.vals, steadyOptions)
		return err
	})
}

// clientStreams gives each closed-loop client its own part of the pool.
func (s *steadySetup) clientStreams(cfg config) []stream {
	streams := make([]stream, cfg.clients)
	for i := range streams {
		streams[i] = offsetStream{s.st, i * steadyPool / cfg.clients}
	}
	return streams
}

// offsetStream starts a stateless stream at another position, so that
// concurrent clients and successive phases do not send the same
// queries.
type offsetStream struct {
	stream
	off int
}

func (s offsetStream) next(i int, o *op)             { s.stream.next(i+s.off, o) }
func (s offsetStream) want(i int) (sum, count int64) { return s.stream.want(i + s.off) }
