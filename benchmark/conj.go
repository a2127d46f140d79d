package main

import (
	"math/rand"
	"runtime"
	"time"

	"repro"
	"repro/internal/catalog"
	"repro/internal/data"
	"repro/internal/query"
	"repro/internal/server"
)

// conj: a three-column table stored FOR-bit-packed, and one query
// shape, b IN [lo, lo + 0.1 % of N] AND c >= N/100 aggregating a (the
// shape BENCH_planner.json measures). The planner, zone-AND pruning,
// the fused scan and scan-on-compressed do the work; the per-column
// progressive indexes are idle because a conjunction never consults
// them.

const conjTable = "conj"

var (
	conjColumns = []string{"a", "b", "c"}
	conjOptions = catalog.Options{Strategy: progidx.StrategyQuicksort, Delta: 0.25,
		Encoding: progidx.EncodingFORBP, Columns: conjColumns}
)

// conjPool is how many distinct queries each client draws; a longer
// window cycles through them. The server has no result cache.
const conjPool = 1 << 13

// conjStream is one client's queries.
type conjStream struct {
	rt     route
	los    []int64
	width  int64
	cmin   int64
	oracle *conjOracle
	conj   query.Conjunction // reused by next
}

func newConjStream(oracle *conjOracle, rows int, seed int64, client int) *conjStream {
	n := int64(rows)
	s := &conjStream{rt: newRoute("/tables/" + conjTable + "/query"), los: make([]int64, conjPool),
		width: max(n/1000, 1), cmin: n / 100, oracle: oracle}
	rng := rand.New(rand.NewSource(seed*7919 + int64(client)))
	for i := range s.los {
		s.los[i] = rng.Int63n(n)
	}
	s.conj = query.Conjunction{Target: "a", Preds: []query.ColPredicate{
		{Col: "b"}, {Col: "c", Pred: progidx.AtLeast(s.cmin)}}}
	return s
}

func (s *conjStream) bounds(i int) (lo, hi int64) {
	lo = s.los[i%len(s.los)]
	return lo, lo + s.width
}

func (s *conjStream) next(i int, o *op) {
	lo, hi := s.bounds(i)
	s.conj.Preds[0].Pred = progidx.Range(lo, hi)
	o.rt, o.isAppend, o.conj = s.rt, false, &s.conj
	o.body = appendConjBody(o.body, lo, hi, s.cmin)
}

func (s *conjStream) want(i int) (sum, count int64) {
	lo, hi := s.bounds(i)
	return s.oracle.agg(lo, hi, s.cmin)
}
func (s *conjStream) acked(int) {}

type conjSetup struct {
	h          *host
	tbl        *catalog.Table
	flat       []int64
	streams    []stream
	heapBefore uint64
	loadTime   time.Duration
}

func setupConj(cfg config, seed int64) (*conjSetup, error) {
	h, err := startHost(server.Config{})
	if err != nil {
		return nil, err
	}
	s := &conjSetup{h: h, heapBefore: heapInUse()}
	s.flat = data.MultiColumn(cfg.conjN, conjCols, seed)
	oracle := newConjOracle(s.flat)
	for c := 0; c < cfg.clients; c++ {
		s.streams = append(s.streams, newConjStream(oracle, cfg.conjN, seed, c))
	}
	if s.tbl, s.loadTime, err = h.load(conjTable, s.flat, conjOptions); err != nil {
		h.close()
		return nil, err
	}
	return s, nil
}

func runConj(cfg config, seed int64, traced bool) (*result, error) {
	res := newResult("conj", seed, traced)
	s, setups, err := repeatSetup(cfg.setupReps, func() (*conjSetup, error) { return setupConj(cfg, seed) },
		func(s *conjSetup) { s.h.close() })
	if err != nil {
		return nil, err
	}
	defer s.h.close()
	if traced {
		return res, traceConj(cfg, s, res)
	}
	res.set("setup_s", median(secondsOf(setups)))

	if _, err := res.measureClosed(s.h.addr, s.streams, cfg.window); err != nil {
		return nil, err
	}

	s.flat, s.streams = nil, nil
	res.set("resident_bytes_per_row", resident(s.heapBefore, cfg.conjN))
	runtime.KeepAlive(s.tbl)
	return res, nil
}

// coldProbes times the first query on cold copies of the table.
func (s *conjSetup) coldProbes(cfg config, res *result) error {
	return coldFirstQueries(s.h, cfg.coldProbes, offsetStream{s.streams[0], conjPool / 2}, res, func(name string) error {
		_, _, err := s.h.load(name, s.flat, conjOptions)
		return err
	})
}
