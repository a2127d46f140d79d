package main

import (
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/catalog"
	"repro/internal/data"
	"repro/internal/server"
	"repro/internal/workload"
)

// converge: the paper's experiment, served. One analyst's session — one
// closed-loop client — sends the same random 0.1-selectivity range
// queries to a fresh cold table, once per strategy in turn. Creation,
// refinement and column scans are nearly all of every query until the
// index converges; HTTP and the scheduler are noise, and shards,
// planner and WAL are not on the path. δ is fixed and idle refinement
// is off, so the work per query, and the number of queries to
// convergence, repeat exactly.

const convergeTable = "converge"

var convergeStrategies = []progidx.Strategy{
	progidx.StrategyQuicksort, progidx.StrategyRadixMSD, progidx.StrategyBucketsort, progidx.StrategyRadixLSD,
}

func convergeOptions(s progidx.Strategy) catalog.Options {
	return catalog.Options{Strategy: s, Delta: 0.25, IdleRefine: boolPtr(false)}
}

// convergeStream is an episode's fixed query list, encoded and answered
// in set-up.
type convergeStream struct {
	rt      route
	preds   []progidx.Predicate
	bodies  [][]byte
	wantSum []int64
	wantCnt []int64
}

func newConvergeStream(vals []int64, queries int, seed int64) *convergeStream {
	oracle := newRangeOracle(vals)
	s := &convergeStream{rt: newRoute("/tables/" + convergeTable + "/query")}
	for _, q := range workload.Random(int64(len(vals)), seed).Queries(queries) {
		sum, count := oracle.agg(q.Lo, q.Hi)
		s.preds = append(s.preds, progidx.Range(q.Lo, q.Hi))
		s.bodies = append(s.bodies, appendRangeBody(nil, q.Lo, q.Hi))
		s.wantSum, s.wantCnt = append(s.wantSum, sum), append(s.wantCnt, count)
	}
	return s
}

func (s *convergeStream) next(i int, o *op) {
	o.rt, o.isAppend, o.pred = s.rt, false, s.preds[i]
	o.body = append(o.body, s.bodies[i]...)
}
func (s *convergeStream) want(i int) (sum, count int64) { return s.wantSum[i], s.wantCnt[i] }
func (s *convergeStream) acked(int)                     {}

type convergeSetup struct {
	h          *host
	vals       []int64
	st         *convergeStream
	heapBefore uint64
	loadTime   time.Duration
}

// setupConverge generates the column, answers the queries and loads
// one cold table, which the first episode then uses.
func setupConverge(cfg config, seed int64) (*convergeSetup, error) {
	h, err := startHost(server.Config{})
	if err != nil {
		return nil, err
	}
	s := &convergeSetup{h: h, heapBefore: heapInUse()}
	s.vals = data.Uniform(cfg.convergeN, seed)
	s.st = newConvergeStream(s.vals, cfg.episodeQueries, seed)
	if _, s.loadTime, err = h.load(convergeTable, s.vals, convergeOptions(convergeStrategies[0])); err != nil {
		h.close()
		return nil, err
	}
	return s, nil
}

// episode is one strategy's run from a cold table.
type episode struct {
	latMs       []float64     // every query, in order
	convergedAt int           // queries sent when the index first reported converged; 0 if it never did
	convergeT   time.Duration // first query sent → the response after which it had converged
	log         clientLog
}

// window is the convergence window: query 1 to the query that converged
// the index (all of them if none did).
func (e *episode) window() []float64 {
	if e.convergedAt == 0 {
		return e.latMs
	}
	return e.latMs[:e.convergedAt]
}

// runEpisode sends the stream's queries to the loaded table tbl over cl,
// one at a time, watching for convergence between them.
func runEpisode(cl *client, tbl *catalog.Table, queries int) episode {
	cl.log = clientLog{}
	cl.start = time.Now()
	var e episode
	idx := tbl.Index()
	for i := 0; i < queries; i++ {
		cl.step(i, time.Time{})
		if e.convergedAt == 0 && idx.Converged() {
			e.convergedAt = i + 1
			e.convergeT = time.Since(cl.start)
		}
	}
	for _, s := range cl.log.queries {
		e.latMs = append(e.latMs, ms(s.lat))
	}
	e.log = cl.log
	return e
}

// round is one episode per strategy, in convergeStrategies order.
type round []episode

// runRound runs the four episodes. The first finds its table loaded
// (by set-up or by the previous round); each later one drops the table
// and loads the next strategy's. It leaves PLSD's table loaded.
func runRound(cfg config, s *convergeSetup, cl *client, res *result) (round, error) {
	var r round
	for i, strat := range convergeStrategies {
		if i > 0 {
			if err := s.h.srv.Drop(convergeTable); err != nil {
				return nil, err
			}
			if _, _, err := s.h.load(convergeTable, s.vals, convergeOptions(strat)); err != nil {
				return nil, err
			}
		}
		tbl, ok := s.h.srv.Catalog().Get(convergeTable)
		if !ok {
			return nil, fmt.Errorf("converge: table not loaded")
		}
		e := runEpisode(cl, tbl, cfg.episodeQueries)
		res.count(merge([]*clientLog{&e.log}))
		if len(e.latMs) != cfg.episodeQueries {
			return nil, fmt.Errorf("converge: %v episode answered %d of %d queries: %v", strat, len(e.latMs), cfg.episodeQueries, e.log.firstErr)
		}
		r = append(r, e)
	}
	return r, nil
}

// reload puts a cold table of the first strategy back for the next
// round.
func (s *convergeSetup) reload() error {
	if err := s.h.srv.Drop(convergeTable); err != nil {
		return err
	}
	_, _, err := s.h.load(convergeTable, s.vals, convergeOptions(convergeStrategies[0]))
	return err
}

// perRound reduces each round to the mean of f over its episodes.
func perRound(rounds []round, f func(*episode) float64) []float64 {
	out := make([]float64, len(rounds))
	for i, r := range rounds {
		for j := range r {
			out[i] += f(&r[j]) / float64(len(r))
		}
	}
	return out
}

func runConverge(cfg config, seed int64, traced bool) (*result, error) {
	res := newResult("converge", seed, traced)
	s, setups, err := repeatSetup(cfg.setupReps, func() (*convergeSetup, error) { return setupConverge(cfg, seed) },
		func(s *convergeSetup) { s.h.close() })
	if err != nil {
		return nil, err
	}
	defer s.h.close()
	if traced {
		return res, traceConverge(cfg, s, res)
	}
	res.set("setup_s", median(secondsOf(setups)))

	cl, err := newClient(s.h.addr, s.st, time.Now(), nil)
	if err != nil {
		return nil, err
	}
	defer cl.c.close()

	// One unmeasured round first: the process's first episodes pay for
	// page faults and a cold heap that no later one does.
	if _, err := runRound(cfg, s, cl, res); err != nil {
		return nil, err
	}
	var rounds []round
	before := readUsage()
	for start := time.Now(); time.Since(start) < cfg.window || len(rounds) < 3; {
		if err := s.reload(); err != nil {
			return nil, err
		}
		r, err := runRound(cfg, s, cl, res)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
	}
	after := readUsage()

	var windowMs []float64
	queries := 0
	for _, r := range rounds {
		for i := range r {
			e := &r[i]
			if e.convergedAt == 0 {
				return nil, fmt.Errorf("converge: %v did not converge within %d queries", convergeStrategies[i], cfg.episodeQueries)
			}
			windowMs = append(windowMs, e.window()...)
			queries += len(e.latMs)
		}
	}
	res.setN("query_p50_ms", median(windowMs), len(windowMs))
	res.setN("query_p99_ms", quantile(sortedCopy(windowMs), 0.99), len(windowMs))
	// Per round, then the median over rounds: a round that a noisy
	// neighbour slowed does not set the number.
	rates := make([]float64, len(rounds))
	for i, r := range rounds {
		var sent, took float64
		for j := range r {
			sent, took = sent+float64(len(r[j].latMs)), took+cumulative(&r[j])
		}
		rates[i] = sent / took
	}
	res.setN("throughput_qps", median(rates), len(rounds))
	res.set("cpu_ms_per_op", ms(after.cpu-before.cpu)/float64(queries))
	convergeMetrics(res, rounds)

	s.vals, s.st, cl.st = nil, nil, nil
	res.set("resident_bytes_per_row", resident(s.heapBefore, cfg.convergeN))
	runtime.KeepAlive(s.h)
	return res, nil
}
