package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/catalog"
	"repro/internal/durable"
	"repro/internal/encode"
	"repro/internal/server"
)

// A traced run (--trace 1) reports the per-layer metrics. It measures
// less per phase than an untraced run and is never compared against a
// bound: it says where the time of an end-to-end number goes. Each
// workload runs, on the table its set-up loaded, an untraced window
// (counters, and the workload's own metrics that are not gated), then
// a window with ?trace=1 on every request (spans), then the boundary
// replay (the layers that emit no span).

// runtimeMetrics reports what the process spent per operation between
// two usage readings.
func runtimeMetrics(res *result, before, after usage, ops int) {
	n := float64(max(ops, 1))
	res.set("runtime.allocs_per_op", float64(after.mallocs-before.mallocs)/n)
	res.set("runtime.alloc_bytes_per_op", float64(after.bytes-before.bytes)/n)
	if cpu := (after.cpu - before.cpu).Seconds(); cpu > 0 {
		res.set("runtime.gc_cpu_share", (after.gcCPU-before.gcCPU)/cpu)
	}
	res.set("runtime.num_cpu", float64(runtime.NumCPU()))
	res.set("runtime.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
}

func schedulerMetrics(res *result, h *host, table string) {
	sched, ok := h.srv.Scheduler(table)
	if !ok {
		return
	}
	m := sched.Metrics()
	res.set("server.scheduler.batch_size_mean", m.AvgBatch)
	res.set("server.scheduler.sheds", float64(m.Sheds))
	res.set("server.scheduler.idle_slices", float64(m.IdleSlices))
	res.set("server.scheduler.idle_work_s", m.IdleWorkSec)
}

func loadgenMetrics(res *result, windows ...merged) {
	var late []float64
	var verify time.Duration
	ops := 0
	for _, m := range windows {
		late = append(late, m.lateMs...)
		verify += m.verify
		ops += len(m.queryMs) + len(m.appendMs)
	}
	if len(late) > 0 {
		res.setN("loadgen.lateness_p99_ms", quantile(sortedCopy(late), 0.99), len(late))
	}
	res.set("loadgen.verify_ns_per_op", float64(verify.Nanoseconds())/float64(max(ops, 1)))
}

// spanMetrics reports the traced window: the spans the server emits,
// as mean µs per traced request, the tracing overhead against the same
// phase untraced, and the trace file.
func spanMetrics(res *result, cfg config, tr *tracer, tracedP50, plainP50 float64) error {
	res.set("server.scheduler.queue_wait_us", tr.meanDur("queue_wait"))
	res.set("durable.query_sync_wait_us", tr.meanDur("wal_sync"))
	res.set("progidx.index_span_us", tr.meanDur("index"))
	res.set("shard.fanout_self_us", tr.meanSelf("shard_fanout"))
	res.set("shard.tail_scan_us", tr.meanDur("tail_scan"))
	res.set("shard.merge_us", tr.meanDur("merge"))
	if plainP50 > 0 {
		res.set("obs.trace_overhead_share", (tracedP50-plainP50)/plainP50)
	}
	res.set("trace.requests", float64(tr.requests))
	return tr.write(cfg.outDir, res.Workload)
}

// replayApart runs the replay at each boundary in turn, each on a table
// of its own: table gives the host holding an identical table in its
// initial state, the streams that go with it, and a function that
// releases it. For workloads whose operations change the table.
func replayApart(res *result, n int, name string,
	table func(at boundary) (h *host, streams []stream, release func(), err error)) ([boundaries]*replayed, error) {
	var b [boundaries]*replayed
	for at := atSocket; at < boundaries; at++ {
		h, streams, release, err := table(at)
		if err != nil {
			return b, err
		}
		r, err := newReplayer(at, h, name, true)
		if err == nil {
			replay(r, streams, 0, n, res)
			r.close()
			b[at] = r.out
		}
		release()
		if err != nil {
			return b, err
		}
	}
	return b, nil
}

// replayBlock is how many operations replayTogether issues at one
// boundary before it moves to the next.
const replayBlock = 50

// replayTogether runs the replay on one table that the operations leave
// unchanged: a block of operations at each boundary in turn, then the
// next block, starting one boundary further on. The box's speed drifts
// by several per cent over seconds, more than a layer costs; taken this
// way the boundaries drift together.
func replayTogether(res *result, n int, h *host, name string, streams []stream) ([boundaries]*replayed, error) {
	var b [boundaries]*replayed
	var rs [boundaries]*replayer
	for at := atSocket; at < boundaries; at++ {
		r, err := newReplayer(at, h, name, false)
		if err != nil {
			return b, err
		}
		defer r.close()
		rs[at], b[at] = r, r.out
	}
	for from, block := 0, 0; from < n; from, block = from+replayBlock, block+1 {
		for k := 0; k < int(boundaries); k++ {
			replay(rs[(block+k)%int(boundaries)], streams, from, min(from+replayBlock, n), res)
		}
	}
	return b, nil
}

// --- steady ---

func traceSteady(cfg config, s *steadySetup, res *result) error {
	res.set("catalog.load_s", s.loadTime.Seconds())
	if err := s.coldProbes(cfg, res); err != nil {
		return err
	}
	phase := cfg.window / 6
	before := readUsage()
	logs, err := runClosed(s.h.addr, s.clientStreams(cfg), phase, nil)
	if err != nil {
		return err
	}
	after := readUsage()
	closed := merge(logs)
	res.count(closed)
	res.tail(closed)
	runtimeMetrics(res, before, after, len(closed.queryMs))

	if logs, err = runOpen(s.h.addr, s.st, cfg.clients, cfg.rateLo, phase, nil); err != nil {
		return err
	}
	lo := merge(logs)
	res.count(lo)
	if logs, err = runOpen(s.h.addr, offsetStream{s.st, steadyPool / 2}, cfg.clients, cfg.rateHi, phase, nil); err != nil {
		return err
	}
	hi := merge(logs)
	res.count(hi)
	// Independent analysts make an open loop. Latency counts from each
	// request's due time, at a fifth and at just under half of the
	// closed-loop capacity.
	res.setN("open_lo_p50_ms", slicedQuantile(lo.queryMs, 0.5), len(lo.queryMs))
	res.setN("open_lo_p99_ms", slicedQuantile(lo.queryMs, 0.99), len(lo.queryMs))
	res.setN("open_hi_p50_ms", slicedQuantile(hi.queryMs, 0.5), len(hi.queryMs))
	res.setN("open_hi_p99_ms", slicedQuantile(hi.queryMs, 0.99), len(hi.queryMs))
	loadgenMetrics(res, closed, lo, hi)
	schedulerMetrics(res, s.h, steadyTable)

	tr := newTracer()
	if logs, err = runOpen(s.h.addr, offsetStream{s.st, steadyPool / 4}, cfg.clients, cfg.rateLo, phase, tr); err != nil {
		return err
	}
	traced := merge(logs)
	res.count(traced)
	if err := spanMetrics(res, cfg, tr, median(traced.queryMs), median(lo.queryMs)); err != nil {
		return err
	}

	// Queries do not change a converged table.
	b, err := replayTogether(res, cfg.replayOps, s.h, steadyTable, []stream{s.st})
	if err != nil {
		return err
	}
	layers(b, res)
	scanKernels(s.vals, predsOf(s.st, kernelPredicates), res)
	return nil
}

// predsOf is the predicates of a stream's first n operations.
func predsOf(st stream, n int) []progidx.Predicate {
	var o op
	preds := make([]progidx.Predicate, 0, n)
	for i := 0; i < n; i++ {
		o.body = o.body[:0]
		st.next(i, &o)
		if !o.isAppend && o.conj == nil {
			preds = append(preds, o.pred)
		}
	}
	return preds
}

// --- converge ---

func traceConverge(cfg config, s *convergeSetup, res *result) error {
	res.set("catalog.load_s", s.loadTime.Seconds())
	cl, err := newClient(s.h.addr, s.st, time.Now(), nil)
	if err != nil {
		return err
	}
	defer cl.c.close()

	var rounds []round
	before := readUsage()
	for start := time.Now(); time.Since(start) < cfg.window/3 || len(rounds) == 0; {
		if len(rounds) > 0 {
			if err := s.reload(); err != nil {
				return err
			}
		}
		r, err := runRound(cfg, s, cl, res)
		if err != nil {
			return err
		}
		rounds = append(rounds, r)
	}
	after := readUsage()
	runtimeMetrics(res, before, after, len(rounds)*len(convergeStrategies)*cfg.episodeQueries)
	convergeMetrics(res, rounds)
	var plainWindow []float64
	var all merged
	for _, r := range rounds {
		for i := range r {
			e := &r[i]
			plainWindow = append(plainWindow, e.window()...)
			all.verify += e.log.verify
			all.queryMs = append(all.queryMs, e.latMs...)
		}
	}
	for i, strat := range convergeStrategies {
		pick := func(f func(*episode) float64) float64 {
			var xs []float64
			for _, r := range rounds {
				xs = append(xs, f(&r[i]))
			}
			return median(xs)
		}
		name := "core." + strat.String()
		res.set(name+".converge_queries", pick(func(e *episode) float64 { return float64(e.convergedAt) }))
		res.set(name+".converge_s", pick(func(e *episode) float64 { return e.convergeT.Seconds() }))
		res.set(name+".first_query_ms", pick(func(e *episode) float64 { return e.latMs[0] }))
		res.set(name+".cumulative_s", pick(cumulative))
	}
	res.setN("query_p99_ms", quantile(sortedCopy(plainWindow), 0.99), len(plainWindow))
	loadgenMetrics(res, all)
	schedulerMetrics(res, s.h, convergeTable)

	if err := s.reload(); err != nil {
		return err
	}
	cl.tr = newTracer()
	tracedRound, err := runRound(cfg, s, cl, res)
	if err != nil {
		return err
	}
	var tracedWindow []float64
	for i := range tracedRound {
		tracedWindow = append(tracedWindow, tracedRound[i].window()...)
	}
	if err := spanMetrics(res, cfg, cl.tr, median(tracedWindow), median(plainWindow)); err != nil {
		return err
	}

	// One round per boundary: four episodes, each on a fresh cold table.
	var b [boundaries]*replayed
	for at := atSocket; at < boundaries; at++ {
		b[at] = &replayed{}
		for _, strat := range convergeStrategies {
			if err := s.h.srv.Drop(convergeTable); err != nil {
				return err
			}
			if _, _, err := s.h.load(convergeTable, s.vals, convergeOptions(strat)); err != nil {
				return err
			}
			r, err := newReplayer(at, s.h, convergeTable, true)
			if err != nil {
				return err
			}
			r.out = b[at]
			replay(r, []stream{s.st}, 0, cfg.episodeQueries, res)
			r.close()
		}
	}
	layers(b, res)
	scanKernels(s.vals, s.st.preds, res)
	return nil
}

func cumulative(e *episode) float64 {
	var sum float64
	for _, l := range e.latMs {
		sum += l
	}
	return sum / 1000
}

// convergeMetrics reports the paper's metrics over rounds: per round
// the mean over the four strategies, then the median over rounds.
func convergeMetrics(res *result, rounds []round) {
	res.setN("first_query_ms", median(perRound(rounds, func(e *episode) float64 { return e.latMs[0] })), len(rounds))
	res.setN("converge_s", median(perRound(rounds, func(e *episode) float64 { return e.convergeT.Seconds() })), len(rounds))
	res.setN("cumulative_s", median(perRound(rounds, cumulative)), len(rounds))
	res.setN("robustness_std_ms", median(perRound(rounds, func(e *episode) float64 { return stddev(e.window()) })), len(rounds))
}

// --- conj ---

func traceConj(cfg config, s *conjSetup, res *result) error {
	res.set("catalog.load_s", s.loadTime.Seconds())
	if err := s.coldProbes(cfg, res); err != nil {
		return err
	}
	before := readUsage()
	logs, err := runClosed(s.h.addr, s.streams, cfg.window/3, nil)
	if err != nil {
		return err
	}
	after := readUsage()
	plain := merge(logs)
	res.count(plain)
	res.tail(plain)
	runtimeMetrics(res, before, after, len(plain.queryMs))
	loadgenMetrics(res, plain)
	schedulerMetrics(res, s.h, conjTable)

	tr := newTracer()
	shifted := make([]stream, len(s.streams))
	for i, st := range s.streams {
		shifted[i] = offsetStream{st, conjPool / 2}
	}
	if logs, err = runClosed(s.h.addr, shifted, cfg.window/4, tr); err != nil {
		return err
	}
	traced := merge(logs)
	res.count(traced)
	if err := spanMetrics(res, cfg, tr, median(traced.queryMs), median(plain.queryMs)); err != nil {
		return err
	}

	// A conjunction never consults the per-column indexes, so the state
	// they are in does not change what a replayed query costs.
	n := min(cfg.replayOps, 2*len(plain.queryMs)/3+1) // about a quarter window per boundary
	b, err := replayTogether(res, n, s.h, conjTable, s.streams[:1])
	if err != nil {
		return err
	}
	layers(b, res)
	planMetrics(res, s.tbl, s.streams[0], n)
	encodeMetrics(res, s)
	return nil
}

// planMetrics reports what the planner chooses and what the fused scan
// does for the stream's first n conjunctions, from ExplainConj.
func planMetrics(res *result, tbl *catalog.Table, st stream, n int) {
	pt, ok := tbl.Planned()
	if !ok {
		return
	}
	var scanned, pruned, direct, explained int
	var driver, matched int64
	var o op
	for i := 0; i < n; i++ {
		o.body = o.body[:0]
		st.next(i, &o)
		_, ch, err := pt.ExplainConj(*o.conj, "")
		if err != nil {
			res.countOne(fmt.Errorf("explain: %w", err))
			continue
		}
		explained++
		scanned += ch.ScannedBlocks
		pruned += ch.PrunedBlocks
		driver += ch.DriverRows
		matched += ch.MatchedRows
		if ch.Direct {
			direct++
		}
	}
	per := float64(max(explained, 1))
	res.set("plan.blocks_scanned_per_q", float64(scanned)/per)
	if scanned+pruned > 0 {
		res.set("plan.blocks_pruned_share", float64(pruned)/float64(scanned+pruned))
	}
	if matched > 0 {
		res.set("plan.rows_examined_per_match", float64(driver)/float64(matched))
	}
	res.set("plan.direct_share", float64(direct)/per)
}

// encodeMetrics times the scan-on-compressed kernel on column b, FOR
// bit-packed as the table stores it, under the replayed predicates.
func encodeMetrics(res *result, s *conjSetup) {
	rows := len(s.flat) / conjCols
	col := make([]int64, rows)
	for i := range col {
		col[i] = s.flat[i*conjCols+1]
	}
	mn, mx := col[0], col[0]
	for _, v := range col {
		mn, mx = min(mn, v), max(mx, v)
	}
	seg, err := encode.New(col, mn, mx, encode.ModeFORBP)
	if err != nil {
		res.countOne(fmt.Errorf("encode column b: %w", err))
		return
	}
	st := s.streams[0].(*conjStream)
	var sink int64
	took, _ := timed(func() error {
		for i := 0; i < kernelPredicates; i++ {
			lo, hi := st.bounds(i)
			sink += seg.AggRange(lo, hi, progidx.Sum|progidx.Count).Count
		}
		return nil
	})
	runtime.KeepAlive(sink)
	res.set("encode.forbp_scan_ns_per_row", float64(took.Nanoseconds())/float64(rows*kernelPredicates))
	res.set("encode.bytes_per_row", seg.BytesPerRow())
}

// --- ingest ---

// tailSampler samples the table's unsealed tail while a window runs.
type tailSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	rows []float64
}

func sampleTail(tbl *catalog.Table) *tailSampler {
	ts := &tailSampler{stop: make(chan struct{})}
	p, ok := tbl.Index().(interface{ PendingRows() int })
	if !ok {
		return ts
	}
	ts.wg.Add(1)
	go func() {
		defer ts.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ts.stop:
				return
			case <-tick.C:
				ts.rows = append(ts.rows, float64(p.PendingRows()))
			}
		}
	}()
	return ts
}

func (ts *tailSampler) mean() float64 {
	close(ts.stop)
	ts.wg.Wait()
	return mean(ts.rows)
}

func dirBytes(dir string) int64 {
	var total int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil // a file checkpointing just removed is not an error
	})
	return total
}

func traceIngest(cfg config, s *ingestSetup, res *result) error {
	res.set("catalog.load_s", s.loadTime.Seconds())
	if err := s.coldProbes(cfg, res); err != nil {
		return err
	}
	shards0 := s.tbl.ShardCount()
	stats0, bytes0 := s.store.Stats(), dirBytes(s.dir)
	tail := sampleTail(s.tbl)
	before := readUsage()
	logs, err := runClosed(s.h.addr, s.asStreams(), cfg.window/2, nil)
	if err != nil {
		return err
	}
	after := readUsage()
	res.set("shard.tail_rows_mean", tail.mean())
	plain := merge(logs)
	res.count(plain)
	res.tail(plain)
	stats1, bytes1 := s.store.Stats(), dirBytes(s.dir)
	runtimeMetrics(res, before, after, len(plain.queryMs)+len(plain.appendMs))
	loadgenMetrics(res, plain)
	schedulerMetrics(res, s.h, ingestTable)
	appendMetrics(res, plain)
	res.set("shard.seals", float64(s.tbl.ShardCount()-shards0))
	if appends := float64(len(plain.appendMs)); appends > 0 {
		res.set("durable.syncs_per_append", float64(stats1.Syncs-stats0.Syncs)/appends)
		res.set("durable.frames_per_append", float64(stats1.Frames-stats0.Frames)/appends)
		res.set("durable.wal_bytes_per_user_byte", float64(bytes1-bytes0)/(8*appends*float64(cfg.appendRows)))
	}
	res.set("durable.checkpoints", float64(stats1.Snapshots-stats0.Snapshots))
	took, _ := timed(func() error {
		if errs := s.h.srv.CheckpointAll(context.Background()); len(errs) > 0 {
			res.countOne(errs[0])
		}
		return nil
	})
	res.set("durable.checkpoint_s", took.Seconds())

	tr := newTracer()
	if logs, err = runClosedFrom(s.h.addr, s.asStreams(), opsDone(logs), cfg.window/4, tr); err != nil {
		return err
	}
	traced := merge(logs)
	res.count(traced)
	if err := spanMetrics(res, cfg, tr, median(traced.queryMs), median(plain.queryMs)); err != nil {
		return err
	}
	if total := tr.shardsScanned + tr.shardsPruned; total > 0 {
		res.set("shard.pruned_share", float64(tr.shardsPruned)/float64(total))
	}

	// Abandon the server and recover its directory, as the untraced
	// run does; then read the store alone, to split the recovery.
	s.h.close()
	var recs []time.Duration
	for i := 0; i < cfg.recoveries; i++ {
		took, err := s.recoverOnce(res)
		if err != nil {
			return err
		}
		recs = append(recs, took)
	}
	res.setN("recover_s", median(secondsOf(recs)), len(recs))
	storeOnly, err := timeStoreRecover(s.dir)
	if err != nil {
		return err
	}
	res.set("durable.recover_store_s", storeOnly.Seconds())
	res.set("catalog.recover_rebuild_s", median(secondsOf(recs))-storeOnly.Seconds())

	// Appends change the table, so each boundary gets a fresh durable
	// table and fresh streams.
	oracle := newRangeOracle(s.vals)
	freshStreams := func() []stream {
		out := make([]stream, cfg.clients)
		for c := range out {
			out[c] = newIngestStream(oracle, cfg.ingestN, cfg.appendRows, res.Seed, c)
		}
		return out
	}
	b, err := replayApart(res, cfg.replayOps, ingestTable, func(at boundary) (*host, []stream, func(), error) {
		dir := fmt.Sprintf("%s-replay-%d", s.dir, at)
		os.RemoveAll(dir)
		h, _, err := openDurable(dir, time.Hour)
		if err != nil {
			return nil, nil, nil, err
		}
		release := func() { h.close(); os.RemoveAll(dir) }
		if _, _, err := h.load(ingestTable, s.vals, ingestOptions); err != nil {
			release()
			return nil, nil, nil, err
		}
		return h, freshStreams(), release, nil
	})
	if err != nil {
		return err
	}
	layers(b, res)
	if sync := b[atIndex].syncUs; len(sync) > 0 {
		res.setN("durable.wal_sync_us", mean(sync), len(sync))
	}
	if err := appendSelf(cfg, s, res, b[atIndex], freshStreams()); err != nil {
		return err
	}
	scanKernels(s.vals, driftPreds(freshStreams()[0].(*ingestStream), kernelPredicates), res)
	return nil
}

// driftPreds is the predicates of a client's first n drift queries.
func driftPreds(st *ingestStream, n int) []progidx.Predicate {
	preds := make([]progidx.Predicate, 0, n)
	for _, q := range st.drift[:min(n, len(st.drift))] {
		preds = append(preds, progidx.Range(q.Lo, q.Hi))
	}
	return preds
}

// opsDone is how many operations each client of a window performed, so
// that a following window continues its stateful stream.
func opsDone(logs []*clientLog) []int {
	out := make([]int, len(logs))
	for i, l := range logs {
		out[i] = l.attempted
	}
	return out
}

// timeStoreRecover times durable.Store.Recover alone: reading and
// checking the snapshot and the WAL tail, without rebuilding a table.
func timeStoreRecover(dir string) (time.Duration, error) {
	store, err := durable.Open(dir, durable.SyncBatch)
	if err != nil {
		return 0, err
	}
	defer store.Close()
	start := time.Now()
	recs, warnings, err := store.Recover()
	took := time.Since(start)
	if err == nil && len(warnings) > 0 {
		err = warnings[0]
	}
	for _, rec := range recs {
		rec.Log.Close()
	}
	return took, err
}

// appendSelf reports the catalog's own share of an append: the B3
// replay's Table.Append (WAL frame write included, sync excluded) less
// the same appends handed straight to the index handle of an ephemeral
// table.
func appendSelf(cfg config, s *ingestSetup, res *result, b3 *replayed, streams []stream) error {
	h, err := startHost(server.Config{})
	if err != nil {
		return err
	}
	defer h.close()
	tbl, _, err := h.load(ingestTable, s.vals, ingestOptions)
	if err != nil {
		return err
	}
	var o op
	var rows []int64
	var handleUs, tableUs []float64
	for j := 0; j < cfg.replayOps; j++ {
		st, i := streams[j%len(streams)], j/len(streams)
		o.body = o.body[:0]
		st.next(i, &o)
		if !o.isAppend {
			continue
		}
		rows = rows[:0]
		for k := 0; k < o.rows; k++ {
			rows = append(rows, o.first+int64(k))
		}
		took, err := timed(func() error { return tbl.Index().Append(rows) })
		if err != nil {
			return err
		}
		st.acked(i)
		handleUs = append(handleUs, us(took))
	}
	syncs := 0
	for j, app := range b3.isApp {
		if app {
			tableUs = append(tableUs, b3.us[j]-b3.syncUs[syncs])
			syncs++
		}
	}
	if len(tableUs) > 0 && len(handleUs) > 0 {
		res.setN("catalog.append_self_us", mean(tableUs)-mean(handleUs), len(tableUs))
	}
	return nil
}
