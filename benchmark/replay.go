package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro"
	"repro/internal/catalog"
	"repro/internal/column"
	"repro/internal/parallel"
	"repro/internal/server"
)

// Boundary replay measures the layers that emit no span. The same
// operations, in the same order, from one goroutine, are issued to an
// identical table at each public boundary on the way down:
//
//	B0  the loopback socket (a client's view)
//	B1  Server.Handler().ServeHTTP with an in-memory response writer
//	B2  Scheduler.Execute / ExecuteConj / Append
//	B3  catalog.Table.Index().Execute, plan.Table.ExplainConj,
//	    catalog.Table.Append + SyncLog
//
// With δ fixed the index takes the same trajectory at every boundary,
// so what an operation costs at one boundary less what it costs at the
// next is the self time of the layer between them (see layers).
type boundary int

const (
	atSocket boundary = iota
	atHandler
	atScheduler
	atIndex
	boundaries
)

// replayed is what one boundary's replay measured.
type replayed struct {
	us     []float64 // per operation
	isApp  []bool
	usage  usage     // resources the replay consumed
	syncUs []float64 // atIndex, appends: the SyncLog part
	work   float64   // atIndex: Σ Stats.WorkSeconds
	errs   []float64 // atIndex: measured ÷ Stats.Predicted, where predicted
	bytes  int       // atSocket: response body bytes
}

func (r *replayed) meanUs() float64 { return mean(r.us) }

// replayer issues one operation at a boundary and returns its answer.
type replayer struct {
	at    boundary
	tbl   *catalog.Table
	sched *server.Scheduler
	c     *conn
	rec   recorder
	hnd   http.Handler
	rows  []int64
	out   *replayed
}

// newReplayer prepares boundary at of the named table. own says the
// table is this boundary's alone; one that several boundaries share
// keeps its scheduler.
func newReplayer(at boundary, h *host, table string, own bool) (*replayer, error) {
	tbl, ok := h.srv.Catalog().Get(table)
	if !ok {
		return nil, fmt.Errorf("replay: table %q not loaded", table)
	}
	sched, ok := h.srv.Scheduler(table)
	if !ok {
		return nil, fmt.Errorf("replay: table %q has no scheduler", table)
	}
	r := &replayer{at: at, tbl: tbl, sched: sched, hnd: h.srv.Handler(), out: &replayed{}}
	if at == atIndex && own {
		// Below the scheduler nothing may run beside the replay: its
		// loop would refine the index in idle time and contend for
		// the handle's locks.
		sched.Stop()
	}
	if at == atSocket {
		var err error
		if r.c, err = dial(h.addr); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *replayer) close() {
	if r.c != nil {
		r.c.close()
	}
}

// recorder is the in-memory http.ResponseWriter of boundary B1.
type recorder struct {
	hdr  http.Header
	code int
	buf  bytes.Buffer
}

func (w *recorder) Header() http.Header         { return w.hdr }
func (w *recorder) WriteHeader(code int)        { w.code = code }
func (w *recorder) Write(b []byte) (int, error) { return w.buf.Write(b) }

// issue performs o at the replayer's boundary and returns the answer
// (for an append, count is the rows acknowledged).
func (r *replayer) issue(o *op) (sum, count int64, err error) {
	ctx := context.Background()
	start := time.Now()
	switch r.at {
	case atSocket:
		var status int
		var body []byte
		status, body, err = r.c.do(o.rt.plain, o.body)
		r.out.us = append(r.out.us, us(time.Since(start)))
		if err == nil && status != 200 {
			err = fmt.Errorf("status %d: %s", status, truncate(body))
		}
		if err != nil {
			return 0, 0, err
		}
		r.out.bytes += len(body)
		return decodeReply(o, body)
	case atHandler:
		req, rerr := http.NewRequest("POST", o.rt.path, bytes.NewReader(o.body))
		if rerr != nil {
			return 0, 0, rerr
		}
		r.rec.hdr, r.rec.code = make(http.Header), 200
		r.rec.buf.Reset()
		r.hnd.ServeHTTP(&r.rec, req)
		r.out.us = append(r.out.us, us(time.Since(start)))
		if r.rec.code != 200 {
			return 0, 0, fmt.Errorf("status %d: %s", r.rec.code, truncate(r.rec.buf.Bytes()))
		}
		return decodeReply(o, r.rec.buf.Bytes())
	case atScheduler:
		switch {
		case o.isAppend:
			_, _, err = r.sched.Append(ctx, r.rowsOf(o))
			count = int64(o.rows)
		case o.conj != nil:
			var ans progidx.Answer
			ans, _, _, err = r.sched.ExecuteConj(ctx, *o.conj, time.Time{}, false)
			sum, count = ans.Sum, ans.Count
		default:
			var ans progidx.Answer
			ans, _, err = r.sched.Execute(ctx, progidx.Request{Pred: o.pred})
			sum, count = ans.Sum, ans.Count
		}
		r.out.us = append(r.out.us, us(time.Since(start)))
		return sum, count, err
	default: // atIndex
		var ans progidx.Answer
		switch {
		case o.isAppend:
			err = r.tbl.Append(r.rowsOf(o))
			synced := time.Now()
			if err == nil {
				err = r.tbl.SyncLog()
			}
			r.out.syncUs = append(r.out.syncUs, us(time.Since(synced)))
			count = int64(o.rows)
		case o.conj != nil:
			pt, ok := r.tbl.Planned()
			if !ok {
				return 0, 0, fmt.Errorf("replay: conjunction on a single-column table")
			}
			// ExecuteConj spends the batch's δ as the scheduler's path
			// does; ExplainConj, which also returns the planner's
			// choice, would not.
			ans, err = pt.ExecuteConj(*o.conj)
		default:
			ans, err = r.tbl.Index().Execute(progidx.Request{Pred: o.pred})
		}
		took := time.Since(start)
		r.out.us = append(r.out.us, us(took))
		if !o.isAppend && err == nil {
			sum, count = ans.Sum, ans.Count
			r.out.work += ans.Stats.WorkSeconds
			if ans.Stats.Predicted > 0 {
				r.out.errs = append(r.out.errs, took.Seconds()/ans.Stats.Predicted)
			}
		}
		return sum, count, err
	}
}

// rowsOf materializes an append's values in a buffer the replayer
// reuses; every layer below HTTP copies what it keeps.
func (r *replayer) rowsOf(o *op) []int64 {
	r.rows = r.rows[:0]
	for i := 0; i < o.rows; i++ {
		r.rows = append(r.rows, o.first+int64(i))
	}
	return r.rows
}

func decodeReply(o *op, body []byte) (sum, count int64, err error) {
	if !o.isAppend {
		return decodeAnswer(body)
	}
	var rep reply
	if err := json.Unmarshal(body, &rep); err != nil {
		return 0, 0, err
	}
	return 0, int64(rep.Appended), nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// replay issues operations from to to-1 of the streams — taken in turn,
// one from each, as one sequence — through r, checking every answer.
func replay(r *replayer, streams []stream, from, to int, res *result) {
	var o op
	var buf []byte
	before := readUsage()
	for j := from; j < to; j++ {
		st, i := streams[j%len(streams)], j/len(streams)
		o.body, o.conj = buf[:0], nil
		st.next(i, &o)
		buf = o.body
		sum, count, err := r.issue(&o)
		r.out.isApp = append(r.out.isApp, o.isAppend)
		if err == nil {
			if o.isAppend {
				if count != int64(o.rows) {
					err = fmt.Errorf("append acked %d rows, want %d", count, o.rows)
				} else {
					st.acked(i)
				}
			} else if wantSum, wantCount := st.want(i); sum != wantSum || count != wantCount {
				err = fmt.Errorf("got sum=%d count=%d, want sum=%d count=%d", sum, count, wantSum, wantCount)
			}
		}
		if err != nil {
			err = fmt.Errorf("replay at boundary %d, op %d: %w", r.at, j, err)
		}
		res.countOne(err)
	}
	after := readUsage()
	r.out.usage.mallocs += after.mallocs - before.mallocs
	r.out.usage.bytes += after.bytes - before.bytes
}

// layers turns the four boundaries' replays into the per-layer self
// times, in µs per operation: the mean at one boundary less the mean at
// the next. Means, because only means subtract — the parts sum to the
// mean at B0 — and because a layer's cost is not the same for every
// operation (whether a hand-off finds its goroutine's thread awake
// doubles it). The subtraction resolves a layer only to the few per
// cent by which two replays of the same operations differ: where an
// operation takes milliseconds, a layer of microseconds reads as noise
// of either sign. A negative part counts as nothing and what it took
// from its neighbours is reported as unattributed.
func layers(b [boundaries]*replayed, res *result) {
	n := float64(len(b[atSocket].us))
	if n == 0 {
		return
	}
	// An append's WAL sync is inside B3's time and is timed apart
	// there: it is the durable layer's, not the index's.
	syncPerOp := 0.0
	for _, s := range b[atIndex].syncUs {
		syncPerOp += s / n
	}
	b0, b1, b2, b3 := b[atSocket].meanUs(), b[atHandler].meanUs(), b[atScheduler].meanUs(), b[atIndex].meanUs()
	httpSelf, schedSelf, below := b0-b2, b2-b3, b3-syncPerOp
	res.set("server.http.self_us", httpSelf)
	res.set("server.http.decode_encode_us", b1-b2)
	res.set("server.http.allocs_per_op", (float64(b[atHandler].usage.mallocs)-float64(b[atScheduler].usage.mallocs))/n)
	res.set("server.http.bytes_per_op", (float64(b[atHandler].usage.bytes)-float64(b[atScheduler].usage.bytes))/n)
	res.set("server.http.resp_bytes", float64(b[atSocket].bytes)/n)
	res.set("server.scheduler.self_us", schedSelf)
	res.set("progidx.execute_us", below)
	res.set("replay.b0_us", b0)
	res.set("replay.ops", n)
	attributed := 0.0
	for _, part := range []float64{httpSelf, schedSelf, below, syncPerOp} {
		attributed += max(part, 0)
	}
	res.set("unattributed_us", attributed-b0)
	if exec := b3 * n / 1e6; exec > 0 {
		res.set("core.work_share", b[atIndex].work/exec)
	}
	if errs := sortedCopy(b[atIndex].errs); len(errs) > 0 {
		res.setN("costmodel.error_ratio_p50", quantile(errs, 0.5), len(errs))
		res.setN("costmodel.error_ratio_p99", quantile(errs, 0.99), len(errs))
	}
}

// kernelPredicates caps how many of the replayed predicates the kernel
// measurement scans the whole column for.
const kernelPredicates = 32

// scanKernels times the raw column kernels under the replayed
// predicates — boundary B4, reported on its own because an index that
// has converged no longer scans: serial ns per row, and the speed-up of
// the chunked parallel kernel at nproc workers.
func scanKernels(vals []int64, preds []progidx.Predicate, res *result) {
	if len(preds) > kernelPredicates {
		preds = preds[:kernelPredicates]
	}
	if len(preds) == 0 || len(vals) == 0 {
		return
	}
	aggs := column.AggSum | column.AggCount
	pool := parallel.New(0) // GOMAXPROCS workers
	var sink int64
	serial, _ := timed(func() error {
		for _, p := range preds {
			sink += column.AggRange(vals, p.Lo, p.Hi, aggs).Count
		}
		return nil
	})
	par, _ := timed(func() error {
		for _, p := range preds {
			sink -= column.ParAggRange(pool, vals, p.Lo, p.Hi, aggs).Count
		}
		return nil
	})
	if sink != 0 {
		res.countOne(fmt.Errorf("parallel and serial kernels disagree by %d rows", sink))
	}
	rows := float64(len(vals) * len(preds))
	res.set("column.scan_ns_per_row", float64(serial.Nanoseconds())/rows)
	if par > 0 {
		res.set("column.par_speedup", serial.Seconds()/par.Seconds())
	}
}
