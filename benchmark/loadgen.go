package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/internal/query"
)

// op is one request of a client's stream: the HTTP form — body is
// appended into a buffer the client reuses — and the typed form the
// boundary replay hands to the layers below HTTP.
type op struct {
	rt       route
	body     []byte
	isAppend bool
	rows     int                // appended rows, when isAppend
	first    int64              // an append's values are first, first+1, …
	pred     progidx.Predicate  // a single-column query
	conj     *query.Conjunction // a conjunction, when non-nil
}

// stream is one client's sequence of operations. next builds the i-th
// request; want gives the answer it must get, computed only after the
// response arrived so that checking never delays a send; acked tells
// the stream an append was acknowledged.
type stream interface {
	next(i int, o *op)
	want(i int) (sum, count int64)
	acked(i int)
}

// fixedQuery is the stream of one range query whose answer is known.
type fixedQuery struct {
	rt                 route
	lo, hi, sum, count int64
}

func (q fixedQuery) next(_ int, o *op) {
	o.rt, o.isAppend, o.pred = q.rt, false, progidx.Range(q.lo, q.hi)
	o.body = appendRangeBody(o.body, q.lo, q.hi)
}
func (q fixedQuery) want(int) (sum, count int64) { return q.sum, q.count }
func (fixedQuery) acked(int)                     {}

// sample is one timed operation: when it completed (offset from the
// window start, so several clients' samples merge in time order) and
// how long the client waited for it.
type sample struct {
	at, lat time.Duration
}

// clientLog is what one client goroutine measured. Only that goroutine
// writes it until the driver has waited for it.
type clientLog struct {
	queries   []sample
	appends   []sample
	late      []time.Duration // open loop: how long after its due time each request was sent
	attempted int
	failed    int
	firstErr  error
	verify    time.Duration // time spent computing expected answers and comparing
}

func (l *clientLog) fail(err error) {
	l.failed++
	if l.firstErr == nil {
		l.firstErr = err
	}
}

// client drives one connection. With tr set, every request carries
// ?trace=1 and its spans are recorded.
type client struct {
	c     *conn
	st    stream
	log   clientLog
	buf   []byte
	o     op
	start time.Time // window start
	tr    *tracer
}

func newClient(addr string, st stream, start time.Time, tr *tracer) (*client, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	return &client{c: c, st: st, start: start, tr: tr, buf: make([]byte, 0, 8<<10)}, nil
}

// step performs the stream's i-th operation. due is when it was
// scheduled to be sent: latency counts from there, so the wait a stall
// imposes on the requests behind it is measured, not hidden. A closed
// loop passes the zero time and latency counts from the send.
func (cl *client) step(i int, due time.Time) {
	cl.o.body = cl.buf[:0]
	cl.st.next(i, &cl.o)
	cl.buf = cl.o.body
	prefix := cl.o.rt.plain
	if cl.tr != nil {
		prefix = cl.o.rt.traced
	}
	sent := time.Now()
	if due.IsZero() {
		due = sent
	} else {
		cl.log.late = append(cl.log.late, sent.Sub(due))
	}
	status, body, err := cl.c.do(prefix, cl.o.body)
	done := time.Now()
	cl.log.attempted++
	if err != nil {
		cl.log.fail(err)
		return
	}
	s := sample{at: done.Sub(cl.start), lat: done.Sub(due)}
	if status != 200 {
		// A refused request (429 included) is a failure and has no
		// latency: it misses every percentile.
		cl.log.fail(fmt.Errorf("op %d: status %d: %s", i, status, truncate(body)))
		return
	}
	if cl.tr != nil {
		cl.tr.record(due, sent, done, cl.o.isAppend, body)
	}
	vstart := time.Now()
	if cl.o.isAppend {
		var r reply
		if err := json.Unmarshal(body, &r); err != nil || r.Appended != cl.o.rows {
			cl.log.fail(fmt.Errorf("op %d: append acked %d rows, want %d (%v)", i, r.Appended, cl.o.rows, err))
		} else {
			cl.st.acked(i)
			cl.log.appends = append(cl.log.appends, s)
		}
	} else {
		sum, count, err := decodeAnswer(body)
		wantSum, wantCount := cl.st.want(i)
		if err != nil || sum != wantSum || count != wantCount {
			cl.log.fail(fmt.Errorf("op %d: got sum=%d count=%d, want sum=%d count=%d (%v)", i, sum, count, wantSum, wantCount, err))
		} else {
			cl.log.queries = append(cl.log.queries, s)
		}
	}
	cl.log.verify += time.Since(vstart)
}

// runClosed drives one closed-loop client per stream — each sends its
// next request only after the previous reply — for dur, and returns
// their logs.
func runClosed(addr string, streams []stream, dur time.Duration, tr *tracer) ([]*clientLog, error) {
	return runClosedFrom(addr, streams, make([]int, len(streams)), dur, tr)
}

// runClosedFrom is runClosed with client c starting at its stream's
// operation from[c]: a second window over streams that keep state.
func runClosedFrom(addr string, streams []stream, from []int, dur time.Duration, tr *tracer) ([]*clientLog, error) {
	start := time.Now()
	clients := make([]*client, len(streams))
	for i, st := range streams {
		cl, err := newClient(addr, st, start, tr)
		if err != nil {
			return nil, err
		}
		defer cl.c.close()
		clients[i] = cl
	}
	var wg sync.WaitGroup
	for c, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := from[c]; time.Since(start) < dur; i++ {
				cl.step(i, time.Time{})
			}
		}()
	}
	wg.Wait()
	return logsOf(clients), nil
}

// runOpen sends st's operations on a fixed schedule, rate per second
// for dur, over conns connections: request k is due at start + k/rate,
// whichever connection is free takes the next due request, and a
// request whose due time has passed is sent at once. Latency counts
// from the due time.
func runOpen(addr string, st stream, conns int, rate float64, dur time.Duration, tr *tracer) ([]*clientLog, error) {
	start := time.Now()
	clients := make([]*client, conns)
	for i := range clients {
		cl, err := newClient(addr, st, start, tr)
		if err != nil {
			return nil, err
		}
		defer cl.c.close()
		clients[i] = cl
	}
	interval := time.Duration(float64(time.Second) / rate)
	total := int64(dur / interval)
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := next.Add(1) - 1
				if k >= total {
					return
				}
				due := start.Add(time.Duration(k) * interval)
				// Signals (the runtime preempts with one) end a nanosleep early.
				for wait := time.Until(due); wait > 0; wait = time.Until(due) {
					preciseSleep(wait)
				}
				cl.step(int(k), due)
			}
		}()
	}
	wg.Wait()
	return logsOf(clients), nil
}

// preciseSleep blocks the calling thread in nanosleep. time.Sleep will
// not do for an open loop at thousands of requests a second: an idle Go
// program waits for its timers in epoll_wait, whose timeout counts
// milliseconds, so every sub-millisecond sleep lasts about 1.1 ms. The
// thread's timer slack is lowered from the default 50 µs first — it is
// per thread, and the goroutine may have moved since the last call —
// which leaves the wake-up about 20 µs late on this box.
func preciseSleep(d time.Duration) {
	const prSetTimerslack = 29
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0) // failure only means the default slack stays
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil) // the caller sleeps again after an early return
}

func logsOf(clients []*client) []*clientLog {
	logs := make([]*clientLog, len(clients))
	for i, cl := range clients {
		logs[i] = &cl.log
	}
	return logs
}

// merged is several clients' logs as one.
type merged struct {
	queryMs   []float64 // in completion order
	queryAt   []float64 // when each completed, seconds into the window
	appendMs  []float64
	lateMs    []float64
	attempted int
	failed    int
	firstErr  error
	verify    time.Duration
}

func merge(logs []*clientLog) merged {
	var m merged
	var qs, as []sample
	for _, l := range logs {
		qs = append(qs, l.queries...)
		as = append(as, l.appends...)
		m.lateMs = append(m.lateMs, toMs(l.late)...)
		m.attempted += l.attempted
		m.failed += l.failed
		m.verify += l.verify
		if m.firstErr == nil {
			m.firstErr = l.firstErr
		}
	}
	m.queryMs, m.queryAt = inOrder(qs)
	m.appendMs, _ = inOrder(as)
	return m
}

func inOrder(ss []sample) (latMs, atSec []float64) {
	sort.Slice(ss, func(i, j int) bool { return ss[i].at < ss[j].at })
	latMs, atSec = make([]float64, len(ss)), make([]float64, len(ss))
	for i, s := range ss {
		latMs[i], atSec[i] = ms(s.lat), s.at.Seconds()
	}
	return latMs, atSec
}

// measureClosed runs an untraced run's closed-loop window and reports
// its gated metrics, and the tail beside them. The latency and
// throughput figures are each taken per fifth of the window and
// reported as the median of the five, so that one burst of a noisy
// neighbour cannot set them.
func (r *result) measureClosed(addr string, streams []stream, window time.Duration) (merged, error) {
	runtime.GC() // every window starts from a collected heap
	before := readUsage()
	logs, err := runClosed(addr, streams, window, nil)
	if err != nil {
		return merged{}, err
	}
	after := readUsage()
	m := merge(logs)
	r.count(m)
	r.setN("query_p50_ms", slicedQuantile(m.queryMs, 0.5), len(m.queryMs))
	r.tail(m)
	r.set("throughput_qps", slicedRate(m.queryAt, window.Seconds()))
	r.set("cpu_ms_per_op", ms(after.cpu-before.cpu)/float64(max(len(m.queryMs)+len(m.appendMs), 1)))
	return m, nil
}

// tail reports query_p99_ms of a closed-loop window. It is a per-layer
// metric, printed by every run and gated by none: on steady, where a
// request takes 25 µs, the slowest 1 % are the requests a thread of the
// process waited for a virtual CPU in, and how many those are follows
// the host, not the program (README, "What is not gated").
func (r *result) tail(m merged) {
	r.setN("query_p99_ms", slicedQuantile(m.queryMs, 0.99), len(m.queryMs))
}
