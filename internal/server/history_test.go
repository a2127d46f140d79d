package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/column"
	"repro/internal/durable"
	"repro/internal/fault"
	"repro/internal/oracle"
	"repro/internal/query"
)

var historySeeds = flag.Int("history.seeds", 0, "run TestServedHistory over seeds 0..n-1 (96 crosses every axis with every client count) instead of the tier-1 set")

// historyTier1 is the seed set a plain go test runs: between them every
// strategy, 1 and 4 shards, raw and FOR-BP, one and three columns.
var historyTier1 = []int64{0, 13, 22, 31}

const (
	histTable  = "h"
	histLoaded = 4096 // rows a load builds the table over
	// Band g, client g's, holds the first column's values
	// [histBandLo+g·histStride, +histBandW), a gap of the same width above
	// it; batch j of a band starts at j·histBatchMax inside it.
	histBandLo   = 4096
	histBandW    = 1024
	histStride   = 2 * histBandW
	histBatchMax = 16
	histBands    = 4  // bands a predicate is drawn on: one per client, at most four clients
	histPhases   = 3  // client phases, a drop or a kill between each two
	histOps      = 10 // ops per client per phase
)

// histAxes is one combination of the options a seed loads its table
// with, and how many clients drive it.
type histAxes struct {
	strategy, enc string
	shards        int
	columns       []string
	clients       int
}

// histAxesOf maps seeds 0..31 one to one onto strategy × shards ×
// encoding × schema, and the client count cycles 2, 3, 4.
func histAxesOf(seed int64) histAxes {
	a, b := int(seed%8), int(seed/8%4)
	return histAxes{
		strategy: []string{"PQ", "PMSD", "PB", "PLSD"}[a%4],
		shards:   []int{1, 4}[a/4],
		enc:      []string{"raw", "forbp"}[b%2],
		columns:  [][]string{nil, {"a", "b", "c"}}[b/2],
		clients:  2 + int(seed%3),
	}
}

func (ax histAxes) String() string {
	return fmt.Sprintf("strategy=%s shards=%d encoding=%s columns=%q clients=%d", ax.strategy, ax.shards, ax.enc, ax.columns, ax.clients)
}

func (ax histAxes) k() int { return max(len(ax.columns), 1) }

// histLoad draws the loaded rows: the first column drifts upward over
// [0, 74 000), across the band region and past it; b and c are uniform
// and low-cardinality, their domain ends pinned so every band row lies
// inside every column's loaded domain.
func histLoad(seed int64, k int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	flat := make([]int64, 0, histLoaded*k)
	for r := 0; r < histLoaded; r++ {
		flat = append(flat, int64(r)*18+rng.Int63n(300))
		if k > 1 {
			flat = append(flat, rng.Int63n(5000), rng.Int63n(64)*100)
		}
	}
	flat[0] = 0
	if k > 1 {
		flat[1], flat[2], flat[k+1], flat[k+2] = 0, 0, 4999, 6300
	}
	return flat
}

func bandLo(g int) int64 { return histBandLo + int64(g)*histStride }

// batchRows is batch j of band g, flat row-major: closed-form, so a
// band's rows are one writer's sequence of batches.
func batchRows(g, j, k int) []int64 {
	n := 1 + (7*j+g)%histBatchMax
	flat := make([]int64, 0, n*k)
	for i := 0; i < n; i++ {
		a := bandLo(g) + int64(j*histBatchMax+i)
		flat = append(flat, a)
		if k > 1 {
			flat = append(flat, a*37%5000, a/3%64*100)
		}
	}
	return flat
}

type hkind int

const (
	hQuery hkind = iota
	hConj
	hAppend
	hCheckpoint
	hIdle
	hKill // boundaries, run by no client
	hTear
	hDrop
)

var hkindNames = []string{"query", "conj", "append", "checkpoint", "idle", "kill", "tear", "drop"}

// hop is one script step: a client's op in a phase, or the boundary
// after a phase (client -1); its own seed makes it mean the same
// whatever a shrink removed around it.
type hop struct {
	phase, client int
	kind          hkind
	seed          int64
}

// drawHistory draws a seed's script: per phase, each client's ops, then
// a boundary; the last boundary is a kill, so recovery is always checked.
func drawHistory(seed int64, ax histAxes) []hop {
	rng := rand.New(rand.NewSource(seed))
	weights := []int{5, 3, 4, 2, 1}
	var ops []hop
	for p := 0; p < histPhases; p++ {
		for c := 0; c < ax.clients; c++ {
			for i := 0; i < histOps; i++ {
				x, k := rng.Intn(15), 0
				for x >= weights[k] {
					x -= weights[k]
					k++
				}
				ops = append(ops, hop{p, c, hkind(k), rng.Int63()})
			}
		}
		b := []hkind{hKill, hTear, hDrop}[rng.Intn(3)]
		if p == histPhases-1 {
			b = hKill
		}
		ops = append(ops, hop{p, -1, b, rng.Int63()})
	}
	return ops
}

// syncedFS records, for every file opened through it, the length its
// last fsync made durable; cut truncates each file to that, as a power
// cut leaves it. After freeze, syncs no longer count.
type syncedFS struct {
	fault.FS
	mu     sync.Mutex
	synced map[string]int64
	frozen bool
}

type syncedFile struct {
	fault.File
	fs *syncedFS
}

func (fs *syncedFS) track(f fault.File, err error) (fault.File, error) {
	if err != nil {
		return nil, err
	}
	st, err := os.Stat(f.Name())
	if err != nil {
		return nil, err
	}
	// What an earlier life left is on disk; a file created now, under a
	// name a dropped table's file once had, starts empty.
	fs.mu.Lock()
	fs.synced[f.Name()] = st.Size()
	fs.mu.Unlock()
	return &syncedFile{f, fs}, nil
}

func (fs *syncedFS) OpenFile(op fault.Op, name string, flag int, perm os.FileMode) (fault.File, error) {
	return fs.track(fs.FS.OpenFile(op, name, flag, perm))
}

func (fs *syncedFS) CreateTemp(op fault.Op, dir, pattern string) (fault.File, error) {
	return fs.track(fs.FS.CreateTemp(op, dir, pattern))
}

// Rename and Truncate hold the lock across the file operation, so that
// the record changes in the order the files do: two checkpoints at one
// sequence number rename onto the same snapshot name, and the record
// must be the size of the one renamed last.
func (fs *syncedFS) Rename(op fault.Op, oldpath, newpath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.FS.Rename(op, oldpath, newpath); err != nil {
		return err
	}
	fs.synced[newpath] = fs.synced[oldpath]
	delete(fs.synced, oldpath)
	return nil
}

func (fs *syncedFS) Truncate(op fault.Op, name string, size int64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.FS.Truncate(op, name, size); err != nil {
		return err
	}
	if n, ok := fs.synced[name]; ok {
		fs.synced[name] = min(n, size)
	}
	return nil
}

func (f *syncedFile) Sync() error {
	if err := f.File.Sync(); err != nil {
		return err
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if st, err := os.Stat(f.Name()); err == nil && !f.fs.frozen {
		f.fs.synced[f.Name()] = st.Size()
	}
	return nil
}

func (fs *syncedFS) freeze() {
	fs.mu.Lock()
	fs.frozen = true
	fs.mu.Unlock()
}

// cut truncates every file to its synced length; with tear, a file's
// unsynced bytes keep a strict prefix instead, a frame cut in mid-write.
func (fs *syncedFS) cut(rng *rand.Rand, tear bool) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for name, n := range fs.synced {
		st, err := os.Stat(name)
		if err != nil || st.Size() <= n {
			continue
		}
		if extra := st.Size() - n; tear && extra >= 2 {
			n += 1 + rng.Int63n(extra-1)
		}
		if err := os.Truncate(name, n); err != nil {
			return err
		}
	}
	return nil
}

// batch is the accepted append of one of a band's batches: invoked at
// inv, returned at ret with status 200 (0: found by a recovery, as if
// acked before anything after it). An append answered with any other
// status is none: it is never visible and never recovered, and its
// writer sends the same batch again.
type batch struct {
	inv, ret uint64
	status   int
	torn     bool // appended after the kill froze the disk: lost for sure
}

// hquery is one answered query: what it asked, on which band (-1: none),
// and what it got between inv and ret.
type hquery struct {
	inv, ret uint64
	conj     query.Conjunction
	band     int
	got      QueryResponse
	line     int // its line in the run's log
}

// histRun is one run of a script against a fresh durable server.
type histRun struct {
	seed   int64
	ax     histAxes
	names  []string
	load   []int64
	loadC  [][]int64
	dir    string
	lives  int
	srv    *Server
	h      http.Handler
	fs     *syncedFS
	clock  atomic.Uint64
	bands  [][]batch // per band g, the batches its writer, client g, got accepted
	mu     sync.Mutex
	log    []string
	ev     histEvents
	failed error
	// reached is how far the run got: the ops of a later phase, and
	// the boundary of the phase it failed in unless it failed there, never
	// ran.
	reached hop
}

// histEvents counts, over a set of runs, what the history must cross.
type histEvents struct{ acked, failed, sheds, recoveries, tears, dropRaces int }

func (r *histRun) logf(format string, args ...any) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.log = append(r.log, fmt.Sprintf(format, args...))
	return len(r.log) - 1
}

// open starts a server over the run's directory, its disk behind a fresh
// injector: WAL writes and syncs a little slow, every few syncs failing
// once (within the retry ladder), and on some lives a torn WAL write now
// and then, the first as early as the life's second frame, so that a
// life with a few appends has a failed one whatever the shedding.
func (r *histRun) open() error {
	r.lives++
	rng := rand.New(rand.NewSource(r.seed*31 + int64(r.lives)))
	var rules []fault.Rule
	if rng.Intn(2) == 0 {
		rules = append(rules, fault.Rule{Op: fault.OpWALAppend, Kind: fault.KindTorn, After: 2, Every: 9 + rng.Intn(9)})
	}
	rules = append(rules,
		fault.Rule{Op: fault.OpWALAppend, Kind: fault.KindLatency, Latency: 300 * time.Microsecond},
		fault.Rule{Op: fault.OpWALSync, Kind: fault.KindError, After: 2, Every: 5 + rng.Intn(5)},
		fault.Rule{Op: fault.OpWALSync, Kind: fault.KindLatency, Latency: time.Millisecond})
	r.fs = &syncedFS{FS: fault.Injecting(fault.OS(), fault.NewInjector(rng.Int63(), rules...)), synced: map[string]int64{}}
	store, err := durable.OpenFS(r.dir, durable.SyncBatch, r.fs)
	if err != nil {
		return err
	}
	r.srv = New(Config{Store: store, SnapshotInterval: 1 << 40, QueueDepth: 1 + rng.Intn(4), MaxBatch: 1 + rng.Intn(8),
		Logger: slog.New(slog.DiscardHandler)})
	r.h = r.srv.Handler()
	warnings, err := r.srv.Recover()
	if err == nil && len(warnings) > 0 {
		err = fmt.Errorf("recovery warnings: %v", warnings)
	}
	return err
}

// serve runs one request through the handler, stamped by the clock.
func (r *histRun) serve(method, path string, body any) (status int, payload []byte, inv, ret uint64) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			panic(err)
		}
		rd = bytes.NewReader(b)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	inv = r.clock.Add(1)
	r.h.ServeHTTP(rec, req)
	ret = r.clock.Add(1)
	return rec.Code, rec.Body.Bytes(), inv, ret
}

func (r *histRun) loadTable() (int, []byte) {
	opts := &OptionsSpec{Strategy: r.ax.strategy, Delta: 0.25, Shards: r.ax.shards, Encoding: r.ax.enc, Columns: r.ax.columns}
	status, body, _, _ := r.serve(http.MethodPost, "/tables", LoadRequest{Name: histTable, Values: r.load, Options: opts})
	return status, body
}

// predOn draws a predicate on the first column touching at most band g
// (g < 0: none), in wire and query form.
func predOn(rng *rand.Rand, g int) (PredSpec, query.Predicate) {
	var lo, hi int64
	if g < 0 {
		switch rng.Intn(3) {
		case 0:
			v := bandLo(histBands) + rng.Int63n(2000)
			return PredSpec{Kind: "atleast", Value: &v}, query.AtLeast(v)
		case 1:
			v := rng.Int63n(histBandLo)
			return PredSpec{Kind: "atmost", Value: &v}, query.AtMost(v)
		}
		lo = bandLo(rng.Intn(histBands)) + histBandW // a gap
		hi = lo + histBandW - 1
	} else {
		lo, hi = bandLo(g), bandLo(g)+histBandW-1
		switch rng.Intn(3) {
		case 0:
			v := lo + rng.Int63n(histBandW)
			return PredSpec{Kind: "point", Value: &v}, query.Point(v)
		case 1:
			lo, hi = lo-rng.Int63n(histBandW), hi+rng.Int63n(histBandW) // the band and parts of its gaps
			return PredSpec{Kind: "range", Lo: &lo, Hi: &hi}, query.Range(lo, hi)
		}
	}
	x := lo + rng.Int63n(hi-lo+1)
	y := x + rng.Int63n(hi-x+1)
	return PredSpec{Kind: "range", Lo: &x, Hi: &y}, query.Range(x, y)
}

// aggNames are the wire names of column.AggSum, AggCount, AggMin,
// AggMax and AggAvg, bit by bit.
var aggNames = []string{"sum", "count", "min", "max", "avg"}

// drawAggs draws an aggregate set in wire and mask form.
func drawAggs(rng *rand.Rand) ([]string, column.Aggregates) {
	var names []string
	var mask column.Aggregates
	for i, n := range aggNames {
		if rng.Intn(3) == 0 {
			names = append(names, n)
			mask |= column.Aggregates(1) << i
		}
	}
	return names, mask
}

// client runs one client's ops of a phase.
func (r *histRun) client(c int, ops []hop, queries *[]hquery) {
	k := r.ax.k()
	for _, o := range ops {
		rng := rand.New(rand.NewSource(o.seed))
		switch o.kind {
		case hAppend:
			r.appendBatch(c, false)
		case hQuery, hConj:
			g := rng.Intn(r.ax.clients+1) - 1
			if rng.Intn(2) == 0 {
				g = c // its own band, which it may just have appended to
			}
			spec, pred := predOn(rng, g)
			aggs, mask := drawAggs(rng)
			req := QueryRequest{Pred: spec, Aggs: aggs}
			cj := query.Conjunction{Preds: []query.ColPredicate{{Pred: pred}}, Aggs: mask}
			if o.kind == hConj {
				req = QueryRequest{Predicates: []ColPredSpec{{Col: r.names[0], PredSpec: spec}}, Target: r.names[0], Aggs: aggs}
				cj = query.Conjunction{Preds: []query.ColPredicate{{Col: r.names[0], Pred: pred}}, Target: r.names[0], Aggs: mask}
				if k > 1 {
					tgt := r.names[rng.Intn(k)]
					req.Target, cj.Target = tgt, tgt
					if rng.Intn(2) == 0 {
						lo := rng.Int63n(5000)
						hi := lo + rng.Int63n(2000)
						req.Predicates = append(req.Predicates, ColPredSpec{Col: "b", PredSpec: PredSpec{Kind: "range", Lo: &lo, Hi: &hi}})
						cj.Preds = append(cj.Preds, query.On("b", query.Range(lo, hi)))
					} else {
						v := rng.Int63n(64) * 100
						req.Predicates = append(req.Predicates, ColPredSpec{Col: "c", PredSpec: PredSpec{Kind: "atleast", Value: &v}})
						cj.Preds = append(cj.Preds, query.On("c", query.AtLeast(v)))
					}
				}
			}
			status, body, inv, ret := r.serve(http.MethodPost, "/tables/"+histTable+"/query", req)
			line := r.logf("c%d [%d,%d] %s on band %d: %d %s", c, inv, ret, cj, g, status, strings.TrimSpace(string(body)))
			switch status {
			case http.StatusOK:
				q := hquery{inv: inv, ret: ret, conj: cj, band: g, line: line}
				if err := json.Unmarshal(body, &q.got); err != nil {
					r.fail(fmt.Errorf("line %d: %v", line, err))
				}
				*queries = append(*queries, q)
			case http.StatusTooManyRequests:
				r.count(func(e *histEvents) { e.sheds++ })
			default:
				r.fail(fmt.Errorf("line %d: a query answered %d", line, status))
			}
		case hCheckpoint:
			errs := r.srv.CheckpointAll(context.Background())
			r.logf("c%d checkpoint: %v", c, errs)
		case hIdle:
			d := time.Duration(rng.Intn(2000)) * time.Microsecond
			if rng.Intn(4) == 0 {
				d = 20 * time.Millisecond // a quiet spell: idle slices can converge the table
			}
			time.Sleep(d)
		}
	}
}

func (r *histRun) fail(err error) {
	r.mu.Lock()
	if r.failed == nil {
		r.failed = err
	}
	r.mu.Unlock()
}

func (r *histRun) count(f func(*histEvents)) {
	r.mu.Lock()
	f(&r.ev)
	r.mu.Unlock()
}

// appendReq is batch j of band g in the wire form of a table k columns wide.
func appendReq(g, j, k int) AppendRequest {
	flat := batchRows(g, j, k)
	if k == 1 {
		return AppendRequest{Values: flat}
	}
	var req AppendRequest
	for i := 0; i < len(flat); i += k {
		req.Rows = append(req.Rows, flat[i:i+k])
	}
	return req
}

// wrongClass says what is wrong with the status of a well-formed request:
// it is never 400, a fault of the disk (an error naming the WAL) is 503,
// and only a request that races a drop may find the table gone, 410 or
// 404.
func wrongClass(status int, body []byte, dropping bool) error {
	switch {
	case status == http.StatusOK, status == http.StatusTooManyRequests:
	case status == http.StatusServiceUnavailable && bytes.Contains(body, []byte("WAL")):
	case dropping && (status == http.StatusGone || status == http.StatusNotFound):
	default:
		return fmt.Errorf("a well-formed request answered %d %s", status, bytes.TrimSpace(body))
	}
	return nil
}

// appendBatch appends client c's next batch to its band. A batch answered
// with anything but 200 was not kept, so it is retried as the same
// batch, up to four tries, and at the client's next append after that.
// torn marks a batch sent after the disk froze.
func (r *histRun) appendBatch(c int, torn bool) {
	g, j, k := c, len(r.bands[c]), r.ax.k()
	req := appendReq(g, j, k)
	for try := 0; try < 4; try++ {
		status, body, inv, ret := r.serve(http.MethodPost, "/tables/"+histTable+"/append", req)
		line := r.logf("c%d [%d,%d] append band %d batch %d (%d rows): %d %s", c, inv, ret, g, j, len(batchRows(g, j, k))/k, status, strings.TrimSpace(string(body)))
		if err := wrongClass(status, body, false); err != nil {
			r.fail(fmt.Errorf("line %d: %v", line, err))
		}
		switch status {
		case http.StatusTooManyRequests:
			r.count(func(e *histEvents) { e.sheds++ })
		case http.StatusOK:
			r.bands[g] = append(r.bands[g], batch{inv: inv, ret: ret, status: status, torn: torn})
			if !torn {
				r.count(func(e *histEvents) { e.acked++ })
			}
			return
		default:
			r.count(func(e *histEvents) { e.failed++ })
		}
	}
}

// acrossDrop sends client c's next batch, then a query on its band, while
// the table is dropped, each again while it is shed (up to 100 tries), and
// returns the first answer of the wrong class.
func (r *histRun) acrossDrop(c int) error {
	lo, hi := bandLo(c), bandLo(c)+histBandW-1
	for _, req := range []struct {
		path string
		body any
	}{
		{"/append", appendReq(c, len(r.bands[c]), r.ax.k())},
		{"/query", QueryRequest{Pred: PredSpec{Kind: "range", Lo: &lo, Hi: &hi}}},
	} {
		for try := 0; try < 100; try++ {
			status, body, inv, ret := r.serve(http.MethodPost, "/tables/"+histTable+req.path, req.body)
			line := r.logf("c%d [%d,%d] %s racing the drop: %d %s", c, inv, ret, req.path[1:], status, strings.TrimSpace(string(body)))
			if err := wrongClass(status, body, true); err != nil {
				return fmt.Errorf("line %d: %v", line, err)
			}
			if status != http.StatusTooManyRequests {
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	return nil
}

// prefix is the range of band g's batches a query over [inv, ret] may
// see: at least those acked before it was invoked, at most those invoked
// before it returned.
func (r *histRun) prefix(g int, inv, ret uint64) (lo, hi int) {
	for j, b := range r.bands[g] {
		if !b.torn && b.ret < inv {
			lo = j + 1
		}
		if b.inv < ret {
			hi = j + 1
		}
	}
	return lo, hi
}

// sameWire compares a wire answer to the oracle's under the mask
// semantics: Count always, Sum when requested, Min, Max and Avg when
// requested and a row matched.
func sameWire(got QueryResponse, want query.Answer) bool {
	has := func(a column.Aggregates) bool { return want.Aggs.Has(a) && want.Count > 0 }
	same := func(p *int64, present bool, v int64) bool { return (p != nil) == present && (p == nil || *p == v) }
	return got.Count == want.Count && same(got.Sum, want.Aggs.Has(column.AggSum), want.Sum) &&
		same(got.Min, has(column.AggMin), want.Min) && same(got.Max, has(column.AggMax), want.Max) &&
		(got.Avg != nil) == has(column.AggAvg) && (got.Avg == nil || *got.Avg == want.Avg)
}

// check holds each answer to the oracle over the load plus some prefix
// of its band's batches between the bounds prefix gives: linear in the
// batches, since one writer owns each band.
func (r *histRun) check(qs []hquery) error {
	k := r.ax.k()
	for _, q := range qs {
		all := q.conj
		all.Aggs = column.AggAll
		agg := query.AnswerAgg(oracle.Conj(r.loadC, r.names, all))
		lo, hi := 0, 0
		if q.band >= 0 {
			lo, hi = r.prefix(q.band, q.inv, q.ret)
		}
		for j := 0; ; j++ {
			if j >= lo && sameWire(q.got, query.NewAnswer(agg, q.conj.Aggs.Normalize(), query.Stats{})) {
				break
			}
			if j >= hi {
				return fmt.Errorf("line %d: %s on band %d answered what the oracle gives over the load plus no prefix of batches [%d, %d] of the band",
					q.line, q.conj, q.band, lo, hi)
			}
			agg.Merge(query.AnswerAgg(oracle.Conj(oracle.Columns(batchRows(q.band, j, k), k), r.names, all)))
		}
	}
	return nil
}

// bandCount asks the recovered table for COUNT and SUM over band g's
// whole range and finds the prefix of its batches they are.
func (r *histRun) bandCount(g int) (int, error) {
	lo, hi := bandLo(g), bandLo(g)+histBandW-1
	status, body, _, _ := r.serve(http.MethodPost, "/tables/"+histTable+"/query", QueryRequest{Pred: PredSpec{Kind: "range", Lo: &lo, Hi: &hi}})
	var got QueryResponse
	if status != http.StatusOK || json.Unmarshal(body, &got) != nil || got.Sum == nil {
		return 0, fmt.Errorf("band %d after recovery: %d %s", g, status, body)
	}
	want := oracle.Agg(r.loadC[0], query.Range(lo, hi))
	for j := 0; j <= len(r.bands[g]); j++ {
		if got.Count == want.Count && *got.Sum == want.Sum {
			return j, nil
		}
		if j < len(r.bands[g]) {
			want.Merge(oracle.Agg(oracle.Columns(batchRows(g, j, r.ax.k()), r.ax.k())[0], query.Range(lo, hi)))
		}
	}
	return 0, fmt.Errorf("band %d after recovery holds count %d, sum %d: no prefix of its %d batches", g, got.Count, *got.Sum, len(r.bands[g]))
}

// kill freezes the disk, optionally tears one more append, stops the
// server hard and cuts every file to what it synced; then it recovers
// and checks each band is a prefix of its writer's batches that holds
// every acked one and no torn one.
func (r *histRun) kill(o hop) error {
	rng := rand.New(rand.NewSource(o.seed))
	r.fs.freeze()
	tear := o.kind == hTear
	if tear {
		r.appendBatch(0, true)
	}
	r.srv.Close()
	if err := r.fs.cut(rng, tear); err != nil {
		return err
	}
	r.logf("%s and recover", hkindNames[o.kind])
	if err := r.open(); err != nil {
		return err
	}
	r.count(func(e *histEvents) { e.recoveries++ })
	rows := histLoaded
	for g, bs := range r.bands {
		if len(bs) == 0 {
			continue
		}
		n, err := r.bandCount(g)
		if err != nil {
			return err
		}
		for j, b := range bs {
			if j < n && b.torn || j >= n && !b.torn {
				return fmt.Errorf("band %d recovered %d of its %d batches: batch %d (status %d, torn %v)", g, n, len(bs), j, b.status, b.torn)
			}
		}
		if slices.ContainsFunc(bs, func(b batch) bool { return b.torn }) {
			r.count(func(e *histEvents) { e.tears++ })
		}
		r.bands[g] = make([]batch, n) // status 0: there before anything after; its writer goes on at batch n
		for j := 0; j < n; j++ {
			rows += len(batchRows(g, j, r.ax.k())) / r.ax.k()
		}
	}
	var info struct{ Rows int }
	if status, body, _, _ := r.serve(http.MethodGet, "/tables/"+histTable, nil); status != http.StatusOK || json.Unmarshal(body, &info) != nil || info.Rows != rows {
		return fmt.Errorf("recovered table: %d %s, want %d rows", status, body, rows)
	}
	return nil
}

// drop drops the table while every client sends an append and a query,
// once a request waits behind a running batch (or after 2 ms); then it
// races loads of it against a client that drops it the moment it is
// served: whichever way each race goes, once both returned the table is
// not served. Then it loads it afresh.
func (r *histRun) drop(o hop) error {
	sched, _ := r.srv.Scheduler(histTable)
	errs := make([]error, r.ax.clients)
	var wg sync.WaitGroup
	for c := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = r.acrossDrop(c)
		}()
	}
	for i := 0; i < 20 && sched != nil && len(sched.tasks) == 0; i++ {
		time.Sleep(100 * time.Microsecond)
	}
	status, body, _, _ := r.serve(http.MethodDelete, "/tables/"+histTable, nil)
	wg.Wait()
	if status != http.StatusNoContent {
		return fmt.Errorf("drop: %d %s", status, body)
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for race := 0; race < 8; race++ {
		var loaded int
		var lbody []byte
		done := make(chan struct{})
		go func() {
			defer close(done)
			loaded, lbody = r.loadTable()
		}()
		dropped := 0
	poll:
		for {
			select {
			case <-done:
				break poll
			default:
			}
			if status, _, _, _ := r.serve(http.MethodGet, "/tables/"+histTable, nil); status == http.StatusOK {
				dropped, _, _, _ = r.serve(http.MethodDelete, "/tables/"+histTable, nil)
				break
			}
		}
		<-done
		r.logf("load %d %s raced a drop on its first answer: %d", loaded, strings.TrimSpace(string(lbody)), dropped)
		if loaded != http.StatusCreated && loaded != http.StatusGone {
			return fmt.Errorf("a load racing a drop: %d %s", loaded, lbody)
		}
		if dropped == 0 && loaded == http.StatusCreated {
			dropped, _, _, _ = r.serve(http.MethodDelete, "/tables/"+histTable, nil)
		} else if dropped != 0 {
			r.count(func(e *histEvents) { e.dropRaces++ })
		}
		lo, hi := int64(0), int64(histBandLo)
		status, body, _, _ := r.serve(http.MethodPost, "/tables/"+histTable+"/query", QueryRequest{Pred: PredSpec{Kind: "range", Lo: &lo, Hi: &hi}})
		if _, ok := r.srv.Scheduler(histTable); ok || status != http.StatusNotFound {
			return fmt.Errorf("a dropped table is still served: scheduler %v, a query answered %d %s", ok, status, body)
		}
	}
	if status, body := r.loadTable(); status != http.StatusCreated {
		return fmt.Errorf("reload: %d %s", status, body)
	}
	r.logf("drop and reload")
	for g := range r.bands {
		r.bands[g] = nil
	}
	return nil
}

// settle gives the table up to 20 ms to become quiescent, probing it
// until a query takes the route (a batch of one that never queued), so
// that a phase starts, where the table can, on the route and its
// appends end it.
func (r *histRun) settle() {
	lo, hi := int64(0), int64(100)
	for i := 0; i < 20; i++ {
		var got QueryResponse
		status, body, _, _ := r.serve(http.MethodPost, "/tables/"+histTable+"/query", QueryRequest{Pred: PredSpec{Kind: "range", Lo: &lo, Hi: &hi}})
		if status == http.StatusOK && json.Unmarshal(body, &got) == nil && got.BatchSize == 1 && got.QueueMicros == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// runHistory plays ops against a fresh durable server, checks each
// phase's history, and returns the first failure.
func runHistory(t *testing.T, seed int64, ax histAxes, ops []hop) (r *histRun, err error) {
	r = &histRun{seed: seed, ax: ax, dir: t.TempDir(), names: []string{""}}
	if ax.k() > 1 {
		r.names = ax.columns
	}
	r.load = histLoad(seed, ax.k())
	r.loadC = oracle.Columns(r.load, ax.k())
	r.bands = make([][]batch, ax.clients)
	if err := r.open(); err != nil {
		return r, err
	}
	defer func() { r.srv.Close() }()
	if status, body := r.loadTable(); status != http.StatusCreated {
		return r, fmt.Errorf("load: %d %s", status, body)
	}
	for p := 0; p < histPhases; p++ {
		scripts := make([][]hop, ax.clients)
		var boundary []hop
		for _, o := range ops {
			switch {
			case o.phase != p:
			case o.client < 0:
				boundary = append(boundary, o)
			default:
				scripts[o.client] = append(scripts[o.client], o)
			}
		}
		r.settle()
		var wg sync.WaitGroup
		answered := make([][]hquery, ax.clients)
		for c := range scripts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.client(c, scripts[c], &answered[c])
			}()
		}
		wg.Wait()
		r.reached = hop{phase: p}
		if r.failed != nil {
			return r, r.failed
		}
		for _, qs := range answered {
			if err := r.check(qs); err != nil {
				return r, err
			}
		}
		for _, o := range boundary {
			r.reached = o
			if o.kind == hDrop {
				err = r.drop(o)
			} else {
				err = r.kill(o)
			}
			if err != nil {
				return r, fmt.Errorf("%s after phase %d: %w", hkindNames[o.kind], p+1, err)
			}
		}
	}
	return r, nil
}

// failing runs ops up to five times, since a concurrent history need
// not fail every time, and returns the first failing run.
func failing(t *testing.T, seed int64, ax histAxes, ops []hop) (*histRun, error) {
	for i := 0; i < 5; i++ {
		if r, err := runHistory(t, seed, ax, ops); err != nil {
			return r, err
		}
	}
	return nil, nil
}

// shrinkHistory drops chunks of ops, halving the chunk down to single
// ops, and keeps every removal after which the script still fails; it
// returns the ops left and their failing run.
func shrinkHistory(t *testing.T, seed int64, ax histAxes, ops []hop, r *histRun, err error) ([]hop, *histRun, error) {
	ran := slices.DeleteFunc(slices.Clone(ops), func(o hop) bool {
		return o.phase > r.reached.phase || o.phase == r.reached.phase && o.client < 0 && r.reached.client >= 0
	})
	if cr, cerr := failing(t, seed, ax, ran); cerr != nil {
		ops, r, err = ran, cr, cerr
	}
	for chunk := len(ops) / 2; chunk >= 1; chunk /= 2 {
		for i := 0; i+chunk <= len(ops); {
			cand := append(slices.Clone(ops[:i]), ops[i+chunk:]...)
			if cr, cerr := failing(t, seed, ax, cand); cerr != nil {
				ops, r, err = cand, cr, cerr
			} else {
				i += chunk
			}
		}
	}
	return ops, r, err
}

// TestServedHistory is the served daemon's concurrent model test: per
// seed, it loads one durable table through the HTTP handler, in process,
// with one combination of strategy, shards, encoding and schema, and
// drives it from 2–4 client goroutines through seeded scripts of
// queries, conjunctions, appends, checkpoints and idle waits, in phases
// separated by a drop and reload (raced by loads dropped the moment they
// serve) or a kill (every file cut to what it synced, maybe a torn frame
// on top) and recovery, on a disk that slows, fails and tears. Each
// writer appends in a value band of its own, so every answer is checked
// against the oracle over the load plus a prefix of one band's batches
// (DESIGN §16), and every recovery against the acked batches. A failure
// is shrunk and reported with its seed and history; replay one seed
// with -run 'TestServedHistory/seed=N$' -history.seeds M (M > N).
func TestServedHistory(t *testing.T) {
	seeds := historyTier1
	if *historySeeds > 0 {
		seeds = nil
		for s := int64(0); s < int64(*historySeeds); s++ {
			seeds = append(seeds, s)
		}
	}
	seen := map[string]bool{}
	for _, seed := range seeds {
		ax := histAxesOf(seed)
		seen["s"+ax.strategy], seen[fmt.Sprint("h", ax.shards)], seen["e"+ax.enc], seen[fmt.Sprint("c", ax.k())] = true, true, true, true
	}
	if *historySeeds == 0 && len(seen) != 4+2+2+2 {
		t.Fatal("the tier-1 seeds do not reach every strategy, shard count, encoding and schema")
	}
	var total histEvents
	ran := 0
	for _, seed := range seeds {
		ax := histAxesOf(seed)
		ok := t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ops := drawHistory(seed, ax)
			r, err := runHistory(t, seed, ax, ops)
			if err == nil {
				total.acked += r.ev.acked
				total.failed += r.ev.failed
				total.sheds += r.ev.sheds
				total.recoveries += r.ev.recoveries
				total.tears += r.ev.tears
				total.dropRaces += r.ev.dropRaces
				ran++
				return
			}
			min, r, err := shrinkHistory(t, seed, ax, ops, r, err)
			var b strings.Builder
			for _, o := range min {
				fmt.Fprintf(&b, "\n  phase %d client %d %s", o.phase+1, o.client, hkindNames[o.kind])
			}
			b.WriteString("\nits history:")
			for i, line := range r.log {
				fmt.Fprintf(&b, "\n  %3d. %s", i, line)
			}
			t.Fatalf("seed %d, %s: %v\nminimal script (%d of %d ops):%s", seed, ax, err, len(min), len(ops), b.String())
		})
		if !ok {
			break
		}
	}
	// A run of some seeds (-run 'TestServedHistory/seed=N$') need not see everything.
	if ran == len(seeds) && (total.acked == 0 || total.failed == 0 || total.recoveries == 0 || total.tears == 0 || total.dropRaces == 0) {
		t.Fatalf("vacuous seed set: %+v", total)
	}
	t.Logf("%+v", total)
}
