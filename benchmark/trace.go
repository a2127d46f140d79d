package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one recorded interval. The spans of one request share Req;
// Parent is the ID of the span that caused this one, -1 for the
// request's root. Times are microseconds from the traced window's
// start.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Req     int     `json:"req"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`
	SelfUs  float64 `json:"self_us"`
}

// spanTotals sums one span name over a traced window.
type spanTotals struct {
	count  int
	durUs  float64
	selfUs float64
}

// traceFileRequests caps how many requests' spans are kept for the
// trace file; totals cover every traced request.
const traceFileRequests = 2000

// tracer collects the spans of a traced window in memory. The
// benchmark records loadgen.request (due to done) and, inside it,
// net.roundtrip (send to last byte) around its own calls; the span
// tree the server returns for a ?trace=1 request is grafted under
// net.roundtrip. Appends return no server tree.
type tracer struct {
	epoch time.Time

	mu                          sync.Mutex
	requests                    int
	spans                       []span
	totals                      map[string]*spanTotals
	shardsScanned, shardsPruned int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), totals: make(map[string]*spanTotals)}
}

// node is a span while its request's tree is being built.
type node struct {
	name       string
	start, end float64 // µs from epoch
	children   []*node
}

func (t *tracer) us(at time.Time) float64 {
	return float64(at.Sub(t.epoch)) / float64(time.Microsecond)
}

// record adds one request. It runs after the request's latency was
// taken, so decoding the trace does not count as latency.
func (t *tracer) record(due, sent, done time.Time, isAppend bool, body []byte) {
	trip := &node{name: "net.roundtrip", start: t.us(sent), end: t.us(done)}
	root := &node{name: "loadgen.request", start: t.us(due), end: t.us(done), children: []*node{trip}}
	var r reply
	if !isAppend && json.Unmarshal(body, &r) == nil && r.Trace != nil && r.Trace.Root != nil {
		trip.children = append(trip.children, graft(r.Trace.Root, t.us(r.Trace.Start)))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.shardsScanned += r.Stats.ShardsScanned
	t.shardsPruned += r.Stats.ShardsPruned
	t.add(root, -1, t.requests)
	t.requests++
}

// graft converts the server's span tree; its times are relative to the
// server trace's own start, at base µs from the epoch. Benchmark and
// server share a process, hence a clock.
func graft(s *obs.SpanJSON, base float64) *node {
	n := &node{name: s.Name, start: base + float64(s.StartMicros)}
	n.end = n.start + float64(s.DurMicros)
	for _, c := range s.Children {
		n.children = append(n.children, graft(c, base))
	}
	return n
}

// add walks a request's tree: totals for every span, and the span
// itself while the file still has room. Caller holds t.mu.
func (t *tracer) add(n *node, parent, req int) {
	self := n.end - n.start - covered(n)
	tot := t.totals[n.name]
	if tot == nil {
		tot = &spanTotals{}
		t.totals[n.name] = tot
	}
	tot.count++
	tot.durUs += n.end - n.start
	tot.selfUs += self
	id := -1
	if req < traceFileRequests {
		id = len(t.spans)
		t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: n.name,
			StartUs: n.start, DurUs: n.end - n.start, SelfUs: self})
	}
	for _, c := range n.children {
		t.add(c, id, req)
	}
}

// covered is the part of n's interval that its children cover: the
// union of their intervals clipped to n, since parallel children (a
// shard fan-out) overlap.
func covered(n *node) float64 {
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(n.children))
	for _, c := range n.children {
		a, b := max(c.start, n.start), min(c.end, n.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end float64
	for i, v := range ivs {
		if i == 0 || v.a > end {
			sum += v.b - v.a
			end = v.b
		} else if v.b > end {
			sum += v.b - end
			end = v.b
		}
	}
	return sum
}

// meanDur is a span name's duration per traced request, in µs; meanSelf
// its self time. Means add up: the self times of all names sum to the
// mean loadgen.request.
func (t *tracer) meanDur(name string) float64 {
	return t.perRequest(name, func(s *spanTotals) float64 { return s.durUs })
}
func (t *tracer) meanSelf(name string) float64 {
	return t.perRequest(name, func(s *spanTotals) float64 { return s.selfUs })
}

func (t *tracer) perRequest(name string, total func(*spanTotals) float64) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	tot := t.totals[name]
	if tot == nil || t.requests == 0 {
		return 0
	}
	return total(tot) / float64(t.requests)
}

// traceFile is what write puts on disk.
type traceFile struct {
	Workload string `json:"workload"`
	Requests int    `json:"requests"` // traced in the window; spans holds the first traceFileRequests
	Spans    []span `json:"spans"`
}

// write puts the kept spans in dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(traceFile{Workload: workload, Requests: t.requests, Spans: t.spans})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
