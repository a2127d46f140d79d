// Package obs is the observability layer for the progressive-index
// serving stack: per-query span traces, per-table convergence event
// timelines, and fixed-bucket Prometheus-style histograms. Everything
// here is designed around one constraint from DESIGN.md section 13 —
// when sampling is off, the serving hot path must not allocate. The
// trace API is nil-tolerant (every method on a nil *Trace is a no-op),
// the event ring records into preallocated storage, and the histograms
// are arrays of atomics, so the instrumented code can call into obs
// unconditionally and pay only a pointer test when tracing is
// disabled.
package obs

import (
	"strconv"
	"strings"
	"sync"
	"time"
)

// SpanID names one span inside a Trace (its index in the flat span
// slice). NoSpan is returned by Start on a nil trace; passing it back
// as a parent attaches to the root.
type SpanID int32

// NoSpan is the SpanID returned when no span was started (nil trace).
const NoSpan SpanID = -1

// attr is one typed key/value attribute on a span. Values are stored
// in dedicated fields rather than an interface so recording an
// integer attribute does not box.
type attr struct {
	key  string
	str  string
	num  int64
	f    float64
	kind uint8 // 0 = int, 1 = string, 2 = float, 3 = bool
}

const (
	attrInt uint8 = iota
	attrStr
	attrFloat
	attrBool
)

// span is one timed operation inside a trace. start is an offset from
// the trace's start time so the JSON rendering is self-relative.
type span struct {
	name   string
	parent SpanID
	start  time.Duration
	dur    time.Duration
	attrs  []attr
	open   bool
}

// Trace is a span tree for one query's lifecycle. A trace is created
// by the scheduler when the query is admitted (sampled, forced via
// ?trace=1, or synthesized retroactively for a slow query) and handed
// down the execute path; layers attach child spans under the current
// attach point. Span recording is mutex-protected because the shard
// fan-out records per-shard spans from pool workers concurrently.
//
// All methods are safe on a nil receiver and do nothing, so
// instrumented code never needs a "tracing on?" branch.
type Trace struct {
	mu     sync.Mutex
	name   string
	table  string
	start  time.Time
	spans  []span
	attach SpanID
	retro  bool
}

// NewTrace starts a trace whose root span is named name.
func NewTrace(name, table string) *Trace {
	t := &Trace{name: name, table: table, start: time.Now(), attach: 0}
	t.spans = append(t.spans, span{name: name, parent: NoSpan, open: true})
	return t
}

// newRetroTrace builds a trace flagged as synthesized after the fact
// (slow-query retro-traces); the registry uses it so the JSON carries
// retro=true.
func newRetroTrace(name, table string, start time.Time) *Trace {
	t := &Trace{name: name, table: table, start: start, attach: 0, retro: true}
	t.spans = append(t.spans, span{name: name, parent: NoSpan, open: true})
	return t
}

// Table reports the table the traced query ran against.
func (t *Trace) Table() string {
	if t == nil {
		return ""
	}
	return t.table
}

// Start opens a child span under parent and returns its ID. Pass
// NoSpan (or Root()) to attach to the root span.
func (t *Trace) Start(parent SpanID, name string) SpanID {
	if t == nil {
		return NoSpan
	}
	return t.StartAt(parent, name, time.Now())
}

// StartAt is Start with an explicit start time, used when the caller
// already measured the boundary (e.g. admission timestamps captured
// before the trace existed).
func (t *Trace) StartAt(parent SpanID, name string, at time.Time) SpanID {
	if t == nil {
		return NoSpan
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent < 0 || int(parent) >= len(t.spans) {
		parent = 0
	}
	id := SpanID(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, start: at.Sub(t.start), open: true})
	return id
}

// Root returns the root span's ID.
func (t *Trace) Root() SpanID {
	if t == nil {
		return NoSpan
	}
	return 0
}

// SetAttach records the span under which downstream layers (the index
// handle) should attach their children; AttachPoint reads it back.
// The scheduler sets this to its "execute" span before dispatching a
// batch so the handle's per-shard spans nest correctly without the
// Handle interface knowing about span IDs.
func (t *Trace) SetAttach(id SpanID) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.attach = id
	t.mu.Unlock()
}

// AttachPoint returns the current attach point (the root if never
// set).
func (t *Trace) AttachPoint() SpanID {
	if t == nil {
		return NoSpan
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attach
}

// End closes span id with the current time. Like Start, a nil trace
// costs a pointer test, not a clock read.
func (t *Trace) End(id SpanID) {
	if t != nil {
		t.EndAt(id, time.Now())
	}
}

// EndAt closes span id at an explicit time.
func (t *Trace) EndAt(id SpanID, at time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) >= len(t.spans) || !t.spans[id].open {
		return
	}
	t.spans[id].dur = at.Sub(t.start) - t.spans[id].start
	if t.spans[id].dur < 0 {
		t.spans[id].dur = 0
	}
	t.spans[id].open = false
}

// Int records an integer attribute on span id.
func (t *Trace) Int(id SpanID, key string, v int64) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) >= len(t.spans) {
		return
	}
	t.spans[id].attrs = append(t.spans[id].attrs, attr{key: key, num: v, kind: attrInt})
}

// Str records a string attribute on span id.
func (t *Trace) Str(id SpanID, key, v string) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) >= len(t.spans) {
		return
	}
	t.spans[id].attrs = append(t.spans[id].attrs, attr{key: key, str: v, kind: attrStr})
}

// Float records a float attribute on span id.
func (t *Trace) Float(id SpanID, key string, v float64) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) >= len(t.spans) {
		return
	}
	t.spans[id].attrs = append(t.spans[id].attrs, attr{key: key, f: v, kind: attrFloat})
}

// Bool records a boolean attribute on span id.
func (t *Trace) Bool(id SpanID, key string, v bool) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) >= len(t.spans) {
		return
	}
	var n int64
	if v {
		n = 1
	}
	t.spans[id].attrs = append(t.spans[id].attrs, attr{key: key, num: n, kind: attrBool})
}

// Finish closes the root span (and any span left open) and freezes
// the trace. After Finish the trace is immutable and safe to share
// with the trace ring and HTTP renderers without locking.
func (t *Trace) Finish() { t.FinishAt(time.Now()) }

// FinishAt is Finish with an explicit end time (retro-traces replay
// recorded timestamps).
func (t *Trace) FinishAt(at time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if t.spans[i].open {
			t.spans[i].dur = at.Sub(t.start) - t.spans[i].start
			if t.spans[i].dur < 0 {
				t.spans[i].dur = 0
			}
			t.spans[i].open = false
		}
	}
}

// Duration reports the root span's duration (valid after Finish).
func (t *Trace) Duration() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[0].dur
}

// SpanJSON is the wire form of one span; Tree renders the whole trace
// into it. It marshals with encoding/json at the debug endpoints, far
// from the hot path.
type SpanJSON struct {
	Name        string         `json:"name"`
	StartMicros int64          `json:"start_us"`
	DurMicros   int64          `json:"dur_us"`
	Attrs       map[string]any `json:"attrs,omitempty"`
	Children    []*SpanJSON    `json:"children,omitempty"`
}

// TraceJSON is the wire form of a whole trace.
type TraceJSON struct {
	Table string    `json:"table"`
	Start time.Time `json:"start"`
	Retro bool      `json:"retro,omitempty"`
	Root  *SpanJSON `json:"root"`
}

// Tree renders the trace as a nested span tree. Call after Finish.
func (t *Trace) Tree() *TraceJSON {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	nodes := make([]*SpanJSON, len(t.spans))
	for i, sp := range t.spans {
		n := &SpanJSON{
			Name:        sp.name,
			StartMicros: sp.start.Microseconds(),
			DurMicros:   sp.dur.Microseconds(),
		}
		if len(sp.attrs) > 0 {
			n.Attrs = make(map[string]any, len(sp.attrs))
			for _, a := range sp.attrs {
				switch a.kind {
				case attrInt:
					n.Attrs[a.key] = a.num
				case attrStr:
					n.Attrs[a.key] = a.str
				case attrFloat:
					n.Attrs[a.key] = a.f
				case attrBool:
					n.Attrs[a.key] = a.num != 0
				}
			}
		}
		nodes[i] = n
	}
	for i, sp := range t.spans {
		if i == 0 {
			continue
		}
		p := sp.parent
		if p < 0 || int(p) >= len(nodes) {
			p = 0
		}
		nodes[p].Children = append(nodes[p].Children, nodes[i])
	}
	return &TraceJSON{Table: t.table, Start: t.start, Retro: t.retro, Root: nodes[0]}
}

// String renders a compact one-line-per-span view for logs and docs:
// indentation is nesting depth, durations in microseconds.
func (t *Trace) String() string {
	tree := t.Tree()
	if tree == nil {
		return ""
	}
	var b strings.Builder
	var walk func(n *SpanJSON, depth int)
	walk = func(n *SpanJSON, depth int) {
		for i := 0; i < depth; i++ {
			b.WriteString("  ")
		}
		b.WriteString(n.Name)
		b.WriteString(" ")
		b.WriteString(strconv.FormatInt(n.DurMicros, 10))
		b.WriteString("us")
		for k, v := range n.Attrs {
			b.WriteString(" ")
			b.WriteString(k)
			b.WriteString("=")
			switch x := v.(type) {
			case int64:
				b.WriteString(strconv.FormatInt(x, 10))
			case float64:
				b.WriteString(strconv.FormatFloat(x, 'g', 4, 64))
			case string:
				b.WriteString(x)
			case bool:
				b.WriteString(strconv.FormatBool(x))
			}
		}
		b.WriteString("\n")
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(tree.Root, 0)
	return b.String()
}

// TraceRing retains the last N finished traces for GET /debug/traces.
type TraceRing struct {
	mu   sync.Mutex
	ring []*Trace
	pos  int
	n    int
}

// NewTraceRing builds a ring holding up to capacity traces (minimum 1).
func NewTraceRing(capacity int) *TraceRing {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceRing{ring: make([]*Trace, capacity)}
}

// Add retains a finished trace, evicting the oldest when full.
func (r *TraceRing) Add(t *Trace) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	r.ring[r.pos] = t
	r.pos = (r.pos + 1) % len(r.ring)
	if r.n < len(r.ring) {
		r.n++
	}
	r.mu.Unlock()
}

// Snapshot returns the retained traces, newest first.
func (r *TraceRing) Snapshot() []*Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Trace, 0, r.n)
	for i := 0; i < r.n; i++ {
		idx := (r.pos - 1 - i + 2*len(r.ring)) % len(r.ring)
		out = append(out, r.ring[idx])
	}
	return out
}

// Len reports how many traces the ring currently holds.
func (r *TraceRing) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}
