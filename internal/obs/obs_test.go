package obs

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTraceIsNoop(t *testing.T) {
	var tr *Trace
	id := tr.Start(NoSpan, "x")
	if id != NoSpan {
		t.Fatalf("nil trace Start = %d, want NoSpan", id)
	}
	tr.Int(id, "k", 1)
	tr.Str(id, "k", "v")
	tr.Float(id, "k", 1.5)
	tr.Bool(id, "k", true)
	tr.End(id)
	tr.SetAttach(id)
	tr.Finish()
	if tree := tr.Tree(); tree != nil {
		t.Fatalf("nil trace Tree = %v, want nil", tree)
	}
	if d := tr.Duration(); d != 0 {
		t.Fatalf("nil trace Duration = %v, want 0", d)
	}
}

func TestTraceTreeStructure(t *testing.T) {
	tr := NewTrace("query", "tbl")
	a := tr.Start(tr.Root(), "execute")
	tr.Int(a, "batch", 3)
	b := tr.Start(a, "shard")
	tr.Bool(b, "pruned", true)
	tr.End(b)
	c := tr.Start(a, "shard")
	tr.Str(c, "encoding", "raw")
	tr.End(c)
	tr.End(a)
	tr.Finish()

	tree := tr.Tree()
	if tree.Table != "tbl" || tree.Root.Name != "query" {
		t.Fatalf("root = %q table = %q", tree.Root.Name, tree.Table)
	}
	if len(tree.Root.Children) != 1 {
		t.Fatalf("root children = %d, want 1", len(tree.Root.Children))
	}
	exec := tree.Root.Children[0]
	if exec.Name != "execute" || len(exec.Children) != 2 {
		t.Fatalf("execute children = %d, want 2", len(exec.Children))
	}
	if exec.Attrs["batch"] != int64(3) {
		t.Fatalf("batch attr = %v", exec.Attrs["batch"])
	}
	if exec.Children[0].Attrs["pruned"] != true {
		t.Fatalf("pruned attr = %v", exec.Children[0].Attrs["pruned"])
	}
	if exec.Children[1].Attrs["encoding"] != "raw" {
		t.Fatalf("encoding attr = %v", exec.Children[1].Attrs["encoding"])
	}
	// Child spans must fit inside their parent's window.
	for _, ch := range exec.Children {
		if ch.StartMicros < exec.StartMicros {
			t.Fatalf("child starts before parent: %d < %d", ch.StartMicros, exec.StartMicros)
		}
		if ch.StartMicros+ch.DurMicros > exec.StartMicros+exec.DurMicros+1 {
			t.Fatalf("child ends after parent: %d > %d",
				ch.StartMicros+ch.DurMicros, exec.StartMicros+exec.DurMicros)
		}
	}
	if s := tr.String(); !strings.Contains(s, "execute") || !strings.Contains(s, "shard") {
		t.Fatalf("String() missing spans: %q", s)
	}
}

func TestTraceFinishClosesOpenSpans(t *testing.T) {
	tr := NewTrace("query", "t")
	id := tr.Start(tr.Root(), "left-open")
	time.Sleep(time.Millisecond)
	tr.Finish()
	tree := tr.Tree()
	if tree.Root.DurMicros <= 0 {
		t.Fatalf("root duration = %d, want > 0", tree.Root.DurMicros)
	}
	_ = id
	if tree.Root.Children[0].DurMicros <= 0 {
		t.Fatalf("open child duration = %d, want > 0", tree.Root.Children[0].DurMicros)
	}
}

func TestTraceRingEvictionOrder(t *testing.T) {
	r := NewTraceRing(3)
	for i := 0; i < 5; i++ {
		tr := NewTrace("query", "t"+strconv.Itoa(i))
		tr.Finish()
		r.Add(tr)
	}
	got := r.Snapshot()
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	// Newest first: t4, t3, t2.
	for i, want := range []string{"t4", "t3", "t2"} {
		if got[i].Table() != want {
			t.Fatalf("snapshot[%d] = %q, want %q", i, got[i].Table(), want)
		}
	}
}

func TestTraceRingConcurrent(t *testing.T) {
	r := NewTraceRing(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr := NewTrace("query", "t")
				sp := tr.Start(tr.Root(), "child")
				tr.Int(sp, "i", int64(i))
				tr.End(sp)
				tr.Finish()
				r.Add(tr)
				if i%16 == 0 {
					for _, snap := range r.Snapshot() {
						_ = snap.Tree()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != 16 {
		t.Fatalf("ring len = %d, want 16", r.Len())
	}
}

func TestTraceConcurrentSpans(t *testing.T) {
	// Per-shard spans are recorded from pool workers concurrently.
	tr := NewTrace("query", "t")
	parent := tr.Start(tr.Root(), "fanout")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp := tr.Start(parent, "shard")
				tr.Int(sp, "shard", int64(g))
				tr.End(sp)
			}
		}(g)
	}
	wg.Wait()
	tr.End(parent)
	tr.Finish()
	tree := tr.Tree()
	if n := len(tree.Root.Children[0].Children); n != 800 {
		t.Fatalf("fanout children = %d, want 800", n)
	}
}

func TestTimelineRingWrapAndOrder(t *testing.T) {
	tl := NewTimeline(4)
	for i := 0; i < 10; i++ {
		tl.Record(EvProgress, -1, float64(i)/10, 0.1)
	}
	got := tl.Snapshot()
	if len(got) != 4 {
		t.Fatalf("len = %d, want 4", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq != got[i-1].Seq+1 {
			t.Fatalf("seq not monotonic: %d then %d", got[i-1].Seq, got[i].Seq)
		}
	}
	if got[len(got)-1].Seq != 10 {
		t.Fatalf("newest seq = %d, want 10", got[len(got)-1].Seq)
	}
}

func TestTimelineConcurrent(t *testing.T) {
	tl := NewTimeline(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tl.Record(EvShardSeal, int32(i%7), float64(i), 0)
				if i%32 == 0 {
					for _, e := range tl.Snapshot() {
						_ = e.JSON()
					}
				}
			}
		}()
	}
	wg.Wait()
	if tl.Len() != 64 {
		t.Fatalf("len = %d, want 64", tl.Len())
	}
}

func TestEventKindNamesAndJSON(t *testing.T) {
	for k := EventKind(0); k < numEventKinds; k++ {
		if k.String() == "unknown" || k.String() == "" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	e := Event{Seq: 3, Kind: EvShardClaim, Shard: 2, A: 100}
	j := e.JSON()
	if j.Kind != "shard_claim" || j.Shard == nil || *j.Shard != 2 || j.Attrs["rows"] != int64(100) {
		t.Fatalf("claim JSON = %+v", j)
	}
}

func TestHistogramExposeMonotonic(t *testing.T) {
	h := NewHistogram(0.001, 0.01, 0.1, 1)
	vals := []float64{0.0005, 0.005, 0.005, 0.05, 0.5, 5, 0.2}
	for _, v := range vals {
		h.Observe(v)
	}
	if h.Count() != uint64(len(vals)) {
		t.Fatalf("count = %d, want %d", h.Count(), len(vals))
	}
	var b strings.Builder
	h.Expose(&b, "x_seconds", `table="t"`)
	out := b.String()
	var prev uint64
	var lines, infCum uint64
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasPrefix(line, "x_seconds_bucket") {
			continue
		}
		lines++
		f := strings.Fields(line)
		n, err := strconv.ParseUint(f[len(f)-1], 10, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if n < prev {
			t.Fatalf("buckets not cumulative: %d after %d in\n%s", n, prev, out)
		}
		prev = n
		if strings.Contains(line, `le="+Inf"`) {
			infCum = n
		}
	}
	if lines != 5 {
		t.Fatalf("bucket lines = %d, want 5\n%s", lines, out)
	}
	if infCum != uint64(len(vals)) {
		t.Fatalf("+Inf cumulative = %d, want %d", infCum, len(vals))
	}
	if !strings.Contains(out, `x_seconds_count{table="t"} 7`) {
		t.Fatalf("missing count line:\n%s", out)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(ExpBuckets(0.0001, 2, 16)...)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i%100) / 1000)
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
}

func TestRegistrySampleRate(t *testing.T) {
	r := NewRegistry(Config{SampleEvery: 4})
	n := 0
	for i := 0; i < 400; i++ {
		if r.Sample() {
			n++
		}
	}
	if n != 100 {
		t.Fatalf("sampled %d of 400 at 1-in-4", n)
	}
	off := NewRegistry(Config{})
	for i := 0; i < 100; i++ {
		if off.Sample() {
			t.Fatal("sampled with sampling disabled")
		}
	}
	if off.SlowThreshold() != DefaultSlowQuery {
		t.Fatalf("default slow threshold = %v", off.SlowThreshold())
	}
	dis := NewRegistry(Config{SlowQuery: -1})
	if dis.SlowThreshold() != 0 {
		t.Fatalf("disabled slow threshold = %v", dis.SlowThreshold())
	}
}

func TestRegistryTables(t *testing.T) {
	r := NewRegistry(Config{EventRingCap: 4})
	a, b := r.NewTable(), r.NewTable()
	if a == b || a.Timeline == b.Timeline || a.QueryDur == b.QueryDur {
		t.Fatal("two tables share their state")
	}
	for i := 0; i < 6; i++ {
		a.Timeline.Record(EvProgress, -1, 0.5, 0)
	}
	if n := len(a.Timeline.Snapshot()); n != 4 {
		t.Fatalf("a table's timeline holds %d events, want the ring's 4", n)
	}
	if n := len(b.Timeline.Snapshot()); n != 0 {
		t.Fatalf("another table's timeline holds %d events, want none", n)
	}
	var off *Registry
	if off.NewTable() != nil {
		t.Fatal("a nil registry built a table")
	}
}

// The recording paths must not allocate: Timeline.Record writes into
// preallocated ring storage and Histogram.Observe is atomic adds.
// These pins are what lets the shard/seal/scheduler paths record
// unconditionally.
func TestRecordingZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are meaningless under -race instrumentation")
	}
	tl := NewTimeline(32)
	if n := testing.AllocsPerRun(100, func() {
		tl.Record(EvProgress, -1, 0.5, 0.01)
	}); n != 0 {
		t.Fatalf("Timeline.Record allocates %v per call", n)
	}
	h := NewHistogram(ExpBuckets(0.0001, 2, 16)...)
	if n := testing.AllocsPerRun(100, func() {
		h.Observe(0.003)
	}); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v per call", n)
	}
	var tr *Trace
	if n := testing.AllocsPerRun(100, func() {
		sp := tr.Start(NoSpan, "x")
		tr.Int(sp, "k", 1)
		tr.End(sp)
	}); n != 0 {
		t.Fatalf("nil-trace span recording allocates %v per call", n)
	}
	r := NewRegistry(Config{})
	if n := testing.AllocsPerRun(100, func() {
		if r.Sample() {
			t.Fatal("unexpected sample")
		}
	}); n != 0 {
		t.Fatalf("Registry.Sample allocates %v per call", n)
	}
}

func TestReplayProgress(t *testing.T) {
	tl := NewTimeline(8)
	if d, tot := tl.ReplayProgress(); d != 0 || tot != 0 {
		t.Fatalf("initial replay progress = %d/%d", d, tot)
	}
	tl.SetReplayProgress(3, 10)
	if d, tot := tl.ReplayProgress(); d != 3 || tot != 10 {
		t.Fatalf("replay progress = %d/%d, want 3/10", d, tot)
	}
	var nilTL *Timeline
	nilTL.SetReplayProgress(1, 1)
	nilTL.Record(EvReplay, -1, 0, 0)
}
