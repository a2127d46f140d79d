package shard

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/encode"
	"repro/internal/obs"

	"repro/internal/column"
	"repro/internal/oracle"
	"repro/internal/query"
)

// stubIndex is a minimal per-shard index for white-box tests: a
// predicated scan that "converges" after a fixed number of queries and
// records the budget scales it was handed.
type stubIndex struct {
	col       *column.Column
	queries   atomic.Int64 // atomic: converged stubs execute under the shared lock
	doneAfter int64
	scales    []float64
	suspends  int
}

func (s *stubIndex) Name() string { return "STUB" }

// ExecuteSlice records the slice it was handed: the shard layer calls it
// under the shard's write lock, and Execute, which records nothing, under
// the shared one.
func (s *stubIndex) ExecuteSlice(req query.Request, scale float64, suspend bool) (query.Answer, error) {
	s.scales = append(s.scales, scale)
	if suspend {
		s.suspends++
	}
	return s.Execute(req)
}

func (s *stubIndex) Execute(req query.Request) (query.Answer, error) {
	return query.Run(req, s.col.Min(), s.col.Max(), func(lo, hi int64, aggs column.Aggregates) (column.Agg, query.Stats) {
		s.queries.Add(1)
		return column.AggRange(s.col.Values(), lo, hi, aggs), query.Stats{Workers: 1}
	})
}

func (s *stubIndex) Converged() bool { return s.queries.Load() >= s.doneAfter }

func (s *stubIndex) Progress() float64 {
	if s.Converged() {
		return 1
	}
	return 0
}

func (s *stubIndex) Phase() query.Phase { return stubPhase(s.Converged()) }

// stubPhase is a stub's lifecycle: in creation until it has converged.
func stubPhase(converged bool) query.Phase {
	if converged {
		return query.PhaseDone
	}
	return query.PhaseCreation
}

func (s *stubIndex) ReleaseBase() bool { return false }

func stubFactory(doneAfter int64) Factory {
	return func(col *column.Column) query.Budgeted {
		return &stubIndex{col: col, doneAfter: doneAfter}
	}
}

// stubs returns the table's stub indexes in shard order. Tests observe
// what the factory built through the shard list, never through a log
// the factory keeps: shard.New runs the factory from the pool's
// workers, so build order is not shard order and a shared log would
// race.
func stubs(sh *Sharded) []*stubIndex {
	shards := sh.cur.Load().shards
	out := make([]*stubIndex, len(shards))
	for i, st := range shards {
		out[i] = st.idx.(*stubIndex)
	}
	return out
}

// clustered returns n sorted values 0..n-1: every shard gets a tight,
// disjoint zone map.
func clustered(n int) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	return vals
}

// TestPartitioning pins the row-range split and the zone maps computed
// during partitioning: S contiguous ranges covering every row exactly
// once, with true per-partition extrema.
func TestPartitioning(t *testing.T) {
	vals := []int64{5, -3, 9, 9, 0, -7, 2, 2, 11, 4}
	col := column.MustNew(vals)
	for _, S := range []int{1, 2, 3, 4, 10, 99} {
		factory := stubFactory(1)
		sh, err := New(col, Config{Shards: S, Workers: 1}, factory)
		if err != nil {
			t.Fatal(err)
		}
		wantShards := S
		if wantShards > len(vals) {
			wantShards = len(vals)
		}
		if sh.Shards() != wantShards {
			t.Fatalf("S=%d: got %d shards, want %d", S, sh.Shards(), wantShards)
		}
		rows := 0
		for i, st := range sh.cur.Load().shards {
			part := vals[st.start:st.end]
			if len(part) == 0 {
				t.Fatalf("S=%d shard %d empty", S, i)
			}
			rows += len(part)
			mn, mx := part[0], part[0]
			for _, v := range part {
				if v < mn {
					mn = v
				}
				if v > mx {
					mx = v
				}
			}
			if st.min != mn || st.max != mx {
				t.Fatalf("S=%d shard %d zone [%d,%d], want [%d,%d]", S, i, st.min, st.max, mn, mx)
			}
			if i > 0 && st.start != sh.cur.Load().shards[i-1].end {
				t.Fatalf("S=%d shard %d not contiguous", S, i)
			}
		}
		if rows != len(vals) {
			t.Fatalf("S=%d shards cover %d rows, want %d", S, rows, len(vals))
		}
	}
}

// TestColdZonesAreTheirRows: a compressed load takes each shard's zone
// from the fold its pack makes of the blocks' extrema, not from a scan of
// its own; ShardStats must still report every shard's true extrema, in
// every compressed mode, over blocks of every kind — low-cardinality rows,
// and one block so wide that the automatic mode leaves it raw.
func TestColdZonesAreTheirRows(t *testing.T) {
	const n = 6*BlockRows + 123
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i*7919%1000) - 500 + int64(i/BlockRows)
		if i/BlockRows == 3 {
			vals[i] = int64(i*7919%4001-2000) << 50
		}
	}
	for _, mode := range []encode.Mode{encode.ModeFORBP, encode.ModeDict, encode.ModeAuto} {
		for _, S := range []int{2, 3, 7} {
			sh, err := New(column.MustNew(vals), Config{Shards: S, Workers: 2, Encoding: mode}, stubFactory(1))
			if err != nil {
				t.Fatal(err)
			}
			for i, si := range sh.ShardStats() {
				mn, mx := column.MinMax(vals[i*n/S : (i+1)*n/S])
				if si.Form != FormCold || si.MinValue != mn || si.MaxValue != mx {
					t.Fatalf("%s S=%d shard %d: %s zone [%d, %d], want cold [%d, %d]", mode, S, i, si.Form, si.MinValue, si.MaxValue, mn, mx)
				}
			}
		}
	}
}

// TestBuildErrorPropagates pins construction failure handling: a shard
// whose rows cannot be stored fails New, and so does a nil factory.
func TestBuildErrorPropagates(t *testing.T) {
	col := column.MustNew(clustered(100))
	if _, err := New(col, Config{Shards: 4, Encoding: encode.Mode(99)}, stubFactory(1)); err == nil || !strings.Contains(err.Error(), "unknown mode") {
		t.Fatalf("a shard's encode error not propagated: %v", err)
	}
	if _, err := New(col, Config{Shards: 2}, nil); err == nil {
		t.Fatal("nil factory accepted")
	}
}

// TestPruningAndHeat pins the zone-map survivor computation and the
// heat accounting through the public Execute surface.
func TestPruningAndHeat(t *testing.T) {
	col := column.MustNew(clustered(1000))
	factory := stubFactory(1 << 30) // never converges
	sh, err := New(col, Config{Shards: 4, Workers: 1}, factory)
	if err != nil {
		t.Fatal(err)
	}
	// Values [0, 250) live in shard 0 only.
	for i := 0; i < 5; i++ {
		ans, err := sh.Execute(query.Request{Pred: query.Range(10, 20)})
		if err != nil {
			t.Fatal(err)
		}
		if ans.Count != 11 {
			t.Fatalf("count %d, want 11", ans.Count)
		}
	}
	// A cross-boundary query touches exactly two shards.
	if _, err := sh.Execute(query.Request{Pred: query.Range(240, 260)}); err != nil {
		t.Fatal(err)
	}
	// An out-of-domain query touches none.
	if ans, err := sh.Execute(query.Request{Pred: query.Point(5000)}); err != nil || ans.Count != 0 {
		t.Fatalf("out-of-domain: ans=%+v err=%v", ans, err)
	}
	stats := sh.ShardStats()
	wantExec := []uint64{6, 1, 0, 0}
	for i, st := range stats {
		if st.Executes != wantExec[i] {
			t.Errorf("shard %d executes %d, want %d", i, st.Executes, wantExec[i])
		}
		if st.Heat != wantExec[i] {
			t.Errorf("shard %d heat %d, want %d", i, st.Heat, wantExec[i])
		}
	}
	if stubs(sh)[2].queries.Load() != 0 || stubs(sh)[3].queries.Load() != 0 {
		t.Fatal("pruned shards executed queries")
	}
}

// TestHeatShares pins the budget scales handed to the per-shard
// indexes: survivors split one query's budget in proportion to heat.
func TestHeatShares(t *testing.T) {
	col := column.MustNew(clustered(1000))
	factory := stubFactory(1 << 30)
	sh, err := New(col, Config{Shards: 2, Workers: 1}, factory)
	if err != nil {
		t.Fatal(err)
	}
	// Warm shard 0 alone, then query both: shard 0 must receive the
	// larger scale, and the two scales must sum to the survivor count.
	for i := 0; i < 3; i++ {
		if _, err := sh.Execute(query.Request{Pred: query.Range(0, 10)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sh.Execute(query.Request{Pred: query.Range(0, 999)}); err != nil {
		t.Fatal(err)
	}
	s0 := stubs(sh)[0].scales
	s1 := stubs(sh)[1].scales
	if len(s1) != 1 {
		t.Fatalf("cold shard saw %d scales, want 1", len(s1))
	}
	last0 := s0[len(s0)-1]
	// Heats at the shared query: shard 0 = 4, shard 1 = 1 → scales
	// 2·4/5 and 2·1/5.
	if want := 2.0 * 4 / 5; last0 != want {
		t.Errorf("hot shard scale %v, want %v", last0, want)
	}
	if want := 2.0 * 1 / 5; s1[0] != want {
		t.Errorf("cold shard scale %v, want %v", s1[0], want)
	}
}

// TestExecuteBatchSuspendsTail pins the batch amortization: only the
// request that leads its batch runs with the indexing budget enabled.
func TestExecuteBatchSuspendsTail(t *testing.T) {
	col := column.MustNew(clustered(1000))
	factory := stubFactory(1 << 30)
	sh, err := New(col, Config{Shards: 2, Workers: 1}, factory)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []query.Request{
		{Pred: query.Range(0, 999)},
		{Pred: query.Range(0, 999)},
		{Pred: query.Range(0, 999)},
	}
	for i, req := range reqs {
		ans, err := sh.ExecuteAs(req, i == 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Count != 1000 {
			t.Fatalf("batch answer %d count %d, want 1000", i, ans.Count)
		}
	}
	for i, st := range stubs(sh) {
		if st.suspends != 2 {
			t.Errorf("shard %d saw %d suspended executions, want 2", i, st.suspends)
		}
	}
}

// TestRefineRoundRobin pins the idle-refinement order: hottest shard
// first, then round-robin through the remaining unconverged ones.
func TestRefineRoundRobin(t *testing.T) {
	col := column.MustNew(clustered(900))
	factory := stubFactory(3) // each shard converges after 3 calls
	sh, err := New(col, Config{Shards: 3, Workers: 1}, factory)
	if err != nil {
		t.Fatal(err)
	}
	// Heat shard 2 (values 600..899) so it leads the refine order.
	if _, err := sh.Execute(query.Request{Pred: query.Range(700, 710)}); err != nil {
		t.Fatal(err)
	}
	if _, done := sh.RefineStep(); done {
		t.Fatal("converged too early")
	}
	if got := stubs(sh)[2].queries.Load(); got != 2 { // 1 real query + 1 idle slice
		t.Fatalf("first idle slice went elsewhere: shard 2 has %d queries", got)
	}
	// Drive to full convergence; every shard must get slices.
	done := false
	for i := 0; i < 100 && !done; i++ {
		_, done = sh.RefineStep()
	}
	if !done || !sh.Converged() {
		t.Fatal("sharded stub never converged under RefineStep")
	}
	for i, st := range sh.ShardStats() {
		if st.Refines == 0 {
			t.Errorf("shard %d received no idle slices", i)
		}
		if !st.Converged {
			t.Errorf("shard %d not converged", i)
		}
	}
	if p := sh.Progress(); p != 1 {
		t.Fatalf("Progress() = %v after convergence", p)
	}
}

// TestNameAndBounds pins the cosmetic surface.
func TestNameAndBounds(t *testing.T) {
	col := column.MustNew(clustered(100))
	factory := stubFactory(1)
	sh, err := New(col, Config{Shards: 4}, factory)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sh.Name(), "STUB/S4"; got != want {
		t.Fatalf("Name() = %q, want %q", got, want)
	}
	if mn, mx := sh.ValueBounds(); mn != 0 || mx != 99 {
		t.Fatalf("ValueBounds() = (%d, %d), want (0, 99)", mn, mx)
	}
}

// TestWorkerInvariantAnswers runs the same query stream at several
// fan-out widths and requires identical answers (the merge-in-shard-
// order determinism contract), using the stub scan index.
func TestWorkerInvariantAnswers(t *testing.T) {
	vals := clustered(10000)
	col := column.MustNew(vals)
	var want []query.Answer
	for wi, workers := range []int{1, 2, 5} {
		factory := stubFactory(1 << 30)
		sh, err := New(col, Config{Shards: 8, Workers: workers}, factory)
		if err != nil {
			t.Fatal(err)
		}
		var got []query.Answer
		for q := 0; q < 30; q++ {
			lo := int64(q * 311 % 9000)
			ans, err := sh.Execute(query.Request{Pred: query.Range(lo, lo+500), Aggs: column.AggAll})
			if err != nil {
				t.Fatal(err)
			}
			// The fan-out width is the one legitimate difference.
			ans.Stats.Workers = 0
			got = append(got, ans)
		}
		if wi == 0 {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d query %d: %+v != %+v", workers, i, got[i], want[i])
			}
		}
	}
}

var sinkAnswer query.Answer

// BenchmarkShardedExecute measures sharded execution on clustered data
// at several shard counts and selectivities, with the stub scan index
// isolating the shard layer's own overhead (pruning, fan-out, merge).
// The CI smoke step runs this with -benchtime=1x to keep it compiling
// and executing.
func BenchmarkShardedExecute(b *testing.B) {
	const n = 1 << 18
	col := column.MustNew(clustered(n))
	for _, S := range []int{1, 4, 16} {
		for _, sel := range []float64{0.001, 0.1} {
			width := int64(float64(n) * sel)
			factory := stubFactory(1 << 30)
			sh, err := New(col, Config{Shards: S}, factory)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("shards=%d/sel=%g", S, sel), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					lo := int64(i) * 7919 % (int64(n) - width)
					sinkAnswer, _ = sh.Execute(query.Request{Pred: query.Range(lo, lo+width)})
				}
			})
		}
	}
}

// TestAppendTailVisibleAndSealed pins the ingestion path: appended rows
// are answered from the unindexed tail immediately, the tail seals into
// a fresh shard at the threshold, and answers stay exact throughout.
func TestAppendTailVisibleAndSealed(t *testing.T) {
	vals := clustered(100)
	col := column.MustNew(append([]int64(nil), vals...))
	factory := stubFactory(1)
	sh, err := New(col, Config{Shards: 4, Workers: 1, SealRows: 10}, factory)
	if err != nil {
		t.Fatal(err)
	}
	logical := append([]int64(nil), vals...)
	check := func(stage string, lo, hi int64) {
		t.Helper()
		ans, err := sh.Execute(query.Request{Pred: query.Range(lo, hi), Aggs: column.AggAll})
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		want := oracle.Agg(logical, query.Range(lo, hi))
		if ans.Sum != want.Sum || ans.Count != want.Count {
			t.Fatalf("%s: [%d,%d] = {%d %d}, want {%d %d}", stage, lo, hi, ans.Sum, ans.Count, want.Sum, want.Count)
		}
		if want.Count > 0 && (ans.Min != want.Min || ans.Max != want.Max) {
			t.Fatalf("%s: [%d,%d] extrema {%d %d}, want {%d %d}", stage, lo, hi, ans.Min, ans.Max, want.Min, want.Max)
		}
	}

	// Below the seal threshold: rows live in the tail.
	if err := sh.Append([]int64{200, 201, 202}); err != nil {
		t.Fatal(err)
	}
	logical = append(logical, 200, 201, 202)
	if got := sh.PendingRows(); got != 3 {
		t.Fatalf("pending = %d, want 3", got)
	}
	if got := sh.Shards(); got != 4 {
		t.Fatalf("shards = %d, want 4 (below threshold)", got)
	}
	check("tail", 0, 500)
	check("tail-only", 200, 202)
	check("tail-pruned", 150, 180)

	// Cross the threshold: tail seals into shard #5 with its own zone.
	batch := []int64{203, 204, 205, 206, 207, 208, 209}
	if err := sh.Append(batch); err != nil {
		t.Fatal(err)
	}
	logical = append(logical, batch...)
	if got := sh.PendingRows(); got != 0 {
		t.Fatalf("pending after seal = %d, want 0", got)
	}
	if got := sh.Shards(); got != 5 {
		t.Fatalf("shards after seal = %d, want 5", got)
	}
	infos := sh.ShardStats()
	last := infos[len(infos)-1]
	if last.Rows != 10 || last.MinValue != 200 || last.MaxValue != 209 {
		t.Fatalf("sealed shard = %+v, want rows=10 zone [200,209]", last)
	}
	check("sealed", 0, 500)
	check("sealed-only", 200, 209)

	// The sealed shard participates in pruning: a query confined to the
	// original data must not execute it.
	before := sh.ShardStats()[4].Executes
	check("prune-sealed", 0, 50)
	if after := sh.ShardStats()[4].Executes; after != before {
		t.Fatalf("sealed shard executed on a pruned query (%d -> %d)", before, after)
	}

	// Converged reports false while a tail is pending, true after the
	// whole structure (including sealed shards) converges.
	if err := sh.Append([]int64{300}); err != nil {
		t.Fatal(err)
	}
	logical = append(logical, 300)
	if sh.Converged() {
		t.Fatal("Converged() = true with a pending tail")
	}
	check("post-seal-tail", 0, 1000)
}

// TestRefineStepFlushesTail pins the idle-time ingestion drain: once
// every sealed shard has converged, RefineStep seals a below-threshold
// tail and then converges the fresh shard, reaching the terminal state.
func TestRefineStepFlushesTail(t *testing.T) {
	col := column.MustNew(clustered(40))
	factory := stubFactory(1)
	sh, err := New(col, Config{Shards: 2, Workers: 1, SealRows: 1000}, factory)
	if err != nil {
		t.Fatal(err)
	}
	// Converge the two loaded shards.
	for i := 0; i < 10 && !sh.Converged(); i++ {
		sh.RefineStep()
	}
	if !sh.Converged() {
		t.Fatal("loaded shards never converged")
	}
	if err := sh.Append([]int64{500, 501}); err != nil {
		t.Fatal(err)
	}
	if sh.Converged() {
		t.Fatal("converged with pending tail")
	}
	for i := 0; i < 10 && !sh.Converged(); i++ {
		sh.RefineStep()
	}
	if !sh.Converged() {
		t.Fatal("idle refinement never drained the tail")
	}
	if got := sh.PendingRows(); got != 0 {
		t.Fatalf("pending after idle drain = %d, want 0", got)
	}
	if got := sh.Shards(); got != 3 {
		t.Fatalf("shards after idle drain = %d, want 3", got)
	}
	if got := sh.Progress(); got != 1 {
		t.Fatalf("Progress after drain = %g, want 1", got)
	}
	ans, err := sh.Execute(query.Request{Pred: query.Range(500, 501)})
	if err != nil || ans.Sum != 1001 || ans.Count != 2 {
		t.Fatalf("drained rows lost: %+v err=%v", ans, err)
	}
}

// TestAppendRejectsOutOfDomainAtomically pins no-partial-commit.
func TestAppendRejectsOutOfDomainAtomically(t *testing.T) {
	col := column.MustNew(clustered(10))
	factory := stubFactory(1)
	sh, err := New(col, Config{Shards: 2, Workers: 1}, factory)
	if err != nil {
		t.Fatal(err)
	}
	huge := int64(1) << 62
	if err := sh.Append([]int64{7, huge}); err == nil {
		t.Fatal("out-of-domain append accepted")
	}
	if got := sh.PendingRows(); got != 0 {
		t.Fatalf("rejected append left %d pending rows", got)
	}
	if err := sh.Append(nil); err != nil {
		t.Fatalf("empty append: %v", err)
	}
}

// TestBudgetFactorKeepsWallClockTrue pins the wall-clock budget
// correction under growth: per-shard budgeters carry 1/BudgetSizedFor
// of the table budget, so once sealing grows the shard count the
// scales handed to survivors must sum to BudgetSizedFor (one table
// budget), not to the grown count.
func TestBudgetFactorKeepsWallClockTrue(t *testing.T) {
	col := column.MustNew(clustered(8))
	factory := stubFactory(1000) // never converges: scales keep flowing
	sh, err := New(col, Config{Shards: 2, Workers: 1, SealRows: 4, BudgetSizedFor: 2}, factory)
	if err != nil {
		t.Fatal(err)
	}
	// Grow to 3 shards.
	if err := sh.Append([]int64{100, 101, 102, 103}); err != nil {
		t.Fatal(err)
	}
	if sh.Shards() != 3 {
		t.Fatalf("shards = %d, want 3", sh.Shards())
	}
	// A query surviving all three shards plans one table budget total.
	if _, err := sh.Execute(query.Request{Pred: query.Range(0, 200)}); err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, st := range stubs(sh) {
		if n := len(st.scales); n > 0 {
			sum += st.scales[n-1]
		}
	}
	if sum < 1.999 || sum > 2.001 {
		t.Fatalf("survivor scales sum to %g, want BudgetSizedFor=2 (one table budget)", sum)
	}
	// An idle slice concentrates exactly one table budget on one shard.
	before := make([]int, len(stubs(sh)))
	for i, st := range stubs(sh) {
		before[i] = len(st.scales)
	}
	sh.RefineStep()
	for i, st := range stubs(sh) {
		if len(st.scales) > before[i] {
			if got := st.scales[len(st.scales)-1]; got != 2 {
				t.Fatalf("idle scale = %g, want BudgetSizedFor=2", got)
			}
		}
	}
	// δ mode (BudgetSizedFor 0): no correction, scales sum to the
	// survivor count as before.
	factory2 := stubFactory(1000)
	sh2, err := New(column.MustNew(clustered(8)), Config{Shards: 2, Workers: 1, SealRows: 4}, factory2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sh2.Append([]int64{100, 101, 102, 103}); err != nil {
		t.Fatal(err)
	}
	if _, err := sh2.Execute(query.Request{Pred: query.Range(0, 200)}); err != nil {
		t.Fatal(err)
	}
	sum = 0.0
	for _, st := range stubs(sh2) {
		if n := len(st.scales); n > 0 {
			sum += st.scales[n-1]
		}
	}
	if sum < 2.999 || sum > 3.001 {
		t.Fatalf("δ-mode survivor scales sum to %g, want 3 (survivor count)", sum)
	}
}

// drained runs idle slices until the table reports convergence, or
// gives up and returns false.
func drained(sh *Sharded) bool {
	for i := 0; i < 10_000; i++ {
		if _, done := sh.RefineStep(); done {
			return true
		}
	}
	return false
}

// drain is drained for the test's own goroutine.
func drain(t testing.TB, sh *Sharded) {
	t.Helper()
	if !drained(sh) {
		t.Fatal("idle refinement never converged")
	}
}

// tailBornRows lists the sizes of the tail-born shards, left to right.
func tailBornRows(sh *Sharded) []int {
	var out []int
	for _, st := range sh.cur.Load().shards {
		if st.tailBorn {
			out = append(out, st.end-st.start)
		}
	}
	return out
}

// TestSealMergesLikeABinaryCounter pins the absorb rule on the
// canonical trace — equal appends, each flushed by idle slices: after k
// flushes the tail-born shards spell k in binary (largest first), so 16
// appends leave one shard, not 16. Loaded shards are never absorbed,
// every seal reports how many shards it merged, and answers stay exact.
func TestSealMergesLikeABinaryCounter(t *testing.T) {
	const batch = 8
	logical := clustered(64)
	sh, err := New(column.MustNew(append([]int64(nil), logical...)), Config{Shards: 2, Workers: 1, SealRows: 1024}, stubFactory(1))
	if err != nil {
		t.Fatal(err)
	}
	tl := obs.NewTimeline(64)
	sh.SetEventSink(tl)
	drain(t, sh)
	for k := 1; k <= 16; k++ {
		vals := make([]int64, batch)
		for i := range vals {
			vals[i] = int64(1000 + k*batch + i)
		}
		if err := sh.Append(vals); err != nil {
			t.Fatal(err)
		}
		logical = append(logical, vals...)
		drain(t, sh)
		var want []int
		for bit := 4; bit >= 0; bit-- {
			if k&(1<<bit) != 0 {
				want = append(want, batch<<bit)
			}
		}
		if got := tailBornRows(sh); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("after %d flushes: tail-born sizes %v, want %v", k, got, want)
		}
		if got := sh.Shards(); got > MaxShards(2, k*batch, 1024) {
			t.Fatalf("after %d flushes: %d shards exceed the bound %d", k, got, MaxShards(2, k*batch, 1024))
		}
		ans, err := sh.Execute(query.Request{Pred: query.Range(0, 5000), Aggs: column.AggAll})
		want2 := oracle.Agg(logical, query.Range(0, 5000))
		if err != nil || ans.Sum != want2.Sum || ans.Count != want2.Count {
			t.Fatalf("after %d flushes: %+v err=%v, want %+v", k, ans, err, want2)
		}
	}
	for i, st := range sh.cur.Load().shards[:2] {
		if st.tailBorn || st.end-st.start != 32 {
			t.Fatalf("loaded shard %d was touched by a merge: %+v", i, sh.ShardStats()[i])
		}
	}
	// The 16th seal absorbed the 8, 16, 32 and 64-row shards... the
	// event says so: shard index 2, all 128 rows, 4 merged.
	evs := tl.Snapshot()
	last := evs[len(evs)-1]
	if last.Kind != obs.EvShardSeal || last.Shard != 2 || last.A != 128 || last.B != 4 {
		t.Fatalf("last seal event = %+v, want shard 2, 128 rows, 4 merged", last)
	}
}

// liveHeap forces a collection and returns the live heap.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestAppendedRowsAreStoredOnce pins what the tail extent is for: the
// memory a raw table holds for its appended rows is 8 bytes a row plus a
// bounded allowance for the extent, at every point of the growth. A
// growing column shared by all shards fails it twice over — every
// reallocation copies the loaded rows again, and the superseded array
// stays pinned by the shards sealed in it — and in steps, so the total
// depends on where the row count stands between two reallocations; so
// does an extent that outlives the seals it feeds. Every seal ends the
// extent and its shard owns one exact buffer, so what is left beside the
// rows is the extent's free capacity. The stub index holds nothing but
// its column and never lets go of it, so the heap is the storage.
func TestAppendedRowsAreStoredOnce(t *testing.T) {
	const (
		loaded, batch, sealRows = 1 << 18, 256, 1 << 16
		// The extent's free capacity — it holds one drained batch at
		// most here — plus views, states and the collector's own slop.
		allowance = 1 << 16
	)
	sh, err := New(column.MustNew(clustered(loaded)), Config{Shards: 4, Workers: 1, SealRows: sealRows}, stubFactory(1))
	if err != nil {
		t.Fatal(err)
	}
	drain(t, sh)
	base := liveHeap()
	vals := make([]int64, batch)
	for i := 0; i < 4096; i++ {
		for k := range vals {
			vals[k] = int64(loaded + i*batch + k)
		}
		if err := sh.Append(vals); err != nil {
			t.Fatal(err)
		}
		drain(t, sh)
		if i%97 != 96 {
			continue
		}
		appended := (i + 1) * batch
		if held := int64(liveHeap()) - int64(base); held > int64(8*appended+allowance) {
			t.Fatalf("after %d appended rows the table holds %d more bytes, over 8/row + %d", appended, held, allowance)
		}
	}
	runtime.KeepAlive(sh)
}

// TestReaderOnPreMergeViewKeepsItsAnswer pins why a merge needs no
// reader coordination: a query that loaded its view before the merge
// runs against the absorbed shards, which the merge leaves untouched,
// and returns the pre-merge answer while later queries see the merged
// table. Run under -race: the reader and the merging writer overlap.
func TestReaderOnPreMergeViewKeepsItsAnswer(t *testing.T) {
	for _, mode := range []encode.Mode{encode.ModeRaw, encode.ModeFORBP} {
		logical := clustered(64)
		sh, err := New(column.MustNew(append([]int64(nil), logical...)),
			Config{Shards: 2, Workers: 1, SealRows: 1 << 20, Encoding: mode}, stubFactory(1))
		if err != nil {
			t.Fatal(err)
		}
		grow := func(k int) {
			vals := []int64{int64(1000 + 2*k), int64(1001 + 2*k)}
			if err := sh.Append(vals); err != nil || !drained(sh) {
				t.Errorf("%v: append %d: err=%v, or the table never drained", mode, k, err)
			}
		}
		for k := 0; k < 3; k++ { // tail-born [4 2]
			grow(k)
		}
		held := sh.cur.Load()
		req := query.Request{Pred: query.Range(0, 1<<20), Aggs: column.AggAll}
		want := oracle.Agg(append(clustered(64), 1000, 1001, 1002, 1003, 1004, 1005), req.Pred)

		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 3; k < 40; k++ {
				grow(k)
			}
		}()
		for i := 0; i < 200; i++ {
			ans, err := sh.executeOn(held, new(scratch), req, true, nil)
			if err != nil || ans.Sum != want.Sum || ans.Count != want.Count || ans.Min != want.Min || ans.Max != want.Max {
				t.Fatalf("%v: held view answered %+v err=%v, want %+v", mode, ans, err, want)
			}
		}
		wg.Wait()
		ans, err := sh.Execute(req)
		if err != nil || ans.Count != int64(64+80) {
			t.Fatalf("%v: merged table answered %+v err=%v, want %d rows", mode, ans, err, 64+80)
		}
	}
}

// BenchmarkAppendFlushGrowth measures ingestion through the idle flush:
// every iteration appends one small batch and drains the table, the
// closed-loop serving pattern in which each append used to leave a
// shard behind. It reports the shard count the growth ends with and
// the cost of a query that survives every tail-born shard.
func BenchmarkAppendFlushGrowth(b *testing.B) {
	const batch = 256
	sh, err := New(column.MustNew(clustered(1<<16)), Config{Shards: 4, Workers: 1}, stubFactory(1))
	if err != nil {
		b.Fatal(err)
	}
	drain(b, sh)
	vals := make([]int64, batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range vals {
			vals[k] = int64(1<<20 + i*batch + k)
		}
		if err := sh.Append(vals); err != nil {
			b.Fatal(err)
		}
		drain(b, sh)
	}
	b.StopTimer()
	b.ReportMetric(float64(sh.Shards()), "shards")
	start := time.Now()
	const probes = 100
	for i := 0; i < probes; i++ {
		sinkAnswer, _ = sh.Execute(query.Request{Pred: query.AtLeast(1 << 20)})
	}
	b.ReportMetric(float64(time.Since(start).Nanoseconds())/probes, "tail-query-ns")
}
