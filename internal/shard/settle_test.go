package shard

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/column"
	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/query"
)

// releasingStub is the index a settle needs: it answers from its own
// copy of the rows, so it releases the column it was built over (its
// ReleaseBase reports true), and it reports a fixed WorkSeconds per slice
// until it converges.
type releasingStub struct {
	zone      *column.Column
	rows      []int64
	queries   atomic.Int64
	doneAfter int64
	work      float64
	released  atomic.Bool
}

func (s *releasingStub) Name() string { return "RSTUB" }

func (s *releasingStub) Execute(req query.Request) (query.Answer, error) {
	return query.Run(req, s.zone.Min(), s.zone.Max(), func(lo, hi int64, aggs column.Aggregates) (column.Agg, query.Stats) {
		st := query.Stats{Workers: 1, Phase: query.PhaseDone}
		if s.queries.Add(1) <= s.doneAfter {
			st.Phase, st.WorkSeconds = query.PhaseRefinement, s.work
		}
		return column.AggRange(s.rows, lo, hi, aggs), st
	})
}

func (s *releasingStub) Converged() bool { return s.queries.Load() >= s.doneAfter }

func (s *releasingStub) ExecuteSlice(req query.Request, _ float64, _ bool) (query.Answer, error) {
	return s.Execute(req)
}

func (s *releasingStub) Progress() float64 {
	if s.Converged() {
		return 1
	}
	return 0
}

func (s *releasingStub) Phase() query.Phase { return stubPhase(s.Converged()) }

func (s *releasingStub) ReleaseBase() bool {
	s.zone = s.zone.Zone()
	s.released.Store(true)
	return true
}

func releasingFactory(doneAfter int64, work float64) Factory {
	return func(col *column.Column) query.Budgeted {
		return &releasingStub{zone: col, rows: slices.Clone(col.Values()), doneAfter: doneAfter, work: work}
	}
}

func releasingStubs(sh *Sharded) []*releasingStub {
	shards := sh.cur.Load().shards
	out := make([]*releasingStub, len(shards))
	for i, st := range shards {
		out[i] = st.idx.(*releasingStub)
	}
	return out
}

// uniform returns n values below 1<<bits drawn from seed.
func uniform(n int, bits uint, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63n(1 << bits)
	}
	return out
}

// checkExact runs one all-aggregates range query and compares it with
// the branching scan of logical.
func checkExact(t *testing.T, sh *Sharded, logical []int64, lo, hi int64, when string) query.Answer {
	t.Helper()
	ans, err := sh.Execute(query.Request{Pred: query.Range(lo, hi), Aggs: column.AggAll})
	if want := oracle.Agg(logical, query.Range(lo, hi)); err != nil || query.AnswerAgg(ans) != want {
		t.Fatalf("%s: [%d, %d] = %+v err=%v, want %+v", when, lo, hi, ans, err, want)
	}
	return ans
}

// TestSettleLifecycle walks one shard of a row-ordered table through its
// life. Born raw, it holds its packed blocks beside the rows and reports
// both. The slice that converges its index settles it: the blocks stay,
// the raw rows and the index's base go, and one settle event records the
// bytes the shard now holds, from which on the table is converged and a
// query reports no work. At every step it answers, materializes and
// block-views exactly. Its eleven blocks are packed over eight workers,
// whose split hands the last chunks the empty range past the last block.
func TestSettleLifecycle(t *testing.T) {
	logical := uniform(10*BlockRows+100, 20, 1)
	sh, err := New(column.MustNew(slices.Clone(logical)), Config{Workers: 8}, releasingFactory(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	sh.KeepRowOrder()
	tl := obs.NewTimeline(16)
	sh.SetEventSink(tl)
	stub, st := releasingStubs(sh)[0], sh.cur.Load().shards[0]
	blocks := st.packed
	rng := rand.New(rand.NewSource(2))
	step := func(when string) query.Answer {
		t.Helper()
		lo := rng.Int63n(1 << 20)
		ans := checkExact(t, sh, logical, lo, lo+rng.Int63n(1<<18), when)
		checkBlockView(t, sh, when)
		if !slices.Equal(sh.MaterializeRows(), logical) {
			t.Fatalf("%s: MaterializeRows differs from the rows", when)
		}
		return ans
	}
	if si := sh.ShardStats()[0]; blocks == nil || si.Form != FormRaw || si.Bytes != 8*len(logical)+blocks.SizeBytes() {
		t.Fatalf("born: %+v, want the raw rows beside their packed blocks", si)
	}
	step("refining")
	if si := sh.ShardStats()[0]; sh.Converged() || si.Form != FormRaw || len(tl.Snapshot()) != 0 {
		t.Fatalf("one slice short of convergence: %+v, table converged=%v", si, sh.Converged())
	}
	if ans := step("converging"); ans.Stats.WorkSeconds != 1 {
		t.Fatalf("the converging slice reports %g s of work, want the stub's 1", ans.Stats.WorkSeconds)
	}
	si := sh.ShardStats()[0]
	if !sh.Converged() || si.Form != FormSettled || si.Encoding != "forbp" || si.Bytes != blocks.SizeBytes() || !stub.released.Load() {
		t.Fatalf("after the converging slice: converged=%v released=%v %+v", sh.Converged(), stub.released.Load(), si)
	}
	if st.vals != nil || st.packed != blocks || st.idx == nil {
		t.Fatal("settled shard kept its raw rows, or lost its blocks or its index")
	}
	evs := tl.Snapshot()
	if len(evs) != 1 || evs[0].Kind != obs.EvShardSettle || evs[0].Shard != 0 || evs[0].A != float64(len(logical)) || evs[0].B != float64(si.Bytes) {
		t.Fatalf("events %+v, want one settle of shard 0, %d rows, %d bytes", evs, len(logical), si.Bytes)
	}
	if ans := step("settled"); ans.Stats.WorkSeconds != 0 {
		t.Fatalf("a query on the settled shard reports %g s of work", ans.Stats.WorkSeconds)
	}
}

// TestSettledShardAnswersThroughIndex pins the read path of the third
// form: a settled shard holds packed blocks and is not cold. Every
// executeShard call either runs idx.Execute or scans packed; here each of
// the queries after the settle shows up in the index's own count, so
// none was a packed scan — which would be just as exact, a thousand
// times slower, and invisible to an oracle. To make it visible anyway,
// the blocks are swapped for ones over other rows first.
func TestSettledShardAnswersThroughIndex(t *testing.T) {
	logical := uniform(3*BlockRows, 20, 3)
	sh, err := New(column.MustNew(slices.Clone(logical)), Config{Shards: 2, Workers: 1}, releasingFactory(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	sh.KeepRowOrder()
	drain(t, sh)
	for i, st := range sh.cur.Load().shards {
		if si := sh.ShardStats()[i]; si.Form != FormSettled {
			t.Fatalf("shard %d not settled: %+v", i, si)
		}
		st.mu.Lock()
		st.packed = encode.Pack(nil, make([]int64, st.end-st.start), encode.ModeFORBP)
		st.mu.Unlock()
	}
	const queries = 50
	var before [2]int64
	for i, stub := range releasingStubs(sh) {
		before[i] = stub.queries.Load()
	}
	execBefore := sh.ShardStats()
	rng := rand.New(rand.NewSource(4))
	for q := 0; q < queries; q++ {
		lo := rng.Int63n(1 << 20)
		checkExact(t, sh, logical, lo, lo+rng.Int63n(1<<19), "settled")
	}
	if ph := sh.Phase(); ph != query.PhaseDone {
		t.Fatalf("Phase() = %v on a settled table, want done", ph)
	}
	for i, stub := range releasingStubs(sh) {
		executes := int64(sh.ShardStats()[i].Executes - execBefore[i].Executes)
		if got := stub.queries.Load() - before[i]; got != executes || executes == 0 {
			t.Fatalf("shard %d: %d executes, %d of them through the index: the rest scanned the packed blocks", i, executes, got)
		}
	}
}

// coreFactory builds the progressive algorithm named by strat, serial,
// under cfg's budget.
func coreFactory(strat string, cfg core.Config) Factory {
	cfg.Workers = 1
	return func(col *column.Column) query.Budgeted {
		switch strat {
		case "PQ":
			return core.NewQuicksort(col, cfg)
		case "PMSD":
			return core.NewRadixMSD(col, cfg)
		case "PB":
			return core.NewBucketsort(col, cfg)
		}
		return core.NewRadixLSD(col, cfg)
	}
}

var coreStrategies = []string{"PQ", "PMSD", "PB", "PLSD"}

// TestSettleProperty: seeded interleavings of queries, appends (small,
// and past the seal threshold) and idle slices on tables of every
// progressive strategy, loaded as one shard and as four, raw and claimed
// from FOR-BP and dictionary blocks, all keeping row order (packed
// blocks for life; TestSettleFollowsRowOrder has the one-column settle).
// Before any shard settles, at every step while a shard holds raw rows
// beside its packed blocks, and after, each answer (all aggregates) equals
// the branching scan, MaterializeRows the rows, and the block view the
// rows' grid, zones and masks (checkBlockView).
func TestSettleProperty(t *testing.T) {
	const sealRows = BlockRows + 300
	seed := int64(0)
	for _, strat := range coreStrategies {
		for _, shards := range []int{1, 4} {
			for _, mode := range []encode.Mode{encode.ModeRaw, encode.ModeFORBP, encode.ModeDict} {
				seed++
				seed := seed
				t.Run(fmt.Sprintf("%s/shards=%d/%v", strat, shards, mode), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					value := func() int64 { return rng.Int63n(3000) * 977 } // 3000 distinct: a dictionary fits
					logical := make([]int64, shards*(2*BlockRows+77))
					for i := range logical {
						logical[i] = value()
					}
					sh, err := New(column.MustNew(slices.Clone(logical)),
						Config{Shards: shards, Workers: 2, SealRows: sealRows, Encoding: mode},
						coreFactory(strat, core.Config{Delta: 0.1, L1Elements: 512})) // slices well under a shard's pack cost
					if err != nil {
						t.Fatal(err)
					}
					sh.KeepRowOrder()
					tl := obs.NewTimeline(256)
					sh.SetEventSink(tl)
					during := 0
					for step := 0; step < 300 && !(sh.Converged() && step > 100); step++ {
						switch op := rng.Intn(10); {
						case op == 0 && step < 100:
							batch := make([]int64, []int{1, 40, sealRows / 2, sealRows + 5}[rng.Intn(4)])
							for i := range batch {
								batch[i] = value()
							}
							if err := sh.Append(batch); err != nil {
								t.Fatal(err)
							}
							logical = append(logical, batch...)
						case op < 4:
							sh.RefineStep()
						}
						lo := rng.Int63n(3000 * 977)
						when := fmt.Sprintf("step %d", step)
						checkExact(t, sh, logical, lo, lo+rng.Int63n(600*977), when)
						settling := false
						for _, st := range sh.cur.Load().shards {
							st.mu.RLock()
							settling = settling || (st.vals != nil && st.packed != nil)
							st.mu.RUnlock()
						}
						if settling {
							during++
						} else if step%8 != 0 {
							continue // the rows' readers are checked at every step a shard holds both forms, and now and then
						}
						checkBlockView(t, sh, when)
						if !slices.Equal(sh.MaterializeRows(), logical) {
							t.Fatalf("%s: MaterializeRows differs from the rows", when)
						}
					}
					settles := 0
					for _, e := range tl.Snapshot() {
						if e.Kind == obs.EvShardSettle {
							settles++
						}
					}
					if !sh.Converged() || settles < shards || during == 0 {
						t.Fatalf("vacuous trace: converged=%v, %d settles, %d steps seen mid-settle: %+v", sh.Converged(), settles, during, sh.ShardStats())
					}
				})
			}
		}
	}
}

// TestReadersRaceSettle runs what reads a shard's rows — queries, block
// views, MaterializeRows (a checkpoint's capture) — and an appender
// against the slices that settle a row-ordered table's shards, and a reader that
// loaded its view before any of it finishes on that view with that
// view's answer. Meaningful under -race.
func TestReadersRaceSettle(t *testing.T) {
	loaded := uniform(4*(BlockRows+50), 20, 7)
	sh, err := New(column.MustNew(slices.Clone(loaded)), Config{Shards: 4, Workers: 2, SealRows: 1 << 20},
		coreFactory("PQ", core.Config{Delta: 0.25}))
	if err != nil {
		t.Fatal(err)
	}
	sh.KeepRowOrder()
	held := sh.cur.Load()
	req := query.Request{Pred: query.Range(1000, 1<<19), Aggs: column.AggAll}
	want := oracle.Agg(loaded, query.Range(1000, 1<<19))
	var stop atomic.Bool
	var wg sync.WaitGroup
	reader := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				f()
			}
		}()
	}
	reader(func() { // the loaded rows' values lie below 1<<20, the appended ones above
		if ans, err := sh.Execute(req); err != nil || query.AnswerAgg(ans) != want {
			t.Errorf("reader: %+v err=%v, want %+v", ans, err, want)
			stop.Store(true)
		}
	})
	reader(func() {
		rows := 0
		for _, b := range sh.BlockView() {
			rows += b.Len()
		}
		if rows < len(loaded) {
			t.Errorf("block view covers %d rows of %d", rows, len(loaded))
			stop.Store(true)
		}
	})
	reader(func() {
		if got := sh.MaterializeRows(); !slices.Equal(got[:len(loaded)], loaded) {
			t.Error("MaterializeRows differs from the loaded rows")
			stop.Store(true)
		}
	})
	reader(func() {
		if err := sh.Append([]int64{1 << 21, 1<<21 + 1}); err != nil {
			t.Error(err)
			stop.Store(true)
		}
	})
	for i := 0; i < 100_000 && !stop.Load(); i++ {
		sh.RefineShard()
		if ans, err := sh.executeOn(held, new(scratch), req, false, nil); err != nil || query.AnswerAgg(ans) != want {
			t.Fatalf("held view answered %+v err=%v, want %+v", ans, err, want)
		}
		settled := 0
		for _, si := range sh.ShardStats()[:4] {
			if si.Form == FormSettled {
				settled++
			}
		}
		if settled == 4 {
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	for i, si := range sh.ShardStats()[:4] {
		if si.Form != FormSettled {
			t.Fatalf("loaded shard %d never settled: %+v", i, si)
		}
	}
}

// TestSealRacesSettle runs seals against the queries that settle the
// small tail-born shards those seals absorb: one goroutine appends small
// batches and flushes each into a merge, while queries over the appended
// rows converge — and so settle — the shards the next merge reads, so
// that a seal reads an absorbed shard's rows while a slice swaps the form
// they are held in. Every answer stays exact and the drained table holds
// every row once, on a one-column table and on a row-ordered one.
// Meaningful under -race.
func TestSealRacesSettle(t *testing.T) {
	const batches, batch, base = 150, 24, 1 << 21
	for _, rowOrdered := range []bool{false, true} {
		loaded := uniform(4*BlockRows, 20, 15)
		sh, err := New(column.MustNew(slices.Clone(loaded)), Config{Shards: 2, Workers: 2, SealRows: 1 << 20},
			coreFactory("PQ", core.Config{Delta: 0.25}))
		if err != nil {
			t.Fatal(err)
		}
		if rowOrdered {
			sh.KeepRowOrder()
		}
		tl := obs.NewTimeline(1 << 12)
		sh.SetEventSink(tl)
		var queries atomic.Int64
		var done, failed atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer done.Store(true)
			vals := make([]int64, batch)
			for b := 0; b < batches; b++ {
				for i := range vals {
					vals[i] = base + int64(b*batch+i)
				}
				if err := sh.Append(vals); err != nil {
					t.Error(err)
					return
				}
				sh.FlushTail()
				for q := queries.Load(); queries.Load() < q+3 && !failed.Load(); { // let the queries at the new shards
					runtime.Gosched()
				}
			}
		}()
		for !done.Load() && !failed.Load() {
			ans, err := sh.Execute(query.Request{Pred: query.Range(base, 2*base), Aggs: column.AggCount})
			if err != nil || ans.Count%batch != 0 {
				t.Errorf("rowOrdered=%v: %+v err=%v, want whole batches", rowOrdered, ans, err)
				failed.Store(true)
			}
			queries.Add(1)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		merges, settles := 0, 0
		for _, e := range tl.Snapshot() {
			switch {
			case e.Kind == obs.EvShardSeal && e.B > 0:
				merges++
			case e.Kind == obs.EvShardSettle && e.Shard >= 2:
				settles++
			}
		}
		logical := slices.Clone(loaded)
		for r := 0; r < batches*batch; r++ {
			logical = append(logical, base+int64(r))
		}
		drain(t, sh)
		checkExact(t, sh, logical, 0, 2*base, "drained")
		if got := slices.Sorted(slices.Values(sh.MaterializeRows())); !slices.Equal(got, slices.Sorted(slices.Values(logical))) {
			t.Fatalf("rowOrdered=%v: the drained table's rows differ from the logical ones", rowOrdered)
		}
		if merges == 0 || settles == 0 {
			t.Fatalf("rowOrdered=%v: vacuous race: %d merging seals, %d tail-born settles", rowOrdered, merges, settles)
		}
	}
}

// TestSettleFollowsRowOrder holds the two settled forms side by side on
// one table's rows and a real index. Both tables settle on the slice that
// converges the index. A row-ordered table keeps its base blocks, and
// its rows read back in row order. A one-column table packs nothing and
// holds its rows once, as the tree's leaves: its rows read back sorted,
// its block view is the leaves, and what it reports holding is the tree
// alone.
func TestSettleFollowsRowOrder(t *testing.T) {
	logical := uniform(5*BlockRows+77, 20, 13)
	sorted := slices.Sorted(slices.Values(logical))
	queries := func(sh *Sharded) int {
		rng := rand.New(rand.NewSource(14))
		q := 0
		for ; !sh.Converged(); q++ {
			if q > 10_000 {
				t.Fatal("never converged")
			}
			lo := rng.Int63n(1 << 20)
			checkExact(t, sh, logical, lo, lo+rng.Int63n(1<<18), fmt.Sprintf("query %d", q))
		}
		return q
	}
	var took [2]int
	for i, rowOrdered := range []bool{true, false} {
		sh, err := New(column.MustNew(slices.Clone(logical)), Config{Workers: 1}, coreFactory("PQ", core.Config{Delta: 0.25}))
		if err != nil {
			t.Fatal(err)
		}
		if rowOrdered {
			sh.KeepRowOrder()
		}
		took[i] = queries(sh)
		st, si := sh.cur.Load().shards[0], sh.ShardStats()[0]
		tree := st.idx.(interface{ SizeBytes() int }).SizeBytes()
		rows, want := sh.MaterializeRows(), logical
		if !rowOrdered {
			want = sorted
		}
		switch {
		case si.Form != FormSettled || si.Encoding != "forbp" || st.vals != nil:
			t.Fatalf("rowOrdered=%v: %+v", rowOrdered, si)
		case rowOrdered && (st.packed == nil || si.Bytes != tree+st.packed.SizeBytes()):
			t.Fatalf("row-ordered: %+v, want base blocks beside the %d-byte tree", si, tree)
		case !rowOrdered && (st.packed != nil || si.Bytes != tree):
			t.Fatalf("one column: %+v, want the %d-byte tree alone", si, tree)
		case !slices.Equal(rows, want):
			t.Fatalf("rowOrdered=%v: the rows read back out of order", rowOrdered)
		}
		checkBlockView(t, sh, fmt.Sprintf("rowOrdered=%v", rowOrdered))
	}
	if took[1] != took[0] {
		t.Fatalf("the one-column table took %d queries to converge, the row-ordered one %d: one settled on a slice of its own", took[1], took[0])
	}
}

// TestSnapshotHoldsWhileTheTableMoves: a Snapshot of a raw table reads
// back, block by block and without taking a lock, exactly the rows it was
// taken over — in row order, as it was taken — while another goroutine
// appends (sealing shards of their own), refines the table to convergence
// and settles every shard: the forms a snapshot captures never change
// under it (run it under -race). A snapshot taken after gives the
// settled shards' rows sorted, and every appended row.
func TestSnapshotHoldsWhileTheTableMoves(t *testing.T) {
	logical := uniform(6*BlockRows+77, 24, 9)
	sh, err := New(column.MustNew(slices.Clone(logical)), Config{Shards: 2, Workers: 1, SealRows: 2 * BlockRows},
		coreFactory("PQ", core.Config{Mode: core.FixedDelta, Delta: 0.25}))
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := sh.Snapshot()
	read := func(snap []Block, n int) []int64 {
		var rows []int64
		for i := range snap {
			if snap[i].Len() > BlockRows {
				t.Errorf("a block of %d rows", snap[i].Len())
			}
			rows = snap[i].AppendTo(rows)
		}
		if len(rows) != n {
			t.Fatalf("read %d rows, the snapshot says %d", len(rows), n)
		}
		return rows
	}
	var appended []int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5; i++ {
			batch := uniform(BlockRows, 24, int64(20+i))
			if err := sh.Append(batch); err != nil {
				t.Error(err)
				return
			}
			appended = append(appended, batch...)
		}
		sh.FlushTail()
		for i := 0; !sh.Converged() && i < 100_000; i++ {
			sh.RefineStep()
		}
	}()
	for moving := true; moving; {
		select {
		case <-done:
			moving = false
		default:
		}
		if !slices.Equal(read(snap, len(logical)), logical) {
			t.Fatal("the snapshot's rows moved with the table")
		}
	}
	for _, si := range sh.ShardStats() {
		if si.Form != FormSettled {
			t.Fatalf("the table did not settle: %+v", sh.ShardStats())
		}
	}
	all := append(slices.Clone(logical), appended...)
	if got := read(sh.Snapshot()); !slices.Equal(slices.Sorted(slices.Values(got)), slices.Sorted(slices.Values(all))) {
		t.Fatal("a snapshot of the settled table lost or added rows")
	}
}
