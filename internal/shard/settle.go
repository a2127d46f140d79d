package shard

import (
	"math/bits"
	"slices"

	"repro/internal/encode"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Settle is the mirror image of the claim (DESIGN.md section 9). Once a
// shard's index has converged it answers from its own B+-tree, and no
// query reads the shard's raw rows again. Where nothing reads them in row
// order either — a one-column table, whose answers, checkpoints and seals
// need each shard's rows in any order — the tree's packed leaves are the
// rows: the slice that converges the index drops the raw rows, packs
// nothing, and the shard has settled. A row-ordered table (KeepRowOrder:
// its planner ANDs the columns' blocks row by row) keeps them in row
// order: the write-path slices that follow — query-borne or idle, the ones
// that refined the index — pack them into FOR-BP blocks on the shard's
// own BlockRows grid, each slice as many blocks as fit the largest
// indexing slice the index ever reported (costmodel.PackTime). The slice
// that packs the last block swaps the forms: packed in, raw rows out,
// index kept — it released its base column when it converged. Only then
// is the shard converged, so no query pays more for the settle than one
// paid for the refinement, and Converged still means that nothing is left
// to do.
//
// Rows that could not be freed are never given up: see settleable and
// waitsForLoaded.

// settleMaxWidth is the widest frame a shard packs its base rows into:
// above 48 of 64 bits the packed rows would save under a quarter, too
// little for the decode it puts in front of every checkpoint.
const settleMaxWidth = 48

// narrow reports whether the shard's rows pack into settleMaxWidth bits,
// read off its zone, which bounds every block's frame.
func (st *state) narrow() bool {
	return bits.Len64(uint64(st.max-st.min)) <= settleMaxWidth
}

// leafIndex is an index whose converged form holds the rows: its B+-tree's
// packed leaves, sorted (core's progressive algorithms).
type leafIndex interface {
	Leaves() []*encode.SortedBlock
}

// leaves returns the rows of a settled shard that packed none, its
// index's leaves. Caller holds st.mu.
func (st *state) leaves() []*encode.SortedBlock { return st.idx.(leafIndex).Leaves() }

// KeepRowOrder declares that something reads the table's rows in row
// order — a multi-column table's planner ANDs its columns' block views
// row by row — so that a settled shard keeps them as packed blocks beside
// its index; otherwise a converged index's leaves are the shard's rows.
// Call it before the table is used.
func (s *Sharded) KeepRowOrder() { s.rowOrdered = true }

// settleable reports whether the shard would free its raw rows by
// settling, were its index to let go of them (noteIndexDone asks it); the
// answer never changes over its life as an indexed shard. A shard that a
// seal or a claim built owns its rows, whatever its size. Rows packed in
// row order must pack narrow, and the loaded shards of a raw row-ordered
// table slice one array, freed only when all of them let go of it: all
// must be narrow. Caller holds st.mu.
func (s *Sharded) settleable(st *state) bool {
	switch {
	case !s.rowOrdered:
		return true
	case st.tailBorn || s.encoding.Compressed():
		return st.narrow()
	}
	return s.loadedNarrow
}

// sharesLoaded reports whether st slices the array a raw row-ordered table
// was loaded from, as its loaded siblings do, so that packing its rows
// frees nothing until every one of them can let go.
func (s *Sharded) sharesLoaded(st *state) bool {
	return s.rowOrdered && !st.tailBorn && !s.encoding.Compressed()
}

// waitsForLoaded reports whether st must not settle yet: it shares the
// loaded array and a sibling's index has yet to converge — a table with
// one never-queried shard would otherwise hold its rows raw and packed
// for good. Until then a settleable shard keeps taking its write lock,
// though its converged index only reads.
func (s *Sharded) waitsForLoaded(st *state) bool {
	return s.sharesLoaded(st) && s.loadedOpen.Load() > 0
}

// noteIndexDone records, once, that the shard's index has converged, and
// where settling would free the rows asks the index to release its base
// column: ReleaseBase reports whether the shard will settle. An index that
// reads the column for life keeps the rows alive whatever the shard does,
// so such a shard, like one that is not settleable or, in a one-column
// table, whose index does not hold the rows, is converged with its index.
// A one-column shard settles here — its raw rows go — and settled tells
// the caller to publish it; a row-ordered one that will settle is one
// fewer for its loaded siblings to wait for. The caller holds the shard
// lock for writing, or the shard is not published yet.
func (s *Sharded) noteIndexDone(st *state) (settled bool) {
	if st.idx == nil || !st.idx.Converged() || !st.idxDone.CompareAndSwap(false, true) {
		return false
	}
	_, holdsRows := st.idx.(leafIndex)
	switch {
	case !s.settleable(st) || (!s.rowOrdered && !holdsRows) || !st.idx.ReleaseBase():
		st.converged.Store(true)
	case !s.rowOrdered:
		st.vals = nil // the index's leaves are the rows
		return true
	case s.sharesLoaded(st):
		s.loadedOpen.Add(-1)
	}
	return false
}

// noteBornDone is noteIndexDone for a shard a view is about to publish —
// at load, by a seal, by a claim: one that settles at once is converged
// with that view.
func (s *Sharded) noteBornDone(st *state) {
	if s.noteIndexDone(st) {
		st.converged.Store(true)
	}
}

// packPool is what a settle slice packs its blocks over: the table's
// pool where the table was loaded as one shard and its indexes run their
// kernels over it under the shard lock already, nil — the calling
// goroutine — where shards fan out over it (see New).
func (s *Sharded) packPool() *parallel.Pool {
	if s.fanout == nil {
		return s.pool
	}
	return nil
}

// settleSlice spends one slice on the settle of a row-ordered shard whose
// index has converged: it packs the next blocks of the raw rows, as many
// as fit the largest slice the index was ever granted and at least one,
// and returns their modeled cost; the slice that packs the last block
// swaps the forms and reports settled. Nothing happens, at no cost, on a
// shard that does not settle, that has settled, that waits for its loaded
// siblings, or whose swap another slice is publishing. Caller holds st.mu
// for writing.
func (s *Sharded) settleSlice(st *state) (cost float64, settled bool) {
	if st.converged.Load() || st.vals == nil || s.waitsForLoaded(st) {
		return 0, false
	}
	pool := s.packPool()
	rows := len(st.vals)
	total := (rows + BlockRows - 1) / BlockRows
	if st.segs == nil {
		st.segs = make([]*encode.Segment, 0, total)
	}
	from := len(st.segs)
	n := min(max(int(st.maxWork/s.model.PackTime(BlockRows, pool.Workers())), 1), total-from)
	st.segs = st.segs[:from+n]
	pool.Run(n, 1, func(_, a, b int) {
		copy(st.segs[from+a:], encode.PackBlocks(st.vals[encode.BlockStart(from+a, rows):encode.BlockStart(from+b, rows)]))
	})
	cost = s.model.PackTime(encode.BlockStart(from+n, rows)-from*BlockRows, pool.Workers())
	if from+n < total {
		return cost, false
	}
	st.packed, st.vals, st.segs = encode.BlocksOf(st.segs), nil, nil
	return cost, true
}

// publishSettled makes a finished settle visible, after the slice that
// finished it has released the shard lock (a seal takes the shard locks
// under amu, so amu is never taken under one): the view is republished —
// the old one's block table still serves the raw rows, and pins them —
// the event recorded with the bytes the shard now holds, and only then is
// the shard converged, so that a table that reports Converged no longer
// reaches the rows it traded.
func (s *Sharded) publishSettled(st *state) {
	shards := s.republish()
	_, _, bytes := st.encodingInfo()
	s.sink.Load().Record(obs.EvShardSettle, int32(slices.Index(shards, st)), float64(st.end-st.start), float64(bytes))
	st.converged.Store(true)
}
