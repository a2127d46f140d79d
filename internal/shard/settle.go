package shard

import (
	"slices"

	"repro/internal/encode"
	"repro/internal/obs"
)

// Settle is the mirror image of the claim (DESIGN.md section 9). Once a
// shard's index has converged it answers from its own B+-tree, and no
// query reads the shard's raw rows again. Where the rows are held
// elsewhere too — as the tree's packed leaves, or as the packed blocks a
// row-ordered shard keeps for life (KeepRowOrder) — the slice that
// converges the index drops the raw rows, packs nothing, and the shard
// has settled: Converged still means that nothing is left to do.

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
// row by row — so that every shard holds them as FOR-BP blocks on its own
// BlockRows grid for its whole life: a raw table's loaded shards pack
// theirs here, over the pool, and every seal packs its run (sealLocked);
// a compressed table's shards were born packed, and a claim keeps the
// blocks. Otherwise a converged index's leaves are the shard's rows. Call
// it before the table is used.
func (s *Sharded) KeepRowOrder() {
	s.rowOrdered = true
	for _, st := range s.cur.Load().shards {
		if st.packed == nil {
			st.packed = encode.Pack(s.pool, st.vals, encode.ModeFORBP)
		}
	}
}

// noteIndexDone records, once, that the shard's index has converged, and
// where the rows are held elsewhere — the packed blocks of a row-ordered
// shard, or the index's own leaves — asks the index to release its base
// column: ReleaseBase reports whether the shard settles. It settles here —
// its raw rows go — and settled tells the caller to publish it. A shard
// whose index reads the column for life, or holds no copy of the rows
// that could replace it, is converged with its index. The caller holds
// the shard lock for writing, or the shard is not published yet.
func (s *Sharded) noteIndexDone(st *state) (settled bool) {
	if st.idx == nil || !st.idx.Converged() || !st.idxDone.CompareAndSwap(false, true) {
		return false
	}
	if _, holdsRows := st.idx.(leafIndex); (st.packed == nil && !holdsRows) || !st.idx.ReleaseBase() {
		st.converged.Store(true)
		return false
	}
	st.vals = nil
	return true
}

// noteBornDone is noteIndexDone for a shard a view is about to publish —
// at load, by a seal, by a claim: one that settles at once is converged
// with that view.
func (s *Sharded) noteBornDone(st *state) {
	if s.noteIndexDone(st) {
		st.converged.Store(true)
	}
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
