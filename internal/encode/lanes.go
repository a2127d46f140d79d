package encode

import "math/bits"

// Lane kernels: what a lookup over packed rows needs of a FOR-BP
// segment — the B+-tree's leaf level (internal/btree), whose keys find
// the 64-row group and whose answer is then a rank, a value or a sum
// inside it. Each addresses rows [from, to) of the segment and touches
// only the groups those rows lie in, one pass over a group's planes; none
// decodes a row. They are defined for FOR-BP segments alone, which is
// all PackBlocks makes.

// laneMask selects the lanes of group g that rows [from, to) occupy; the
// group must overlap the range.
func laneMask(g, from, to int) uint64 {
	a, b := max(from-g*blockLen, 0), min(to-g*blockLen, blockLen)
	return ^uint64(0) >> uint(blockLen-b) &^ (uint64(1)<<uint(a) - 1)
}

// RankBelow returns how many of rows [from, to) are less than v — over
// sorted rows, the offset of v's lower bound. The compare is forbpMatch's
// lower test alone: delta + ^d + 1 carries out of the top plane exactly
// in the lanes whose delta reaches d = v - ref.
func (s *Segment) RankBelow(from, to int, v int64) int {
	switch {
	case from >= to || v <= s.min:
		return 0
	case v > s.max:
		return to - from
	}
	d, w := ^uint64(v-s.ref), int(s.width) // 0 < v-ref <= max-min, so it fits the planes
	rank := 0
	for g := from / blockLen; g*blockLen < to; g++ {
		reached := ^uint64(0)
		for j, p := range s.words[g*w : (g+1)*w] {
			t := -(d >> uint(j) & 1)
			reached = (p & reached) | (t & (p | reached))
		}
		rank += bits.OnesCount64(laneMask(g, from, to) &^ reached)
	}
	return rank
}

// At returns row i, gathered a bit a plane from its lane.
func (s *Segment) At(i int) int64 {
	w, lane := int(s.width), uint(i%blockLen)
	var d uint64
	for j, p := range s.words[(i/blockLen)*w:][:w] {
		d |= (p >> lane & 1) << uint(j)
	}
	return int64(d) + s.ref
}

// SumRows returns the wrapping sum of rows [from, to): aggMaskedFORBP's
// popcount per plane, under the mask of the lanes the rows occupy.
func (s *Segment) SumRows(from, to int) int64 {
	if from >= to {
		return 0
	}
	w := int(s.width)
	var sum int64
	for g := from / blockLen; g*blockLen < to; g++ {
		m := laneMask(g, from, to)
		for j, p := range s.words[g*w : (g+1)*w] {
			sum += int64(bits.OnesCount64(p&m)) << uint(j)
		}
	}
	return sum + int64(to-from)*s.ref
}
