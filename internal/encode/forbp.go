package encode

import (
	"math"
	"math/bits"

	"repro/internal/column"
)

// FOR-BP storage is vertical (bit-sliced): each 64-row block stores
// its deltas as width bit-planes, one uint64 word per plane, where
// plane j's bit i is bit j of row i's delta v - ref. The layout costs
// exactly the same space as horizontal packing — width words per
// 64-row block — but lets the scan kernels evaluate the predicate for
// all 64 rows of a block with ~4 word operations per plane (a
// word-parallel carry-ripple compare, LSB plane first) instead of a
// shift-and-mask gather per row, and accumulate the SUM of matching
// rows as one popcount per plane. On one core this scans faster than
// the raw kernel once the width drops below ~32 bits: the compare
// touches width/8 bytes per row instead of 8.

// packVertical bit-slices the deltas v - ref into dst as width-w planes
// (w > 0), 64 values per block, by the transpose the decoder undoes: a
// block's deltas are the rows of a 64x64 bit matrix whose transpose
// holds one plane per row, of which the low w are kept. Deltas of at
// most h = 32, 16 or 8 bits leave the matrix's other columns empty, and
// the first stages of the transpose then only move whole rows: rows
// j, j+h, j+2h, … fold into row j side by side, and the stages below h
// run over h rows instead of 64. Lanes past the last value in the final
// block stay zero; the scan kernels mask them out.
func packVertical(dst []uint64, values []int64, ref int64, w uint) {
	h := uint(blockLen)
	for h > 8 && w <= h/2 {
		h /= 2
	}
	var m [blockLen]uint64
	for i := 0; i < len(values); i += blockLen {
		k := min(blockLen, len(values)-i)
		for j, v := range values[i : i+k] {
			m[j] = uint64(v - ref)
		}
		clear(m[k:])
		for q := h; q < blockLen; q += h {
			for j := range m[:h] {
				m[j] |= m[q+uint(j)] << q
			}
		}
		transposeStages(&m, h)
		copy(dst[(i/blockLen)*int(w):], m[:w])
	}
}

// aggFORBP aggregates the rows against the clamped predicate [lo, hi]
// (callers guarantee s.min <= lo <= hi <= s.max). The predicate is rewritten into FOR space once — dlo = lo-ref
// and dhi = hi-ref — and evaluated per block with a word-parallel
// compare that resolves v >= dlo and v <= dhi for all 64 lanes in one
// plane pass, branch-free and selectivity-independent. SUM adds
// popcount(plane & match) << j per plane of a block that matched at
// all (at a narrow range, most match nothing): the popcount decomposition
// equals the sum of matching deltas exactly, and all arithmetic wraps
// mod 2^64, so deltaSum + count*ref is bit-identical to summing the
// raw values in row order. MIN/MAX descend the planes restricting a
// candidate-lane mask (choose the 0-side for min, the 1-side for max),
// touching only blocks that matched at all.
func (s *Segment) aggFORBP(lo, hi int64, aggs column.Aggregates) column.Agg {
	a := column.NewAgg()
	if s.width == 0 {
		// Constant segment: clamping pinned lo == ref == hi, so every
		// row matches. count*ref == ref summed count times mod 2^64.
		cnt := int64(s.n)
		a.Sum, a.Count = cnt*s.ref, cnt
		if aggs.NeedsMinMax() {
			a.Min, a.Max = s.ref, s.ref
		}
		return a
	}
	w := int(s.width)
	dlo, dhi := uint64(lo-s.ref), uint64(hi-s.ref)
	// The two bound tests run as word-parallel ripple-carry adders over
	// the planes, LSB first (Lamport's comparison-by-addition):
	//   v >= dlo  <=>  v + (~dlo) + 1 carries out of bit w
	//   v >  dhi  <=>  v + (2^w-1-dhi)  carries out of bit w
	// so each plane needs only the carry recurrence
	//   carry' = (p & carry) | (t & (p | carry))
	// with t the all-ones/zero mask of the addend's bit j.
	var loNot, hiNot [64]uint64
	forbpBounds(dlo, dhi, w, &loNot, &hiNot)
	needMM := aggs.NeedsMinMax()
	var sum, count int64
	mn, mx := int64(math.MaxInt64), int64(math.MinInt64)
	words := s.words
	for i, block := 0, 0; i < s.n; block++ {
		k := s.n - i
		if k > blockLen {
			k = blockLen
		}
		planes := words[block*w : (block+1)*w]
		m := forbpMatch(planes, &loNot, &hiNot)
		if k < blockLen {
			m &= uint64(1)<<uint(k) - 1
		}
		i += k
		if m == 0 {
			continue // no lane matched: nothing to add, no extremum to move
		}
		count += int64(bits.OnesCount64(m))
		for j := 0; j < w; j++ {
			sum += int64(bits.OnesCount64(planes[j]&m)) << uint(j)
		}
		if needMM {
			// Plane descent for the block extrema, branch-free per
			// plane (nonzero test via the sign of z | -z). Two
			// short-circuits keep the steady-state cost near zero: once
			// the running extremum reaches the predicate bound itself no
			// later block can improve it, and within a block the descent
			// abandons as soon as its decided high-bit prefix proves the
			// block cannot beat the running extremum — the undecided low
			// bits can only move a block's min up and its max down.
			if mn > int64(dlo) {
				mn = minDelta(planes, m, mn)
			}
			if mx < int64(dhi) {
				mx = maxDelta(planes, m, mx)
			}
		}
	}
	a.Sum, a.Count = sum+count*s.ref, count
	if needMM && count > 0 {
		// Extrema tracked in delta space shift back by the reference;
		// with no matches (or no MIN/MAX request) the NewAgg sentinels
		// must survive untouched so answers stay field-for-field
		// identical to the raw kernel.
		a.Min, a.Max = mn+s.ref, mx+s.ref
	}
	return a
}

// forbpBounds spreads bit j of ^dlo and ^dhi (the ripple-carry addends
// of the two bound tests, see aggFORBP) into all-ones/zero masks.
func forbpBounds(dlo, dhi uint64, w int, loNot, hiNot *[64]uint64) {
	for j := 0; j < w; j++ {
		loNot[j] = -(^dlo >> uint(j) & 1)
		hiNot[j] = -(^dhi >> uint(j) & 1)
	}
}

// forbpMatch returns the lanes of one 64-row block whose delta lies in
// [dlo, dhi]: those that carried past dlo and did not carry past dhi.
func forbpMatch(planes []uint64, loNot, hiNot *[64]uint64) uint64 {
	cl, ch := ^uint64(0), uint64(0)
	for j, p := range planes {
		nl, nh := loNot[j], hiNot[j]
		cl = (p & cl) | (nl & (p | cl))
		ch = (p & ch) | (nh & (p | ch))
	}
	return cl &^ ch
}

// minDelta returns the smaller of best and the least delta among the
// candidate lanes of one block (cand must be nonzero), descending the
// planes MSB first and keeping the 0-side whenever a candidate has the
// bit clear. It abandons as soon as the decided high bits reach best.
func minDelta(planes []uint64, cand uint64, best int64) int64 {
	var d int64
	for j := len(planes) - 1; j >= 0; j-- {
		z := cand &^ planes[j]
		t := -((z | -z) >> 63) // all-ones iff some candidate has bit j clear
		cand = (z & t) | (cand &^ t)
		d |= int64(1<<uint(j)) &^ int64(t)
		if d >= best {
			return best
		}
	}
	if d < best {
		return d
	}
	return best
}

// maxDelta is minDelta's mirror: the 1-side is kept, and the descent
// abandons once even all-ones in the undecided low bits cannot beat
// best.
func maxDelta(planes []uint64, cand uint64, best int64) int64 {
	var d int64
	for j := len(planes) - 1; j >= 0; j-- {
		o := cand & planes[j]
		t := -((o | -o) >> 63)
		cand = (o & t) | (cand &^ t)
		d |= int64(1<<uint(j)) & int64(t)
		if d|(int64(1)<<uint(j)-1) <= best {
			return best
		}
	}
	if d > best {
		return d
	}
	return best
}

// appendFORBP decodes all rows in original order onto dst, one 64-row
// block at a time: the block's planes are the rows of a 64x64 bit
// matrix whose transpose holds one delta per row.
func (s *Segment) appendFORBP(dst []int64) []int64 {
	if s.width == 0 {
		for i := 0; i < s.n; i++ {
			dst = append(dst, s.ref)
		}
		return dst
	}
	w := int(s.width)
	var m [blockLen]uint64
	for i := 0; i < s.n; i += blockLen {
		copy(m[:w], s.words[(i/blockLen)*w:])
		clear(m[w:])
		transpose64(&m)
		for _, d := range m[:min(blockLen, s.n-i)] {
			dst = append(dst, int64(d)+s.ref)
		}
	}
	return dst
}

// transpose64 transposes a 64x64 bit matrix in place (bit c of m[r]
// becomes bit r of m[c]) by swapping ever smaller off-diagonal blocks:
// 32x32 halves first, then 16x16 within each, down to single bits.
func transpose64(m *[blockLen]uint64) { transposeStages(m, blockLen) }

// transposeStages runs the transpose's stages for blocks of h/2 rows and
// below over rows [0, h), h a power of two: all of it for h = 64, the
// tail of it for a matrix whose larger blocks the caller has placed.
func transposeStages(m *[blockLen]uint64, h uint) {
	mask := ^uint64(0) / (1<<(h/2) + 1) // ones in the low h/2 bits of every h
	for j := h / 2; j != 0; j, mask = j>>1, mask^(mask<<(j>>1)) {
		for base := uint(0); base < h; base += 2 * j {
			for k := base; k < base+j; k++ {
				t := (m[k]>>j ^ m[k+j]) & mask
				m[k] ^= t << j
				m[k+j] ^= t
			}
		}
	}
}
