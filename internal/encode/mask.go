package encode

import (
	"fmt"
	"math/bits"

	"repro/internal/column"
)

// Mask kernels: the conjunction pipeline's two steps over one packed
// segment (see column.RefineMask for the mask layout). A mask covers
// the segment's rows with column.MaskWords(s.Len()) words; bits at or
// past Len() must be clear. Neither kernel decodes a row it does not
// have to: FOR-BP works 64 rows per plane operation, dictionary and raw
// segments touch only the rows still selected.

// Refine clears the bit of every selected row whose value lies outside
// [lo, hi] and returns how many rows remain selected. Words of mask that
// are already zero are skipped.
func (s *Segment) Refine(lo, hi int64, mask []uint64) int {
	mask = mask[:column.MaskWords(s.n)]
	if lo < s.min {
		lo = s.min
	}
	if hi > s.max {
		hi = s.max
	}
	if lo > hi {
		clear(mask)
		return 0
	}
	if lo == s.min && hi == s.max {
		// The predicate covers the segment's zone: every row passes.
		// Constant segments (width 0) always end here or above.
		survivors := 0
		for _, mw := range mask {
			survivors += bits.OnesCount64(mw)
		}
		return survivors
	}
	switch s.kind {
	case KindRaw:
		return column.RefineMask(s.raw, lo, hi, mask)
	case KindFORBP:
		return s.refineFORBP(lo, hi, mask)
	case KindDict:
		return s.refineDict(lo, hi, mask)
	}
	panic(fmt.Sprintf("encode: corrupt segment kind %d", s.kind))
}

// AggMasked aggregates the selected rows, bit-identical to aggregating
// the same rows of the decoded segment (sums wrap mod 2^64, so the
// order of accumulation is free).
func (s *Segment) AggMasked(mask []uint64, aggs column.Aggregates) column.Agg {
	mask = mask[:column.MaskWords(s.n)]
	switch s.kind {
	case KindRaw:
		return column.AggMasked(s.raw, mask, aggs)
	case KindFORBP:
		return s.aggMaskedFORBP(mask, aggs)
	case KindDict:
		return s.aggMaskedDict(mask, aggs)
	}
	panic(fmt.Sprintf("encode: corrupt segment kind %d", s.kind))
}

// refineFORBP evaluates the clamped predicate with aggFORBP's ripple-
// carry compare, one 64-row word at a time, and ANDs the match bits
// into the mask.
func (s *Segment) refineFORBP(lo, hi int64, mask []uint64) int {
	w := int(s.width)
	var loNot, hiNot [64]uint64
	forbpBounds(uint64(lo-s.ref), uint64(hi-s.ref), w, &loNot, &hiNot)
	survivors := 0
	for i, mw := range mask {
		if mw == 0 {
			continue
		}
		mw &= forbpMatch(s.words[i*w:(i+1)*w], &loNot, &hiNot)
		mask[i] = mw
		survivors += bits.OnesCount64(mw)
	}
	return survivors
}

// aggMaskedFORBP sums popcount(plane & mask) << j per plane and finds
// the extrema by the plane descent seeded with the mask, all in delta
// space; the reference is added back once at the end.
func (s *Segment) aggMaskedFORBP(mask []uint64, aggs column.Aggregates) column.Agg {
	a := column.NewAgg()
	w := int(s.width)
	needMM := aggs.NeedsMinMax()
	var sum, count int64
	mn, mx := a.Min, a.Max
	for i, m := range mask {
		if m == 0 {
			continue
		}
		planes := s.words[i*w : (i+1)*w]
		count += int64(bits.OnesCount64(m))
		for j, p := range planes {
			sum += int64(bits.OnesCount64(p&m)) << uint(j)
		}
		if needMM {
			mn = minDelta(planes, m, mn)
			mx = maxDelta(planes, m, mx)
		}
	}
	a.Sum, a.Count = sum+count*s.ref, count
	if needMM && count > 0 {
		a.Min, a.Max = mn+s.ref, mx+s.ref
	}
	return a
}

// code gathers row's dictionary code from the horizontal packing.
func (s *Segment) code(row int) int64 {
	w := uint(s.width)
	bit := uint(row) * w
	word, off := bit>>6, bit&63
	return int64((s.words[word]>>off | s.words[word+1]<<(64-off)) & (uint64(1)<<w - 1))
}

// refineDict maps the clamped value range to its contiguous code range
// and tests the code of every row still selected.
func (s *Segment) refineDict(lo, hi int64, mask []uint64) int {
	cLo := int64(column.LowerBound(s.dict, lo))
	cHi := int64(column.UpperBound(s.dict, hi)) - 1
	if cLo > cHi {
		// The range falls between two dictionary entries.
		clear(mask)
		return 0
	}
	survivors := 0
	for i, mw := range mask {
		if mw == 0 {
			continue
		}
		for rest := mw; rest != 0; rest &= rest - 1 {
			lane := bits.TrailingZeros64(rest)
			if c := s.code(i*blockLen + lane); c < cLo || c > cHi {
				mw &^= 1 << uint(lane)
			}
		}
		mask[i] = mw
		survivors += bits.OnesCount64(mw)
	}
	return survivors
}

// aggMaskedDict looks the selected rows' values up through their codes;
// extrema are tracked as codes (code order is value order).
func (s *Segment) aggMaskedDict(mask []uint64, aggs column.Aggregates) column.Agg {
	a := column.NewAgg()
	if s.width == 0 {
		// Single-entry dictionary: no code words to gather from.
		for _, mw := range mask {
			a.Count += int64(bits.OnesCount64(mw))
		}
		a.Sum = a.Count * s.dict[0]
		if aggs.NeedsMinMax() && a.Count > 0 {
			a.Min, a.Max = s.dict[0], s.dict[0]
		}
		return a
	}
	mnC, mxC := int64(len(s.dict)), int64(-1)
	for i, mw := range mask {
		a.Count += int64(bits.OnesCount64(mw))
		for ; mw != 0; mw &= mw - 1 {
			c := s.code(i*blockLen + bits.TrailingZeros64(mw))
			a.Sum += s.dict[c]
			if c < mnC {
				mnC = c
			}
			if c > mxC {
				mxC = c
			}
		}
	}
	if aggs.NeedsMinMax() && a.Count > 0 {
		a.Min, a.Max = s.dict[mnC], s.dict[mxC]
	}
	return a
}
