package encode

import "repro/internal/column"

// aggDict aggregates the rows against the clamped predicate [lo, hi]
// (callers guarantee s.min <= lo <= hi <= s.max). Because the
// dictionary is sorted ascending, the value range maps to one
// contiguous code range by binary search; the scan then runs the
// branch-free range kernel over gathered codes, looking a row's value
// up only for the SUM accumulation. Extrema are tracked as codes (code
// order == value order) and translated once at the end.
func (s *Segment) aggDict(lo, hi int64, aggs column.Aggregates) column.Agg {
	a := column.NewAgg()
	cLo := int64(column.LowerBound(s.dict, lo))
	cHi := int64(column.UpperBound(s.dict, hi)) - 1
	if cLo > cHi {
		// The clamped range falls between dictionary entries: no value
		// in this segment can match.
		return a
	}
	if s.width == 0 {
		// Single-entry dictionary: clamping pinned lo <= dict[0] <= hi,
		// so every row matches.
		cnt := int64(s.n)
		a.Sum, a.Count = cnt*s.dict[0], cnt
		if aggs.NeedsMinMax() {
			a.Min, a.Max = s.dict[0], s.dict[0]
		}
		return a
	}
	dict := s.dict
	w := uint(s.width)
	valmask := (uint64(1) << w) - 1
	words := s.words
	bit := uint(0)
	var sum, count int64
	if !aggs.NeedsMinMax() {
		for i := 0; i < s.n; i++ {
			word := bit >> 6
			off := bit & 63
			c := int64((words[word]>>off | words[word+1]<<(64-off)) & valmask)
			bit += w
			ge := ^((c - cLo) >> 63) & 1 // 1 iff c >= cLo
			le := ^((cHi - c) >> 63) & 1 // 1 iff c <= cHi
			m := ge & le
			sum += dict[c] & -m
			count += m
		}
		a.Sum, a.Count = sum, count
		return a
	}
	mnC, mxC := int64(len(dict)), int64(-1)
	for i := 0; i < s.n; i++ {
		word := bit >> 6
		off := bit & 63
		c := int64((words[word]>>off | words[word+1]<<(64-off)) & valmask)
		bit += w
		ge := ^((c - cLo) >> 63) & 1
		le := ^((cHi - c) >> 63) & 1
		m := ge & le
		mask := -m
		sum += dict[c] & mask
		count += m
		locand := (c & mask) | (mnC &^ mask) // c when matching, else mnC
		if locand < mnC {
			mnC = locand
		}
		hicand := (c & mask) | (mxC &^ mask)
		if hicand > mxC {
			mxC = hicand
		}
	}
	a.Sum, a.Count = sum, count
	if count > 0 {
		a.Min, a.Max = dict[mnC], dict[mxC]
	}
	return a
}

// appendDict decodes all rows in original order onto dst.
func (s *Segment) appendDict(dst []int64) []int64 {
	if s.width == 0 {
		for i := 0; i < s.n; i++ {
			dst = append(dst, s.dict[0])
		}
		return dst
	}
	w := uint(s.width)
	valmask := (uint64(1) << w) - 1
	bit := uint(0)
	for i := 0; i < s.n; i++ {
		word := bit >> 6
		off := bit & 63
		c := (s.words[word]>>off | s.words[word+1]<<(64-off)) & valmask
		bit += w
		dst = append(dst, s.dict[c])
	}
	return dst
}
