package column

import "math/bits"

// Selection masks carry one bit per row, row i at bit i%64 of word
// i/64. The mask kernels let a conjunction evaluate one predicate per
// column over the same rows without materializing row ids: every
// predicate ANDs its match bits in, and the aggregate runs over the
// rows still set. A mask over n rows needs MaskWords(n) words; bits at
// or past n must be clear (FillMask establishes that, the kernels
// preserve it).

// MaskWords is the number of mask words n rows occupy.
func MaskWords(n int) int { return (n + 63) / 64 }

// FillMask selects rows [0, n): the first n bits of mask are set, every
// later bit cleared.
func FillMask(mask []uint64, n int) {
	full := n / 64
	for i := range mask {
		switch {
		case i < full:
			mask[i] = ^uint64(0)
		case i == full:
			mask[i] = uint64(1)<<uint(n%64) - 1
		default:
			mask[i] = 0
		}
	}
}

// RefineMask clears the bit of every selected row of vs whose value
// lies outside [lo, hi] and returns how many rows remain selected.
// Words that are already zero are skipped without touching vs. The
// match test is the single unsigned compare v-lo <= hi-lo, which holds
// for every int64 bound (no ±2^62 domain requirement) and compiles
// without a data-dependent branch.
func RefineMask(vs []int64, lo, hi int64, mask []uint64) int {
	if lo > hi {
		clear(mask)
		return 0
	}
	ulo, span := uint64(lo), uint64(hi)-uint64(lo)
	survivors := 0
	for i, mw := range mask {
		if mw == 0 {
			continue
		}
		if mw == ^uint64(0) {
			// Untouched word (the first predicate of a scan): test all 64
			// rows in order, no bit iteration.
			mw = 0
			for lane, v := range vs[i*64 : i*64+64] {
				var bit uint64
				if uint64(v)-ulo <= span {
					bit = 1
				}
				mw |= bit << uint(lane)
			}
		} else {
			block := vs[i*64:]
			for rest := mw; rest != 0; rest &= rest - 1 {
				lane := uint(bits.TrailingZeros64(rest))
				var miss uint64
				if uint64(block[lane])-ulo > span {
					miss = 1
				}
				mw &^= miss << lane
			}
		}
		mask[i] = mw
		survivors += bits.OnesCount64(mw)
	}
	return survivors
}

// AggMasked aggregates the selected rows of vs: field for field what
// AggRangeBranching returns over exactly those rows (Sum and Count
// always, extrema when requested, sentinels when nothing is selected).
func AggMasked(vs []int64, mask []uint64, aggs Aggregates) Agg {
	a := NewAgg()
	needMM := aggs.NeedsMinMax()
	for i, mw := range mask {
		if mw == 0 {
			continue
		}
		block := vs[i*64:]
		a.Count += int64(bits.OnesCount64(mw))
		for ; mw != 0; mw &= mw - 1 {
			v := block[bits.TrailingZeros64(mw)]
			a.Sum += v
			if needMM {
				if v < a.Min {
					a.Min = v
				}
				if v > a.Max {
					a.Max = v
				}
			}
		}
	}
	return a
}
