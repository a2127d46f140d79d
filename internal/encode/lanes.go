package encode

import (
	"math/bits"
	"unsafe"

	"repro/internal/column"
	"repro/internal/parallel"
)

// Sorted blocks: the B+-tree's leaf level (internal/btree), whose keys
// find the 64-row group and whose answer is then a rank, a value or a sum
// inside it. A sorted block is FOR-BP planes of one width with a frame
// per 64-row group, a line rather than a constant: lane i of group g holds
// its residual from refs[g] + i·step, the block's one step, raised by the
// block's bias so that no residual is negative. Step 0 frames each group
// on its own first row, whose width is the widest group's span — 6 bits a
// row for 4M dense values where a frame per block took 12; PackSorted
// keeps the block's fitted step instead only where it packs narrower,
// which takes dense keys, sequence numbers and fixed-interval timestamps
// to no bits at all. The lane kernels address rows [from, to) of the
// block and touch only the groups those rows lie in, one pass over a
// group's planes; none decodes a row to sum it.

// GroupRows is the rows of one bit-sliced group, the grain of a sorted
// block's frames: a B+-tree of that fan-out keeps its first key level in
// the blocks' group references.
const GroupRows = blockLen

// SortedBlock is one immutable block of at most BlockRows sorted rows.
// Safe for concurrent readers; there are no mutators.
type SortedBlock struct {
	n     int
	width uint8
	words []uint64
	// refs[g] is row g·GroupRows, the frame of group g; a slice of the
	// array PackSorted was handed, which the caller may share.
	refs []int64
	// Lane i of group g is refs[g] + i·step - bias + its planes' residual;
	// both are 0 where the groups are framed on their first rows alone.
	step, bias int64
}

// sortedHeader is what a SortedBlock weighs beside its words and
// references: the struct and the pointer the caller holds it by.
const sortedHeader = int(unsafe.Sizeof(SortedBlock{}) + unsafe.Sizeof(&SortedBlock{}))

// PackSorted packs sorted rows as consecutive SortedBlocks of BlockRows
// rows (the last one shorter when they do not divide), the blocks over
// pool (nil: the calling goroutine). refs, a slot per group of rows or
// more, receives the groups' first rows, and the blocks keep slices of
// it; the words are one allocation, whatever the pool's width, so that
// what a tree holds beside its payload does not grow with the workers
// that built it, and rows is not retained. Nothing checks that rows are
// sorted: a group's span is read off its first and last row.
func PackSorted(pool *parallel.Pool, rows, refs []int64) []*SortedBlock {
	blocks := make([]*SortedBlock, (len(rows)+BlockRows-1)/BlockRows)
	pool.Run(len(blocks), 1, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			part := rows[i*BlockRows : min((i+1)*BlockRows, len(rows))]
			blocks[i] = frameSorted(part, refs[i*BlockRows/GroupRows:][:(len(part)+GroupRows-1)/GroupRows])
		}
	})
	words := 0
	for _, b := range blocks {
		words += packedWords(b.n, uint(b.width))
	}
	if words == 0 { // no block has planes: each is a line
		return blocks
	}
	slab := make([]uint64, words)
	for _, b := range blocks {
		k := packedWords(b.n, uint(b.width))
		b.words, slab = slab[:k:k], slab[k:]
	}
	pool.Run(len(blocks), 1, func(_, lo, hi int) {
		var line [GroupRows]int64 // a group's rows less i·step: its residuals' offsets from ref
		for i := lo; i < hi; i++ {
			b, part := blocks[i], rows[i*BlockRows:]
			for g := 0; b.width > 0 && g < len(b.refs); g++ {
				group := part[g*GroupRows : min((g+1)*GroupRows, b.n)]
				if b.step != 0 {
					for j, v := range group {
						line[j] = v - int64(j)*b.step
					}
					group = line[:len(group)]
				}
				packVertical(b.words[g*int(b.width):], group, b.refs[g]-b.bias, uint(b.width))
			}
		}
	})
	return blocks
}

// frameSorted returns the unpacked block of the sorted rows part, its
// groups' references written to refs: framed on their first rows, or on
// the line of the block's fitted step, (last − first)/(n − 1), where that
// packs narrower. The residuals' range is checked a group at a time, and
// the fit given up as soon as it reaches the first-row frame's width.
func frameSorted(part, refs []int64) *SortedBlock {
	b := &SortedBlock{n: len(part), refs: refs}
	for g := range refs {
		first, last := g*GroupRows, min((g+1)*GroupRows, len(part))-1
		refs[g] = part[first]
		b.width = max(b.width, forWidth(part[first], part[last]))
	}
	if b.width == 0 || b.n < 2 {
		return b
	}
	step := (part[b.n-1] - part[0]) / int64(b.n-1)
	if step == 0 {
		return b
	}
	// A residual v - refs[g] - i·step lies strictly inside ±2^63: both
	// terms are in [0, last − first], as i·step ≤ min(63, n−1)·step.
	var lo, hi int64
	for g, ref := range refs {
		for j, v := range part[g*GroupRows : min((g+1)*GroupRows, b.n)] {
			r := v - ref - int64(j)*step
			lo, hi = min(lo, r), max(hi, r)
		}
		if bits.Len64(uint64(hi-lo)) >= int(b.width) {
			return b
		}
	}
	b.width, b.step, b.bias = uint8(bits.Len64(uint64(hi-lo))), step, -lo
	return b
}

// Len returns the number of rows in the block.
func (b *SortedBlock) Len() int { return b.n }

// Min returns the block's first row, its smallest.
func (b *SortedBlock) Min() int64 { return b.refs[0] }

// Max returns the block's last row, its largest.
func (b *SortedBlock) Max() int64 { return b.At(b.n - 1) }

// SizeBytes returns what the block holds: the packed words, the group
// references and the header — the struct, with its step and bias, and
// the pointer to it.
func (b *SortedBlock) SizeBytes() int { return 8*(len(b.words)+len(b.refs)) + sortedHeader }

// planes returns group g's bit planes.
func (b *SortedBlock) planes(g int) []uint64 {
	w := int(b.width)
	return b.words[g*w : (g+1)*w]
}

// laneMask selects the lanes of group g that rows [from, to) occupy; the
// group must overlap the range.
func laneMask(g, from, to int) uint64 {
	a, b := max(from-g*blockLen, 0), min(to-g*blockLen, blockLen)
	return ^uint64(0) >> uint(blockLen-b) &^ (uint64(1)<<uint(a) - 1)
}

// RankBelow returns how many of rows [from, to) are less than v — over
// sorted rows, the offset of v's lower bound. With a step and residuals
// the lanes are no common offset from a frame, and the rank is a binary
// search through At. Otherwise a group is settled by its frame alone
// unless v lies inside it: on a line of no residuals the rank is a
// division, and on planes the compare is forbpMatch's lower test alone:
// delta + ^d + 1 carries out of the top plane exactly in the lanes whose
// delta reaches d = v - ref.
func (b *SortedBlock) RankBelow(from, to int, v int64) int {
	if b.step != 0 && b.width != 0 {
		lo, hi := from, to
		for lo < hi {
			if mid := int(uint(lo+hi) >> 1); b.At(mid) < v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo - from
	}
	// Every row lies strictly inside ±MaxMagnitude, so clamping v there
	// ranks the same and keeps v - ref from wrapping.
	v = min(max(v, -column.MaxMagnitude), column.MaxMagnitude)
	rank := 0
	for g := from / blockLen; g*blockLen < to; g++ {
		m := laneMask(g, from, to)
		switch d := v - b.refs[g]; {
		case d <= 0: // v is at most the group's first row
		case b.width == 0: // lane i is ref + i·step: below v while i·step < d
			if b.step != 0 && (d-1)/b.step < blockLen-1 {
				m &= uint64(1)<<uint((d-1)/b.step+1) - 1
			}
			rank += bits.OnesCount64(m)
		case bits.Len64(uint64(d)) > int(b.width): // past the group's last
			rank += bits.OnesCount64(m)
		default:
			nd, reached := ^uint64(d), ^uint64(0)
			for j, p := range b.planes(g) {
				t := -(nd >> uint(j) & 1)
				reached = (p & reached) | (t & (p | reached))
			}
			rank += bits.OnesCount64(m &^ reached)
		}
	}
	return rank
}

// At returns row i, its residual gathered a bit a plane from its lane.
func (b *SortedBlock) At(i int) int64 {
	lane := uint(i) % blockLen
	planes := b.planes(i / blockLen)
	var d uint64
	for j := len(planes) - 1; j >= 0; j-- {
		d = d<<1 | planes[j]>>lane&1
	}
	return b.refs[i/blockLen] - b.bias + int64(lane)*b.step + int64(d)
}

// SumRows returns the wrapping sum of rows [from, to): aggMaskedFORBP's
// popcount per plane, under the mask of the lanes the rows occupy.
func (b *SortedBlock) SumRows(from, to int) int64 {
	var sum int64
	for g := from / blockLen; g*blockLen < to; g++ {
		sum += b.sumMasked(g, laneMask(g, from, to))
	}
	return sum
}

// sumMasked is the wrapping sum of the lanes m selects in group g: their
// count times the frame's origin, the step times the sum of their lane
// indexes — a popcount a bit of the index — and a popcount per plane.
func (b *SortedBlock) sumMasked(g int, m uint64) int64 {
	sum := int64(bits.OnesCount64(m)) * (b.refs[g] - b.bias)
	if b.step != 0 {
		lanes := bits.OnesCount64(m&0xAAAAAAAAAAAAAAAA) + bits.OnesCount64(m&0xCCCCCCCCCCCCCCCC)<<1 +
			bits.OnesCount64(m&0xF0F0F0F0F0F0F0F0)<<2 + bits.OnesCount64(m&0xFF00FF00FF00FF00)<<3 +
			bits.OnesCount64(m&0xFFFF0000FFFF0000)<<4 + bits.OnesCount64(m&0xFFFFFFFF00000000)<<5
		sum += int64(lanes) * b.step
	}
	for j, p := range b.planes(g) {
		sum += int64(bits.OnesCount64(p&m)) << uint(j)
	}
	return sum
}

// AppendTo appends the decoded rows, in order, to dst.
func (b *SortedBlock) AppendTo(dst []int64) []int64 {
	w := int(b.width)
	var m [blockLen]uint64
	for g, ref := range b.refs {
		if w > 0 {
			copy(m[:w], b.planes(g))
			clear(m[w:])
			transpose64(&m)
		}
		base := ref - b.bias
		for i, d := range m[:min(blockLen, b.n-g*blockLen)] {
			dst = append(dst, base+int64(i)*b.step+int64(d))
		}
	}
	return dst
}

// Refine clears the bit of every selected row outside [lo, hi] and
// returns how many remain (the mask kernels' contract, mask.go). The
// rows being sorted, those inside are one run, found by two ranks.
func (b *SortedBlock) Refine(lo, hi int64, mask []uint64) int {
	mask = mask[:column.MaskWords(b.n)]
	from, to := b.RankBelow(0, b.n, lo), b.n
	if hi < column.MaxMagnitude {
		to = b.RankBelow(0, b.n, hi+1)
	}
	survivors := 0
	for i := range mask {
		if from >= to || (i+1)*blockLen <= from || i*blockLen >= to {
			mask[i] = 0
			continue
		}
		mask[i] &= laneMask(i, from, to)
		survivors += bits.OnesCount64(mask[i])
	}
	return survivors
}

// AggMasked aggregates the selected rows: the sum group by group, and the
// extrema — the rows being sorted — at the first and last selected lane.
func (b *SortedBlock) AggMasked(mask []uint64, aggs column.Aggregates) column.Agg {
	a := column.NewAgg()
	first, last := -1, -1
	for g, m := range mask[:column.MaskWords(b.n)] {
		if m == 0 {
			continue
		}
		a.Count += int64(bits.OnesCount64(m))
		a.Sum += b.sumMasked(g, m)
		if first < 0 {
			first = g*blockLen + bits.TrailingZeros64(m)
		}
		last = g*blockLen + 63 - bits.LeadingZeros64(m)
	}
	if aggs.NeedsMinMax() && a.Count > 0 {
		a.Min, a.Max = b.At(first), b.At(last)
	}
	return a
}
