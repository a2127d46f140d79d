package core

import (
	"math/bits"
	"slices"

	"repro/internal/cpuid"
)

// vector is true where the partition classifies its blocks with the
// AVX2 kernels (misplaced_amd64.s), decided once at start-up; the tests
// turn it off to run the Go loops.
var vector = cpuid.AVX2

// This file holds the inner loops creation and refinement spend their
// budget in: the leaf sort, the pivot partition and PB's separator
// search. Each makes the element visits the budget is charged for
// (DESIGN.md section 5), in the order the one-element-at-a-time loops
// they replaced made them, so a paused index is in the state it always
// was.

// sortLeafCut is the elements per radix pass below which sortLeaf hands
// the node to slices.Sort: a pass costs a 256-entry histogram whatever n
// is, and pdqsort on a hundred elements is an insertion sort or two.
const sortLeafCut = 128

// sortLeaf sorts a, a node refinement decided to finish outright, with
// an LSD radix sort on uint64(v) - uint64(min) over only the bytes in
// which the node's own min and max differ: refinement narrows a node's
// value span as it descends, so a leaf of a few thousand elements is
// two passes where a comparison sort is twelve levels. One pass over a
// finds the extrema and returns at once on an already-ordered (or
// constant) node. *scratch is the caller's to keep between leaves and
// to drop after the last; it grows here, by powers of two, to len(a).
func sortLeaf(a []int64, scratch *[]int64) {
	n := len(a)
	if n < 2 {
		return
	}
	mn, mx, prev, ordered := a[0], a[0], a[0], true
	for _, v := range a[1:] {
		ordered = ordered && v >= prev
		mn, mx, prev = min(mn, v), max(mx, v), v
	}
	if ordered {
		return
	}
	base := uint64(mn)
	span := bits.Len64(uint64(mx) - base)
	if n < sortLeafCut*((span+7)/8) {
		slices.Sort(a)
		return
	}
	if len(*scratch) < n {
		*scratch = make([]int64, 1<<bits.Len(uint(n-1)))
	}
	src, dst := a, (*scratch)[:n]
	for shift := 0; shift < span; shift += 8 {
		var off [256]int32
		for _, v := range src {
			off[uint8((uint64(v)-base)>>shift)]++
		}
		if int(off[uint8((uint64(src[0])-base)>>shift)]) == n {
			continue // every key has this byte: nothing to move
		}
		run := int32(0)
		for d, c := range off {
			off[d] = run
			run += c
		}
		for _, v := range src {
			d := uint8((uint64(v) - base) >> shift)
			dst[off[d]] = v
			off[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}

// partBlock is the block the Hoare partition classifies at a time; its
// offsets fit a byte.
const partBlock = 128

// partition advances the Hoare partition of arr[pl..pr] around pivot
// by up to budget element visits and returns the cursors and the budget
// left: a block from each end at a time while at least two blocks of
// budget and of span remain, partitionScalar for the rest. Classifying
// a block is branch-free (a compare and an add per element); the
// elements on the wrong side are then swapped pairwise, the i-th from
// the left with the i-th from the right — the pairs the scalar loop
// swaps.
//
// Pauses must land where the scalar loop's would (the cost model reads
// pl and pr through alphaElems), so the cursors only ever rest on
// states that loop passes through. It moves pl while arr[pl] <= pivot,
// then pr while arr[pr] > pivot, then swaps: pr may therefore run past
// elements known to belong right only once pl stands on an element that
// does not belong left. Until then the run is held back — still
// classified, not yet charged.
func partition(arr []int64, pivot int64, pl, pr, budget int) (int, int, int) {
	var offL, offR [partBlock]uint8
	var (
		nL, sL, bl int // unswapped left offsets offL[sL:sL+nL] from bl; pl == bl+offL[sL]
		nR, sR, br int // unswapped right offsets offR[sR:sR+nR] down from br
		rEnd       int // the right block reaches down to rEnd+1; -1: none classified
	)
	rEnd = -1
	for budget >= 2*partBlock && pr-pl+1 >= 2*partBlock {
		if nL == 0 {
			nL = misplacedLeft(arr[pl:pl+partBlock], pivot, &offL)
			if nL == 0 {
				pl += partBlock
				budget -= partBlock
				continue
			}
			bl, sL = pl, 0
			pl += int(offL[0])
			budget -= int(offL[0])
		}
		// pl stands on an element that belongs right: pr may run.
		if nR == 0 {
			if rEnd >= 0 {
				budget -= pr - rEnd
				pr, rEnd = rEnd, -1
				continue
			}
			nR = misplacedRight(arr[pr-partBlock+1:pr+1], pivot, &offR)
			if nR == 0 {
				pr -= partBlock
				budget -= partBlock
				continue
			}
			br, sR, rEnd = pr, 0, pr-partBlock
		}
		m := min(nL, nR)
		ors := offR[sR : sR+m]
		for i, ol := range offL[sL : sL+m] {
			l, r := bl+int(ol), br-int(ors[i])
			arr[l], arr[r] = arr[r], arr[l]
		}
		sL, sR, nL, nR = sL+m, sR+m, nL-m, nR-m
		// After the m-th swap the scalar loop stands one past each of the
		// pair, and pl goes on to the next element that belongs right.
		npl, npr := bl+partBlock, br-int(offR[sR-1])-1
		if nL > 0 {
			npl = bl + int(offL[sL])
		}
		budget -= (npl - pl) + (pr - npr)
		pl, pr = npl, npr
	}
	return partitionScalar(arr, pivot, pl, pr, budget)
}

// misplacedLeft writes to off the offsets, from the front of blk, of its
// elements > pivot and returns how many there are; misplacedRight the
// offsets, from the back of blk, of its elements <= pivot. Only the
// first n bytes of off are defined. Where the CPU has AVX2 the vector
// kernels classify four elements to a compare; elsewhere the Go loops
// below do, and they are the kernels' reference in the tests.
func misplacedLeft(blk []int64, pivot int64, off *[partBlock]uint8) int {
	if vector {
		return misplacedLeftAVX2((*[partBlock]int64)(blk), pivot, off)
	}
	return misplacedLeftGo(blk, pivot, off)
}

func misplacedRight(blk []int64, pivot int64, off *[partBlock]uint8) int {
	if vector {
		return misplacedRightAVX2((*[partBlock]int64)(blk), pivot, off)
	}
	return misplacedRightGo(blk, pivot, off)
}

// misplacedLeftGo and misplacedRightGo write every offset and move the
// count on only past the ones that stay (n <= i, so the mask only spares
// the bounds check). Not inlined: inside partition the counter spills
// to the stack on every element.
//
//go:noinline
func misplacedLeftGo(blk []int64, pivot int64, off *[partBlock]uint8) int {
	n := 0
	for i, v := range blk[:partBlock] {
		off[n&(partBlock-1)] = uint8(i)
		n += 1 - leq(v, pivot)
	}
	return n
}

//go:noinline
func misplacedRightGo(blk []int64, pivot int64, off *[partBlock]uint8) int {
	n := 0
	blk = blk[:partBlock]
	for i := partBlock - 1; i >= 0; i-- {
		off[n&(partBlock-1)] = uint8(partBlock - 1 - i)
		n += leq(blk[i], pivot)
	}
	return n
}

// partitionScalar is the Hoare partition one element at a time: the
// tail of every partition step, and the definition of the states a
// pause may rest on (the tests hold partition to it).
func partitionScalar(arr []int64, pivot int64, pl, pr, budget int) (int, int, int) {
	for budget > 0 && pl <= pr {
		switch {
		case arr[pl] <= pivot:
			pl++
			budget--
		case arr[pr] > pivot:
			pr--
			budget--
		default:
			arr[pl], arr[pr] = arr[pr], arr[pl]
			pl++
			pr--
			budget -= 2
		}
	}
	return pl, pr, budget
}

// leq is 1 when a <= b and 0 otherwise, as SETcc: on go1.24 `if a <= b
// { base += half }` still compiles to a conditional jump, which a
// search over random values mispredicts every other step.
func leq(a, b int64) int {
	m := 0
	if a <= b {
		m = 1
	}
	return m
}

// bucketIndex returns how many of the ascending separators are <= v —
// the equi-height bucket of v — as a lower bound with a trip count
// fixed by len(sep) and no data-dependent jump.
func bucketIndex(sep []int64, v int64) int {
	base, n := 0, len(sep)
	for n > 1 {
		half := n >> 1
		base += half & -leq(sep[base+half-1], v)
		n -= half
	}
	if n == 1 {
		base += leq(sep[base], v)
	}
	return base
}
