// Package btree implements the bulk-loaded B+-tree that every
// progressive index converges to (consolidation phase, Section 3) and
// that the Full Index baseline builds on its first query.
//
// The tree is static: it is built over an already fully sorted array by
// copying every β-th key to a parent level, repeatedly, until a level
// fits in one node — exactly the construction the paper describes
// ("we copy every β element of our sorted array to a parent level"),
// N_copy = Σ n/β^i key slots.
//
// The leaf level is not that array but its rows packed: sorted blocks of
// encode.BlockRows rows bit-sliced in 64-row groups, each group framed on
// a line from its own first row — the block's fitted step, or none where
// that packs narrower — so at β = 64 a node is one group and the first
// key level is the groups' references, held once. The parent levels find
// the node; inside it a lookup is a rank, a value or a sum over a group's
// planes (encode's lane kernels), and the finished tree holds no raw row:
// the paper's 4M uniform rows, dense once sorted, lie on their blocks'
// lines and weigh 0.28 byte a row — references, prefix sums and block
// headers — where the sorted array weighed 8 and first-row frames 1.00.
//
// Beside the first parent level sits an array of prefix sums at node
// grain, cum[j] = Σ leaf[0 : j·β] (wrapping, as every SUM in this
// repository does), n/β+1 words or an eighth of a byte per row at β = 64.
// It is the per-tile aggregate metadata of Maroulis et al. (PAPERS.md)
// moved to where the paper's end state lives: a SUM over a run of any
// length is cum[j₂] − cum[j₁] plus the fewer than 2β leaves between the
// run's ends and the nearest node boundaries inside it, so a converged
// index answers every aggregate at lookup cost.
//
// Builder exposes that construction incrementally: Step(pool, k) packs
// the next k blocks of the sorted array and, in the same read, copies the
// keys those rows give every parent level and adds up the nodes they
// complete, which is how the consolidation phase spreads the build over
// many queries under a per-query budget.
package btree

import (
	"fmt"

	"repro/internal/column"
	"repro/internal/encode"
	"repro/internal/parallel"
)

// Tree is an immutable bulk-loaded B+-tree over sorted rows it holds
// packed.
type Tree struct {
	fanout int
	n      int
	// keys[k][j] is leaf j·fanout^(k+1): keys[0] heads the leaf nodes and
	// keys[k+1][j] == keys[k][j*fanout]. Empty for a single-node tree. At
	// β = encode.GroupRows keys[0] is the leaves' group references.
	keys [][]int64
	// cum[j] is the wrapping sum of leaf[0 : j*fanout], for every j up to
	// and including len(keys[0]); nil for a single-node tree.
	cum []int64
	// leaves[b] holds leaf[b·BlockRows : (b+1)·BlockRows], packed.
	leaves []*encode.SortedBlock
}

// Len returns the number of keys at the leaf level.
func (t *Tree) Len() int { return t.n }

// Height returns the number of levels including the leaves.
func (t *Tree) Height() int { return len(t.keys) + 1 }

// SizeBytes returns what the tree holds: the parent levels, the prefix
// sums and the leaves' packed words, group references and headers — the
// first key level once where it is those references.
func (t *Tree) SizeBytes() int {
	size := heldBytes(len(t.cum))
	for k, level := range t.keys {
		if k > 0 || t.fanout != encode.GroupRows {
			size += heldBytes(len(level))
		}
	}
	for _, leaf := range t.leaves {
		size += leaf.SizeBytes()
	}
	return size
}

// heldBytes is what the allocator holds for an array of n words: past
// 32 KiB an array takes whole 8 KiB pages, so the n/β+1 prefix sums of
// 2^k rows hold nearly a page more than their words.
func heldBytes(n int) int {
	const page = 8 << 10
	if n*8 <= 32<<10 {
		return n * 8
	}
	return (n*8 + page - 1) / page * page
}

// Leaves returns the leaf level, packed, for read-only use: block b holds
// leaf[b·BlockRows : (b+1)·BlockRows].
func (t *Tree) Leaves() []*encode.SortedBlock { return t.leaves }

// Build constructs the tree in one shot (Full Index baseline).
func Build(sorted []int64, fanout int) (*Tree, error) {
	b, err := NewBuilder(sorted, fanout)
	if err != nil {
		return nil, err
	}
	b.Step(nil, b.Blocks())
	return b.Tree(), nil
}

// window is the positions of a level that may hold the lower bound of v
// once the level above (of length above) has placed it at pos:
// keys[pos-1] < v (if pos > 0) and keys[pos] >= v (if pos < above). Since
// key j of the level above is position j*fanout here, the answer lies in
// ((pos-1)*fanout, pos*fanout] — the bound included, as the answer when
// the window holds nothing smaller — clipped to this level's length.
func (t *Tree) window(pos, above, length int) (left, right int) {
	if pos > 0 {
		left = (pos-1)*t.fanout + 1
	}
	right = length
	if pos < above {
		right = min(pos*t.fanout, right)
	}
	return left, right
}

// LowerBound returns the first leaf position p with leaf[p] >= v,
// descending from the top level so that each binary search touches only
// one node worth of keys and the last step ranks v inside one leaf node.
func (t *Tree) LowerBound(v int64) int {
	top := len(t.keys) - 1
	if top < 0 {
		return t.rankBelow(0, t.n, v)
	}
	pos := column.LowerBound(t.keys[top], v)
	for lvl := top - 1; lvl >= 0; lvl-- {
		left, right := t.window(pos, len(t.keys[lvl+1]), len(t.keys[lvl]))
		pos = left + column.LowerBound(t.keys[lvl][left:right], v)
	}
	left, right := t.window(pos, len(t.keys[0]), t.n)
	return left + t.rankBelow(left, right, v)
}

// UpperBound returns the first leaf position p with leaf[p] > v.
func (t *Tree) UpperBound(v int64) int {
	if v >= column.MaxMagnitude {
		return t.Len() // no key reaches MaxMagnitude, and v+1 must not wrap
	}
	return t.LowerBound(v + 1)
}

// AggRange computes the requested aggregates over the inclusive range
// [lo, hi] and reports how many leaves it read to do so. One pair of
// descents finds the matching run, which gives COUNT outright and, when
// they are asked for, MIN and MAX as the rows at its ends; a SUM (or AVG)
// takes the whole nodes inside the run from the prefix sums and adds only
// the leaves outside them, fewer than 2β, or the run itself when it is
// shorter than a node.
func (t *Tree) AggRange(lo, hi int64, aggs column.Aggregates) (a column.Agg, read int) {
	a = column.NewAgg()
	i := t.LowerBound(lo)
	j := t.UpperBound(hi)
	if i >= j { // nothing matches; inverted bounds end here too
		return a, 0
	}
	a.Count = int64(j - i)
	if aggs.NeedsMinMax() {
		a.Min, a.Max = t.at(i), t.at(j-1)
	}
	if !aggs.NeedsSum() {
		return a, 0
	}
	if j-i < t.fanout {
		a.Sum = t.sumRows(i, j)
		return a, j - i
	}
	// j-i >= fanout puts at least one node boundary in [i, j], so j1 <= j2.
	j1 := (i + t.fanout - 1) / t.fanout
	j2 := j / t.fanout
	a.Sum = t.sumRows(i, j1*t.fanout) + (t.cum[j2] - t.cum[j1]) + t.sumRows(j2*t.fanout, j)
	return a, j1*t.fanout - i + j - j2*t.fanout
}

// at returns leaf[p].
func (t *Tree) at(p int) int64 {
	return t.leaves[p/encode.BlockRows].At(p % encode.BlockRows)
}

// rankBelow returns how many of leaf[from:to] are less than v, block by
// block; a node's window lies in one block wherever β divides BlockRows.
func (t *Tree) rankBelow(from, to int, v int64) int {
	rank := 0
	for from < to {
		leaf, off := t.leaves[from/encode.BlockRows], from%encode.BlockRows
		k := min(to-from, leaf.Len()-off)
		rank += leaf.RankBelow(off, off+k, v)
		from += k
	}
	return rank
}

// sumRows returns the wrapping sum of leaf[from:to].
func (t *Tree) sumRows(from, to int) int64 {
	var sum int64
	for from < to {
		leaf, off := t.leaves[from/encode.BlockRows], from%encode.BlockRows
		k := min(to-from, leaf.Len()-off)
		sum += leaf.SumRows(off, off+k)
		from += k
	}
	return sum
}

// sumOf is the wrapping sum of vals.
func sumOf(vals []int64) int64 {
	var sum int64
	for _, v := range vals {
		sum += v
	}
	return sum
}

// Builder constructs a Tree incrementally, a budgeted number of leaf
// blocks at a time.
type Builder struct {
	fanout int
	// sorted is the array being packed; the finished Tree does not hold it.
	sorted []int64
	keys   [][]int64
	cum    []int64
	// refs[g] is leaf g·GroupRows, the frame of the leaves' group g,
	// written as its block is packed; at β = GroupRows it is keys[0] too.
	refs []int64
	// leaves has the capacity of every block; its length is the blocks
	// packed, and the keys and prefix sums cover exactly their rows.
	leaves []*encode.SortedBlock
}

// NewBuilder prepares an incremental build over sorted. The slice must
// already be fully sorted; nothing here checks it (the progressive
// indexes reach consolidation only after their own refinement has
// finished, which their tests assert).
func NewBuilder(sorted []int64, fanout int) (*Builder, error) {
	if fanout < 2 {
		return nil, fmt.Errorf("btree: fanout must be >= 2, got %d", fanout)
	}
	b := &Builder{fanout: fanout, sorted: sorted, refs: make([]int64, (len(sorted)+encode.GroupRows-1)/encode.GroupRows)}
	b.leaves = make([]*encode.SortedBlock, 0, (len(sorted)+encode.BlockRows-1)/encode.BlockRows)
	// Levels shrink by β until one fits in a node; a single-node tree has
	// none, and its leaf level is everything. At β = GroupRows the first
	// level's key j is group j's reference, which the pack writes: that
	// level is full length from the start, and Step copies no key into it.
	for level := len(sorted) / fanout; level > 0; level /= fanout {
		if len(b.keys) == 0 && fanout == encode.GroupRows {
			b.keys = append(b.keys, b.refs[:level:level])
			continue
		}
		b.keys = append(b.keys, make([]int64, 0, level))
	}
	if len(b.keys) > 0 {
		b.cum = make([]int64, 1, cap(b.keys[0])+1)
	}
	return b, nil
}

// TotalCopies returns how many key copies the whole build makes, the
// paper's N_copy = Σ n/β^i: the slots of every level above the leaves.
func (b *Builder) TotalCopies() int {
	total := 0
	for _, level := range b.keys {
		total += cap(level)
	}
	return total
}

// Blocks returns how many leaf blocks the whole build packs.
func (b *Builder) Blocks() int { return cap(b.leaves) }

// Done reports whether the tree is complete.
func (b *Builder) Done() bool { return len(b.leaves) == cap(b.leaves) }

// Step packs at most blocks more leaf blocks, over pool (nil: the calling
// goroutine), and returns how many rows that was. The
// rows just read also give every parent level its next keys — level k's
// key j is leaf j·β^k — and the prefix sums the nodes they complete, so
// when the last block is packed the build is complete.
func (b *Builder) Step(pool *parallel.Pool, blocks int) int {
	from := len(b.leaves)
	blocks = min(blocks, cap(b.leaves)-from)
	if blocks <= 0 {
		return 0
	}
	row := func(block int) int { return encode.BlockStart(block, len(b.sorted)) }
	start, end := row(from), row(from+blocks)
	b.leaves = append(b.leaves, encode.PackSorted(pool, b.sorted[start:end], b.refs[start/encode.GroupRows:])...)
	stride := 1
	for k, level := range b.keys {
		stride *= b.fanout
		for j := len(level); j < cap(level) && j*stride < end; j++ {
			level = append(level, b.sorted[j*stride])
		}
		b.keys[k] = level
	}
	for j := len(b.cum); j < cap(b.cum) && j*b.fanout <= end; j++ {
		b.cum = append(b.cum, b.cum[j-1]+sumOf(b.sorted[(j-1)*b.fanout:j*b.fanout]))
	}
	return end - start
}

// Tree returns the finished tree, or nil if the build is incomplete.
func (b *Builder) Tree() *Tree {
	if !b.Done() {
		return nil
	}
	return &Tree{fanout: b.fanout, n: len(b.sorted), keys: b.keys, cum: b.cum, leaves: b.leaves}
}
