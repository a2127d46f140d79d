// Package btree implements the bulk-loaded B+-tree that every
// progressive index converges to (consolidation phase, Section 3) and
// that the Full Index baseline builds on its first query.
//
// The tree is static: it is built over an already fully sorted array by
// copying every β-th key to a parent level, repeatedly, until a level
// fits in one node — exactly the construction the paper describes
// ("we copy every β element of our sorted array to a parent level").
// The sorted array itself is the leaf level, so the tree needs only
// N_copy = Σ n/β^i extra key slots.
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
// Builder exposes that construction incrementally: Step(k) performs at
// most k element copies, which is how the consolidation phase spreads
// the build over many queries under a per-query budget. A copy into the
// first parent level also adds up the node it heads, so the prefix sums
// cost one sequential read of the leaves spread over those same steps.
package btree

import (
	"fmt"

	"repro/internal/column"
)

// Tree is an immutable bulk-loaded B+-tree over a sorted array.
type Tree struct {
	fanout int
	// levels[0] is the sorted leaf array (not owned; shared with the
	// index that built it). levels[i+1][j] == levels[i][j*fanout].
	levels [][]int64
	// cum[j] is the wrapping sum of leaf[0 : j*fanout], for every j up to
	// and including len(levels[1]); nil for a single-node tree.
	cum []int64
}

// Len returns the number of keys at the leaf level.
func (t *Tree) Len() int { return len(t.levels[0]) }

// Height returns the number of levels including the leaf array.
func (t *Tree) Height() int { return len(t.levels) }

// Build constructs the tree in one shot (Full Index baseline).
func Build(sorted []int64, fanout int) (*Tree, error) {
	b, err := NewBuilder(sorted, fanout)
	if err != nil {
		return nil, err
	}
	for !b.Done() {
		b.Step(1 << 20)
	}
	return b.Tree(), nil
}

// LowerBound returns the first leaf position p with leaf[p] >= v,
// descending from the top level so that each binary search touches only
// one node worth of keys.
//
// Invariant while descending with position pos at level lvl+1:
// keys[pos-1] < v (if pos > 0) and keys[pos] >= v (if pos < len). Since
// level lvl+1 key j equals level lvl position j*fanout, the answer at
// level lvl lies in ((pos-1)*fanout, pos*fanout], a window of at most
// fanout positions.
func (t *Tree) LowerBound(v int64) int {
	top := len(t.levels) - 1
	pos := column.LowerBound(t.levels[top], v)
	for lvl := top - 1; lvl >= 0; lvl-- {
		below := t.levels[lvl]
		left := 0
		if pos > 0 {
			left = (pos-1)*t.fanout + 1
		}
		right := len(below)
		if pos < len(t.levels[lvl+1]) {
			if r := pos * t.fanout; r < right {
				right = r // below[right] == keys[pos] >= v, so answer <= right
			}
		}
		pos = left + column.LowerBound(below[left:right], v)
	}
	return pos
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
// descents finds the matching run, which gives COUNT, MIN and MAX
// outright; a SUM (or AVG) takes the whole nodes inside the run from the
// prefix sums and adds only the leaves outside them, fewer than 2β, or
// the run itself when it is shorter than a node.
func (t *Tree) AggRange(lo, hi int64, aggs column.Aggregates) (a column.Agg, read int) {
	a = column.NewAgg()
	i := t.LowerBound(lo)
	j := t.UpperBound(hi)
	if i >= j { // nothing matches; inverted bounds end here too
		return a, 0
	}
	leaf := t.levels[0]
	a.Count = int64(j - i)
	a.Min = leaf[i]
	a.Max = leaf[j-1]
	if !aggs.NeedsSum() {
		return a, 0
	}
	if j-i < t.fanout {
		a.Sum = sumOf(leaf[i:j])
		return a, j - i
	}
	// j-i >= fanout puts at least one node boundary in [i, j], so j1 <= j2.
	j1 := (i + t.fanout - 1) / t.fanout
	j2 := j / t.fanout
	head, tail := leaf[i:j1*t.fanout], leaf[j2*t.fanout:j]
	a.Sum = sumOf(head) + (t.cum[j2] - t.cum[j1]) + sumOf(tail)
	return a, len(head) + len(tail)
}

// sumOf is the wrapping sum of vals.
func sumOf(vals []int64) int64 {
	var sum int64
	for _, v := range vals {
		sum += v
	}
	return sum
}

// Builder constructs a Tree incrementally under a copy budget.
type Builder struct {
	fanout int
	levels [][]int64
	cum    []int64
	// cur is the level currently being filled; its source is cur-1.
	cur  int
	done bool
}

// NewBuilder prepares an incremental build over sorted. The slice must
// already be fully sorted; nothing here checks it (the progressive
// indexes reach consolidation only after their own refinement has
// finished, which their tests assert).
func NewBuilder(sorted []int64, fanout int) (*Builder, error) {
	if fanout < 2 {
		return nil, fmt.Errorf("btree: fanout must be >= 2, got %d", fanout)
	}
	b := &Builder{fanout: fanout, levels: [][]int64{sorted}, cur: 1}
	nodes := len(sorted) / fanout
	if nodes == 0 {
		b.done = true // single-node tree: the leaf level is everything
		return b, nil
	}
	b.levels = append(b.levels, make([]int64, 0, nodes))
	b.cum = make([]int64, 1, nodes+1)
	return b, nil
}

// TotalCopies returns how many element copies the whole build needs.
func (b *Builder) TotalCopies() int {
	return ConsolidateCopies(len(b.levels[0]), b.fanout)
}

// ConsolidateCopies is the paper's N_copy = Σ n/β^i: the key slots of
// every level above the leaves.
func ConsolidateCopies(n, fanout int) int {
	total := 0
	for level := n / fanout; level > 0; level /= fanout {
		total += level
	}
	return total
}

// Done reports whether the tree is complete.
func (b *Builder) Done() bool { return b.done }

// Step performs at most budget element copies and returns how many it
// actually performed; a copy into the first parent level also extends
// the prefix sums by the node it heads. When the top level shrinks to at
// most fanout keys, the build is complete.
func (b *Builder) Step(budget int) int {
	if b.done || budget <= 0 {
		return 0
	}
	copies := 0
	for copies < budget {
		src := b.levels[b.cur-1]
		dst := b.levels[b.cur]
		want := len(src) / b.fanout
		for len(dst) < want && copies < budget {
			at := len(dst) * b.fanout
			dst = append(dst, src[at])
			if b.cur == 1 {
				b.cum = append(b.cum, b.cum[len(b.cum)-1]+sumOf(src[at:at+b.fanout]))
			}
			copies++
		}
		b.levels[b.cur] = dst
		if len(dst) < want {
			return copies // budget exhausted mid-level
		}
		// Level complete: either finish or open the next level.
		if want/b.fanout == 0 {
			b.done = true
			return copies
		}
		b.levels = append(b.levels, make([]int64, 0, want/b.fanout))
		b.cur++
	}
	return copies
}

// Tree returns the finished tree, or nil if the build is incomplete.
func (b *Builder) Tree() *Tree {
	if !b.done {
		return nil
	}
	return &Tree{fanout: b.fanout, levels: b.levels, cum: b.cum}
}
