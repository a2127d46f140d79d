package blocks

import (
	"math/rand"
	"testing"

	"repro/internal/column"
)

func TestAppendAndCount(t *testing.T) {
	l := NewList(4)
	for i := 0; i < 10; i++ {
		l.Append(int64(i))
	}
	if l.Count() != 10 {
		t.Fatalf("Count = %d, want 10", l.Count())
	}
	if got := len(l.Blocks()); got != 3 { // 4+4+2
		t.Fatalf("blocks = %d, want 3", got)
	}
	if l.Allocations() != 3 {
		t.Fatalf("Allocations = %d, want 3", l.Allocations())
	}
}

func TestAppendReportsAllocations(t *testing.T) {
	l := NewList(3)
	allocs := 0
	for i := 0; i < 7; i++ {
		if l.Append(int64(i)) {
			allocs++
		}
	}
	if allocs != 3 { // blocks of 3,3,1
		t.Fatalf("reported %d allocations, want 3", allocs)
	}
}

func TestZeroBlockSizeDefaults(t *testing.T) {
	l := NewList(0)
	if l.BlockSize() != DefaultBlockSize {
		t.Fatalf("BlockSize = %d, want default %d", l.BlockSize(), DefaultBlockSize)
	}
}

func TestSumRange(t *testing.T) {
	l := NewList(4)
	var want column.Result
	vals := []int64{5, 1, 9, 3, 7, 2, 8, 6, 4}
	for _, v := range vals {
		l.Append(v)
	}
	want = column.SumRange(vals, 3, 7)
	if got := l.AggRange(3, 7, column.AggSum|column.AggCount).Result(); got != want {
		t.Fatalf("AggRange = %+v, want %+v", got, want)
	}
}

func TestAppendTo(t *testing.T) {
	l := NewList(2)
	for i := int64(0); i < 5; i++ {
		l.Append(i)
	}
	out := l.AppendTo([]int64{99})
	if len(out) != 6 || out[0] != 99 {
		t.Fatalf("AppendTo = %v", out)
	}
	for i := int64(0); i < 5; i++ {
		if out[i+1] != i {
			t.Fatalf("AppendTo order broken: %v", out)
		}
	}
}

// next is the element-at-a-time cursor the tests below were written
// against: a run of at most one.
func next(c *Cursor, l *List) (int64, bool) {
	run := c.NextRun(l, 1)
	if run == nil {
		return 0, false
	}
	return run[0], true
}

// refNext is the reference NextRun is held to: the one-element cursor
// as it stood before runs, kept here and nowhere else.
func refNext(c *Cursor, l *List) (int64, bool) {
	for c.block < len(l.blocks) {
		b := l.blocks[c.block]
		if c.off < len(b) {
			c.off++
			return b[c.off-1], true
		}
		if len(b) < l.blockSize {
			return 0, false // tail block may still grow
		}
		c.block++
		c.off = 0
	}
	return 0, false
}

// Runs concatenated are the one-element sequence, whatever the maxima
// and however appends to a partial tail block fall between them; a run
// is never longer than max and never reaches past what was appended.
func TestNextRunMatchesNext(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, bs := range []int{1, 3, 8, 64} {
		l := NewList(bs)
		var c, ref Cursor
		appended, read := 0, 0
		for step := 0; step < 4000; step++ {
			if rng.Intn(3) > 0 {
				for k := rng.Intn(bs + 2); k > 0; k-- {
					l.Append(int64(appended))
					appended++
				}
				continue
			}
			max := rng.Intn(2*bs+2) - 1 // -1 and 0: nothing may be read
			run := c.NextRun(l, max)
			if len(run) > max && max >= 0 || max <= 0 && run != nil {
				t.Fatalf("bs %d: NextRun(max %d) returned %d elements", bs, max, len(run))
			}
			if max > 0 && run == nil && read != appended {
				t.Fatalf("bs %d: NextRun(max %d) = nil with %d unread", bs, max, appended-read)
			}
			for _, got := range run {
				want, ok := refNext(&ref, l)
				if !ok || got != want || got != int64(read) {
					t.Fatalf("bs %d: element %d of the runs = %d, one-element cursor (%d, %v)", bs, read, got, want, ok)
				}
				read++
			}
			if got, want := c.Remaining(l), appended-read; got != want {
				t.Fatalf("bs %d: Remaining = %d, want %d", bs, got, want)
			}
		}
	}
}

func TestCursorFIFO(t *testing.T) {
	l := NewList(3)
	for i := int64(0); i < 8; i++ {
		l.Append(i * 10)
	}
	var c Cursor
	for i := int64(0); i < 8; i++ {
		v, ok := next(&c, l)
		if !ok || v != i*10 {
			t.Fatalf("Next #%d = (%d,%v), want (%d,true)", i, v, ok, i*10)
		}
	}
	if _, ok := next(&c, l); ok {
		t.Fatal("cursor must be exhausted")
	}
}

func TestCursorRemaining(t *testing.T) {
	l := NewList(4)
	for i := int64(0); i < 10; i++ {
		l.Append(i)
	}
	var c Cursor
	if c.Remaining(l) != 10 {
		t.Fatalf("Remaining = %d, want 10", c.Remaining(l))
	}
	for i := 0; i < 6; i++ {
		next(&c, l)
	}
	if c.Remaining(l) != 4 {
		t.Fatalf("Remaining after 6 = %d, want 4", c.Remaining(l))
	}
}

func TestCursorSumRangeRemaining(t *testing.T) {
	l := NewList(3)
	vals := []int64{4, 8, 1, 7, 2, 9, 5}
	for _, v := range vals {
		l.Append(v)
	}
	var c Cursor
	next(&c, l) // consume 4
	next(&c, l) // consume 8
	got := c.AggRemaining(l, 2, 7, column.AggSum|column.AggCount).Result()
	want := column.SumRange(vals[2:], 2, 7)
	if got != want {
		t.Fatalf("AggRemaining = %+v, want %+v", got, want)
	}
}

func TestCursorSumRangeRemainingExhausted(t *testing.T) {
	l := NewList(2)
	l.Append(1)
	var c Cursor
	next(&c, l)
	got := c.AggRemaining(l, 0, 10, column.AggSum|column.AggCount)
	if got.Count != 0 {
		t.Fatalf("exhausted cursor scanned something: %+v", got)
	}
}

func TestSetBasics(t *testing.T) {
	s := NewSet(4, 8)
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	s.Bucket(0).Append(1)
	s.Bucket(3).Append(2)
	s.Bucket(3).Append(3)
	if s.Count() != 3 {
		t.Fatalf("Count = %d, want 3", s.Count())
	}
	if s.Allocations() != 2 {
		t.Fatalf("Allocations = %d, want 2", s.Allocations())
	}
}

func TestReset(t *testing.T) {
	l := NewList(2)
	for i := int64(0); i < 5; i++ {
		l.Append(i)
	}
	l.Reset()
	if l.Count() != 0 || len(l.Blocks()) != 0 {
		t.Fatal("Reset did not empty the list")
	}
	l.Append(42)
	if l.Count() != 1 {
		t.Fatal("Append after Reset failed")
	}
}

// Property-ish: random interleaving of appends and cursor reads keeps
// FIFO order and Remaining consistent.
func TestCursorRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewList(5)
	var c Cursor
	var written, read []int64
	for step := 0; step < 2000; step++ {
		if rng.Intn(2) == 0 {
			v := int64(rng.Intn(1000))
			l.Append(v)
			written = append(written, v)
		} else if v, ok := next(&c, l); ok {
			read = append(read, v)
		}
		if got := c.Remaining(l); got != len(written)-len(read) {
			t.Fatalf("step %d: Remaining = %d, want %d", step, got, len(written)-len(read))
		}
	}
	for i, v := range read {
		if written[i] != v {
			t.Fatalf("FIFO violated at %d: read %d, wrote %d", i, v, written[i])
		}
	}
}
