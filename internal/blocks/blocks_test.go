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

func TestCursorFIFO(t *testing.T) {
	l := NewList(3)
	for i := int64(0); i < 8; i++ {
		l.Append(i * 10)
	}
	var c Cursor
	for i := int64(0); i < 8; i++ {
		v, ok := c.Next(l)
		if !ok || v != i*10 {
			t.Fatalf("Next #%d = (%d,%v), want (%d,true)", i, v, ok, i*10)
		}
	}
	if _, ok := c.Next(l); ok {
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
		c.Next(l)
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
	c.Next(l) // consume 4
	c.Next(l) // consume 8
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
	c.Next(l)
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
		} else if v, ok := c.Next(l); ok {
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
