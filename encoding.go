package progidx

import (
	"fmt"

	"repro/internal/column"
	"repro/internal/encode"
	"repro/internal/parallel"
	"repro/internal/query"
)

// Encoding selects the table's storage mode (DESIGN.md section 12).
// Compressed tables store their rows as encode.Segments — frame-of-
// reference bit-packed, dictionary-coded, or raw, selected per segment
// — and answer range aggregates by scanning the packed words directly;
// the rows are decompressed only when a progressive index build claims
// them. The zero value is EncodingRaw: compression is opt-in per table
// and the default behavior is byte-identical to previous releases.
type Encoding = encode.Mode

// Storage modes. EncodingAuto picks raw, FOR-BP or dictionary per
// segment from the segment's own statistics; the explicit modes force
// one representation (a forced dictionary falls back to FOR-BP when
// the cardinality probe overflows, so it is always safe).
const (
	EncodingRaw   = encode.ModeRaw
	EncodingAuto  = encode.ModeAuto
	EncodingFORBP = encode.ModeFORBP
	EncodingDict  = encode.ModeDict
)

// ParseEncoding resolves an encoding from its wire spelling ("raw",
// "auto", "forbp", "dict"); the empty string is EncodingRaw.
func ParseEncoding(name string) (Encoding, error) {
	return encode.ParseMode(name)
}

// Materializer is implemented by handles that can reproduce the raw
// rows of their logical table in row order. Shard-layer tables keep no
// base column — the shards' segments or row slices are the data — so
// snapshot capture and oracle checks extract rows through this instead
// of a column reference. The copy is fresh on every call; callers own
// it.
type Materializer interface {
	MaterializeRows() []int64
}

// encodedIndex is the unsharded compressed index: one immutable
// segment over the whole column, scanned in place by every query. It
// is converged from birth — there is no progressive build to run and
// no per-query budget to spend — which makes it the compressed
// analogue of the Full Scan reference point, at a fraction of the
// resident bytes. Claim-on-heat decompression is a shard-layer
// behavior; an unsharded encoded table stays compressed for life (use
// Options.Shards to get claiming).
type encodedIndex struct {
	seg  *encode.Segment
	pool *parallel.Pool
	name string
}

func newEncodedIndex(col *column.Column, mode Encoding, workers int) (*encodedIndex, error) {
	seg, err := encode.FromColumn(col, mode)
	if err != nil {
		return nil, fmt.Errorf("progidx: encoding column: %w", err)
	}
	return &encodedIndex{
		seg:  seg,
		pool: parallel.New(workers),
		name: "ENC/" + seg.Kind().String(),
	}, nil
}

// Name reports "ENC/" plus the concrete representation the selector
// chose, e.g. "ENC/forbp".
func (e *encodedIndex) Name() string { return e.name }

// Execute answers the request exactly by scanning the packed segment,
// bit-identical to the raw kernels at every worker count.
func (e *encodedIndex) Execute(req Request) (Answer, error) {
	lo, hi, aggs, err := query.Prepare(req, e.seg.Min(), e.seg.Max())
	if err != nil {
		return Answer{}, err
	}
	agg := e.seg.ParAggRange(e.pool, lo, hi, aggs)
	return query.NewAnswer(agg, aggs, query.Stats{
		Workers: e.pool.Workers(),
		Phase:   query.PhaseDone,
	}), nil
}

// Query is the v1 surface over the same scan.
func (e *encodedIndex) Query(lo, hi int64) Result {
	ans, _ := e.Execute(Request{Pred: Range(lo, hi)})
	return Result{Sum: ans.Sum, Count: ans.Count}
}

// Converged is true from birth: cold storage is the terminal state.
func (e *encodedIndex) Converged() bool { return true }

// Progress implements Progressor (always fully converged).
func (e *encodedIndex) Progress() float64 { return 1 }

// Phase implements the lifecycle probe: a cold segment has no build
// left to run.
func (e *encodedIndex) Phase() Phase { return PhaseDone }

// ValueBounds implements ValueBounded with the segment's zone.
func (e *encodedIndex) ValueBounds() (int64, int64) {
	return e.seg.Min(), e.seg.Max()
}

// MaterializeRows implements Materializer by decoding the segment.
func (e *encodedIndex) MaterializeRows() []int64 { return e.seg.Decode() }

var (
	_ Index        = (*encodedIndex)(nil)
	_ ValueBounded = (*encodedIndex)(nil)
	_ Progressor   = (*encodedIndex)(nil)
	_ Materializer = (*encodedIndex)(nil)
	_ Materializer = (*Sharded)(nil)
	_ ValueBounded = (*Sharded)(nil)
)
