package server

import (
	"math"
	"strconv"
	"sync"

	"repro"
)

// answerPool holds the buffers the query handler encodes answers into.
var answerPool = sync.Pool{New: func() any { return new([]byte) }}

// appendAnswer appends the QueryResponse of ans and info (queryResponse)
// as json.NewEncoder(w).Encode writes it, newline included, when it
// carries no Trace. An answer's floats are finite and its phase names
// plain ASCII.
func appendAnswer(b []byte, ans progidx.Answer, info ExecInfo) []byte {
	b = append(b, '{')
	if ans.Aggs.Has(progidx.Sum) {
		b = append(strconv.AppendInt(append(b, `"sum":`...), ans.Sum, 10), ',')
	}
	b = strconv.AppendInt(append(b, `"count":`...), ans.Count, 10)
	if v, ok := ans.MinOk(); ok {
		b = strconv.AppendInt(append(b, `,"min":`...), v, 10)
	}
	if v, ok := ans.MaxOk(); ok {
		b = strconv.AppendInt(append(b, `,"max":`...), v, 10)
	}
	if v, ok := ans.AvgOk(); ok {
		b = appendFloat(append(b, `,"avg":`...), v)
	}
	st := &ans.Stats
	b = append(append(b, `,"stats":{"phase":"`...), st.Phase.String()...)
	b = appendFloat(append(b, `","delta":`...), st.Delta)
	b = appendFloat(append(b, `,"work_seconds":`...), st.WorkSeconds)
	b = strconv.AppendInt(append(b, `,"workers":`...), int64(st.Workers), 10)
	if st.ShardsScanned != 0 {
		b = strconv.AppendInt(append(b, `,"shards_scanned":`...), int64(st.ShardsScanned), 10)
	}
	if st.ShardsPruned != 0 {
		b = strconv.AppendInt(append(b, `,"shards_pruned":`...), int64(st.ShardsPruned), 10)
	}
	b = strconv.AppendInt(append(b, `},"batch_size":`...), int64(info.Batch), 10)
	b = strconv.AppendInt(append(b, `,"queue_us":`...), info.QueueWait.Microseconds(), 10)
	return append(b, "}\n"...)
}

// appendFloat formats f as encoding/json does: %g with JavaScript's
// exponent cutoffs and no zero padding in the exponent.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 to e-7
		b = b[:n-1]
	}
	return b
}
