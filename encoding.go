package progidx

import "repro/internal/encode"

// Encoding selects the table's storage mode (DESIGN.md section 12).
// Compressed tables store their rows as 4096-row blocks (encode.Blocks) —
// frame-of-reference bit-packed, dictionary-coded, or raw, selected per
// block — and answer range aggregates by scanning the packed words directly;
// the rows are decompressed only when a progressive index build claims
// them. The zero value is EncodingRaw: compression is opt-in per table
// and the default behavior is byte-identical to previous releases.
type Encoding = encode.Mode

// Storage modes. EncodingAuto picks raw, FOR-BP or dictionary per
// block from the block's own statistics; the explicit modes force
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
