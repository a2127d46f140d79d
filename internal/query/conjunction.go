package query

import (
	"fmt"
	"strings"

	"repro/internal/column"
)

// ColPredicate binds a Predicate to a named column of a multi-column
// table. The zero Col refers to the table's first column, keeping the
// single-column vocabulary a strict subset of the composite one.
type ColPredicate struct {
	Col  string
	Pred Predicate
}

// String implements fmt.Stringer.
func (cp ColPredicate) String() string {
	col := cp.Col
	if col == "" {
		col = "<first>"
	}
	return strings.Replace(cp.Pred.String(), "v", col, 1)
}

// Conjunction is one composite query against a multi-column table:
// every predicate must hold on its column (AND semantics), and the
// requested aggregates are computed over the Target column's values of
// the matching rows. An empty Target aggregates the first predicate's
// column (or the table's first column when there are no predicates,
// matching the single-column Request contract). The zero Aggs defaults
// to SUM+COUNT, exactly like Request.
type Conjunction struct {
	Preds  []ColPredicate
	Target string
	Aggs   column.Aggregates
}

// Conj builds a conjunction over preds aggregating target.
func Conj(target string, aggs column.Aggregates, preds ...ColPredicate) Conjunction {
	return Conjunction{Preds: preds, Target: target, Aggs: aggs}
}

// On binds a predicate to a column, for building conjunctions inline.
func On(col string, p Predicate) ColPredicate { return ColPredicate{Col: col, Pred: p} }

// Validate reports a malformed conjunction: an unknown predicate kind,
// invalid aggregate bits, or two predicates naming the same column
// (callers merge bounds before building the conjunction; silently
// intersecting here would hide client bugs).
func (c Conjunction) Validate() error {
	for i, cp := range c.Preds {
		if err := cp.Pred.Validate(); err != nil {
			return err
		}
		for _, prev := range c.Preds[:i] {
			if prev.Col == cp.Col {
				return fmt.Errorf("query: duplicate predicate for column %q", cp.Col)
			}
		}
	}
	if !c.Aggs.Valid() {
		return fmt.Errorf("query: unknown aggregate bits in %s", c.Aggs)
	}
	return nil
}

// TargetCol resolves the aggregate target: Target when set, otherwise
// the first predicate's column, otherwise "" (the table's first
// column).
func (c Conjunction) TargetCol() string {
	if c.Target != "" {
		return c.Target
	}
	if len(c.Preds) > 0 {
		return c.Preds[0].Col
	}
	return ""
}

// String implements fmt.Stringer.
func (c Conjunction) String() string {
	if len(c.Preds) == 0 {
		return fmt.Sprintf("all rows -> %s(%s)", c.Aggs.Normalize(), c.TargetCol())
	}
	parts := make([]string, len(c.Preds))
	for i, cp := range c.Preds {
		parts[i] = cp.String()
	}
	return fmt.Sprintf("%s -> %s(%s)", strings.Join(parts, " AND "), c.Aggs.Normalize(), c.TargetCol())
}
