package queryvis

import (
	"fmt"

	"repro/internal/pipeline"
)

// Limit names, as carried by LimitError.Limit and by the server's error
// bodies. Each names the Limits field it reports on.
const (
	LimitQueryBytes   = "max_query_bytes"
	LimitNestingDepth = "max_nesting_depth"
	LimitPredicates   = "max_predicates"
	LimitDiagramNodes = "max_diagram_nodes"
	LimitDiagramEdges = "max_diagram_edges"
	LimitOutputBytes  = "max_output_bytes"
)

// Limits bounds the resources one query may consume on its way through
// the pipeline. Each field is enforced at the earliest stage boundary
// where its quantity is known: query bytes before parsing, nesting depth
// and predicate count on the parsed AST, node and edge counts on the
// built diagram, and output bytes on the rendered DOT/SVG/text. A zero
// field disables that bound; a nil *Limits disables them all.
//
// Exceeding a bound fails the pipeline with a *LimitError naming the
// limit, which callers (and the HTTP service) can distinguish from parse
// errors, timeouts, and internal faults.
type Limits struct {
	// MaxQueryBytes bounds the SQL text length in bytes.
	MaxQueryBytes int
	// MaxNestingDepth bounds subquery nesting (0 = flat query). The
	// parser additionally enforces its own hard cap
	// (sqlparse.MaxNestingDepth) to keep recursion off the edge of stack
	// exhaustion regardless of configuration.
	MaxNestingDepth int
	// MaxPredicates bounds the total WHERE-clause conjuncts across all
	// query blocks.
	MaxPredicates int
	// MaxDiagramNodes bounds the number of table nodes in the diagram,
	// including the SELECT box.
	MaxDiagramNodes int
	// MaxDiagramEdges bounds the number of diagram edges.
	MaxDiagramEdges int
	// MaxOutputBytes bounds the rendered DOT/SVG/text size.
	MaxOutputBytes int
}

// DefaultLimits returns the bounds the hardened service ships with:
// roomy enough for every query in the paper (the deepest, Fig. 1, nests
// 3 levels with 7 diagram nodes) with two orders of magnitude of
// headroom, small enough that adversarial input cannot hold a worker for
// long.
func DefaultLimits() Limits {
	return Limits{
		MaxQueryBytes:   64 << 10, // 64 KiB of SQL
		MaxNestingDepth: 24,
		MaxPredicates:   512,
		MaxDiagramNodes: 128,
		MaxDiagramEdges: 1024,
		MaxOutputBytes:  4 << 20, // 4 MiB of DOT/SVG
	}
}

// checkStage enforces the limits that stage's artifact in a makes
// checkable: nesting depth and predicate count on the parsed query,
// node and edge counts on the built diagram. A nil receiver checks
// nothing.
func (l *Limits) checkStage(stage string, a *pipeline.Artifacts) (err error) {
	switch {
	case l == nil:
	case stage == StageParse:
		if err = check(LimitNestingDepth, a.Query.NestingDepth(), l.MaxNestingDepth); err == nil {
			err = check(LimitPredicates, a.Query.PredicateCount(), l.MaxPredicates)
		}
	case stage == StageBuild:
		if err = check(LimitDiagramNodes, len(a.Diagram.Tables), l.MaxDiagramNodes); err == nil {
			err = check(LimitDiagramEdges, len(a.Diagram.Edges), l.MaxDiagramEdges)
		}
	}
	return err
}

// check returns a *LimitError when actual exceeds the bound named by
// limit; max <= 0 disables the bound.
func check(limit string, actual, max int) error {
	if max > 0 && actual > max {
		return &LimitError{Limit: limit, Actual: actual, Max: max}
	}
	return nil
}

// LimitError reports which resource limit a query exceeded.
type LimitError struct {
	Limit  string // one of the Limit* constants
	Actual int
	Max    int
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("limit %s exceeded: %d > %d", e.Limit, e.Actual, e.Max)
}
