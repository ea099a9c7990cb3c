// Package core implements the QueryVis diagram — the paper's primary
// contribution. A diagram is built from a logic tree (Appendix A) and
// consists of:
//
//   - a SELECT box listing the query outputs;
//   - one table node per tuple variable, whose rows are the relevant
//     attributes, in-place selection predicates ("color = 'red'"), and
//     GROUP BY attributes;
//   - bounding boxes grouping the tables of one query block, drawn dashed
//     for ∄ and double-lined for ∀ (∃ blocks and the root get no box);
//   - lines between attribute rows for join predicates, directed and
//     labeled according to the arrow rules of Sections 4.5-4.7.
//
// The arrow rules are the subtle heart of the design: edges within one
// query block are undirected (an arrowhead is added only to fix operand
// order for <, <=, >=, >); an edge between blocks one nesting level apart
// points from the shallower to the deeper block; an edge spanning more
// than one level points from the deeper to the shallower block. Section 5
// proves these rules make the diagram invertible, which package inverse
// implements.
package core

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sqlparse"
	"repro/internal/trc"
)

// RowKind classifies a table row.
type RowKind int

const (
	// RowAttr is a plain relevant-attribute row.
	RowAttr RowKind = iota
	// RowSelection is an in-place selection predicate row, rendered with a
	// yellow background in the paper ("Name = 'Rock'").
	RowSelection
	// RowGroupBy is a GROUP BY attribute row, rendered with a gray
	// background in the study's extension.
	RowGroupBy
)

// Row is one row of a table node or of the SELECT box.
type Row struct {
	Kind   RowKind
	Agg    sqlparse.Agg // aggregate wrapper, AggNone for plain attributes
	Star   bool         // COUNT(*)
	Attr   string       // attribute name ("" for COUNT(*))
	Op     sqlparse.Op  // selection operator (RowSelection only)
	Value  string       // rendered constant (RowSelection only)
	Offset float64      // arithmetic shift on the attribute (RowSelection only)
}

// Label renders the row text as it appears in the diagram.
func (r Row) Label() string {
	if r.Kind != RowSelection {
		return r.expr()
	}
	var buf [64]byte
	b := append(buf[:0], r.expr()...)
	switch {
	case r.Offset > 0:
		b = strconv.AppendFloat(append(b, " + "...), r.Offset, 'g', -1, 64)
	case r.Offset < 0:
		b = strconv.AppendFloat(append(b, " - "...), -r.Offset, 'g', -1, 64)
	}
	b = append(b, ' ')
	b = append(b, r.Op.String()...)
	b = append(b, ' ')
	b = append(b, r.Value...)
	return string(b)
}

// expr renders the row's attribute, wrapped in its aggregate if any.
func (r Row) expr() string {
	if r.Agg == sqlparse.AggNone {
		return r.Attr
	}
	if r.Star {
		return r.Agg.String() + "(*)"
	}
	return r.Agg.String() + "(" + r.Attr + ")"
}

// SelectBoxID is the table-node ID reserved for the SELECT box.
const SelectBoxID = 0

// TableNode is one table instance in the diagram (or the SELECT box, at
// ID 0). Var records the tuple variable the node was created from; the
// paper shows these only as red annotations (Fig. 1b), and they are not
// part of the rendered diagram.
type TableNode struct {
	ID   int
	Var  string
	Name string // relation name, or "SELECT" for the SELECT box
	Rows []Row
}

// IsSelect reports whether the node is the SELECT box.
func (t *TableNode) IsSelect() bool { return t.ID == SelectBoxID }

// RowIndex returns the index of the first row whose label matches, or -1.
func (t *TableNode) RowIndex(label string) int {
	for i, r := range t.Rows {
		if r.Label() == label {
			return i
		}
	}
	return -1
}

// Box is a quantifier bounding box over the tables of one query block:
// dashed for ∄, double-lined for ∀.
type Box struct {
	Quant  trc.Quant // NotExists or ForAll
	Tables []int     // table-node IDs enclosed by the box
}

// EdgeEnd identifies one endpoint of an edge: a row of a table node.
type EdgeEnd struct {
	Table int
	Row   int
}

// EdgeKind classifies why an edge is directed.
type EdgeKind int

const (
	// EdgeJoin is a join-predicate edge between two table nodes. Its
	// direction (when directed) is dictated by the arrow rules and encodes
	// the nesting order.
	EdgeJoin EdgeKind = iota
	// EdgeOrder is a same-block inequality edge whose arrowhead only fixes
	// operand order (Section 4.3.1); it carries no nesting information.
	EdgeOrder
	// EdgeSelect connects a SELECT-box row to the attribute it outputs;
	// always undirected.
	EdgeSelect
)

// Edge is a line mark between two rows. Unlabeled edges (Op == OpEq)
// denote equijoins; other operators are written on the line. From→To is
// the arrow direction when Directed. Offset supports the arithmetic
// extension: the edge reads "From.attr op To.attr + Offset", so a join
// "T.a + 5 < S.b" becomes an edge labeled "< -5" toward S (the offset is
// normalized onto the To side).
type Edge struct {
	Kind     EdgeKind
	From, To EdgeEnd
	Op       sqlparse.Op
	Directed bool
	Offset   float64
}

// Label returns the operator label drawn on the edge ("" for plain
// equijoins; arithmetic edges always carry a label).
func (e Edge) Label() string {
	if e.Op == sqlparse.OpEq && e.Offset == 0 {
		return ""
	}
	if e.Offset != 0 {
		return fmt.Sprintf("%s %+g", e.Op, e.Offset)
	}
	return e.Op.String()
}

// Diagram is a complete QueryVis diagram.
type Diagram struct {
	Tables []*TableNode // Tables[0] is the SELECT box; IDs equal indices
	Boxes  []Box
	Edges  []Edge

	// depth records the nesting depth each table node came from. It is
	// the "hidden label" of Appendix B: tests and the inverse-mapping
	// verifier may consult it as ground truth, but nothing rendered shows
	// it and package inverse must recover it from the arrows alone.
	depth []int
	// groupID maps table ID → build-time block identifier, recording
	// block membership for tables that have no bounding box.
	groupID []int
}

// Table returns the node with the given ID.
func (d *Diagram) Table(id int) *TableNode { return d.Tables[id] }

// TrueDepth exposes the hidden ground-truth nesting depth of a table node
// (-1 for the SELECT box). See the depth field comment.
func (d *Diagram) TrueDepth(id int) int {
	if id == SelectBoxID {
		return -1
	}
	return d.depth[id]
}

// BoxOf returns the quantifier box containing the table, or nil when the
// table is unboxed (root block or ∃ block).
func (d *Diagram) BoxOf(id int) *Box {
	for i := range d.Boxes {
		for _, t := range d.Boxes[i].Tables {
			if t == id {
				return &d.Boxes[i]
			}
		}
	}
	return nil
}

// Groups partitions the non-SELECT tables into table groups — the
// diagram-level image of LT nodes. Tables sharing a bounding box form one
// group; unboxed tables are grouped by the block recorded at build time.
func (d *Diagram) Groups() [][]int {
	seen := map[int]bool{}
	var groups [][]int
	for _, b := range d.Boxes {
		groups = append(groups, append([]int(nil), b.Tables...))
		for _, t := range b.Tables {
			seen[t] = true
		}
	}
	rest := map[int][]int{}
	var order []int
	for _, t := range d.Tables[1:] {
		if seen[t.ID] {
			continue
		}
		g := d.groupID[t.ID]
		if _, ok := rest[g]; !ok {
			order = append(order, g)
		}
		rest[g] = append(rest[g], t.ID)
	}
	for _, g := range order {
		groups = append(groups, rest[g])
	}
	return groups
}

// MarkCount counts the diagram's visual elements for the Section 4.8
// data-to-ink analysis: one mark per table node, per row, per line, per
// operator label, and per bounding box. An arrowhead is a channel of its
// line mark (Munzner's marks-vs-channels distinction, Section 4.1), not a
// separate element — counted this way, the Fig. 2b diagram has exactly
// 13% more elements than Fig. 2a and the ∀ form 7% more, matching the
// paper's reported numbers.
func (d *Diagram) MarkCount() int {
	n := 0
	for _, t := range d.Tables {
		n++ // the table composite mark (header)
		n += len(t.Rows)
	}
	for _, e := range d.Edges {
		n++ // the line (its arrowhead is a channel, not a mark)
		if e.Label() != "" {
			n++ // the operator label
		}
	}
	n += len(d.Boxes)
	return n
}

// String renders a compact structural summary, useful in tests and error
// messages.
func (d *Diagram) String() string {
	var b strings.Builder
	for _, t := range d.Tables {
		labels := make([]string, 0, len(t.Rows))
		for _, r := range t.Rows {
			labels = append(labels, r.Label())
		}
		fmt.Fprintf(&b, "[%d] %s (%s)\n", t.ID, t.Name, strings.Join(labels, " | "))
	}
	for _, bx := range d.Boxes {
		fmt.Fprintf(&b, "box %s %v\n", bx.Quant, bx.Tables)
	}
	for _, e := range d.Edges {
		arrow := "--"
		if e.Directed {
			arrow = "->"
		}
		fmt.Fprintf(&b, "%d.%s %s%s %d.%s\n",
			e.From.Table, d.Tables[e.From.Table].Rows[e.From.Row].Label(),
			e.Label(), arrow,
			e.To.Table, d.Tables[e.To.Table].Rows[e.To.Row].Label())
	}
	return b.String()
}
