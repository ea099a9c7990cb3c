package core

import (
	"context"
	"fmt"

	"repro/internal/logictree"
	"repro/internal/sqlparse"
	"repro/internal/trc"
)

// Build constructs the QueryVis diagram for a logic tree, implementing
// the five construction steps of Appendix A.3:
//
//  1. create one table node per table instance, in breadth-first block
//     order (so depth-0 tables get the lowest IDs);
//  2. create a bounding box per ∄ or ∀ block (root and ∃ blocks: none);
//  3. write selection predicates in place as highlighted rows;
//  4. create edges for join predicates, directed and labeled by the
//     arrow rules;
//  5. create the SELECT box and connect it to the selected attributes.
//
// Build does not require the tree to be non-degenerate — any structurally
// sane tree can be drawn — but only valid trees (lt.Validate() == nil) are
// guaranteed to produce unambiguous diagrams.
func Build(lt *logictree.LT) (*Diagram, error) {
	return BuildContext(context.Background(), lt)
}

// BuildContext is Build with cooperative cancellation: the breadth-first
// block walk and the predicate pass check ctx periodically, so diagram
// construction for enormous trees stops promptly once ctx is done.
func BuildContext(ctx context.Context, lt *logictree.LT) (*Diagram, error) {
	if lt == nil || lt.Root == nil {
		return nil, fmt.Errorf("cannot build a diagram from an empty logic tree")
	}
	// One breadth-first pass over the blocks sizes everything below: the
	// table count sizes the node arena, the variable index and the
	// per-block ID slices.
	blocks := append(make([]block, 0, 8), block{n: lt.Root, parent: -1})
	nTables, nBoxes := 0, 0
	for i := 0; i < len(blocks); i++ {
		if (i+1)&255 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		n := blocks[i].n
		nTables += len(n.Tables)
		if n.Quant == trc.NotExists || n.Quant == trc.ForAll {
			nBoxes++
		}
		for _, c := range n.Children {
			blocks = append(blocks, block{n: c, depth: blocks[i].depth + 1, parent: i})
		}
	}
	b := &builder{
		ctx: ctx,
		lt:  lt,
		d: &Diagram{
			Tables:  make([]*TableNode, 1, nTables+1),
			depth:   make([]int, nTables+1),
			groupID: make([]int, nTables+1),
		},
		vars:   make(map[string]varInfo, nTables),
		blocks: blocks,
	}
	if nBoxes > 0 {
		b.d.Boxes = make([]Box, 0, nBoxes)
	}
	nodes := make([]TableNode, nTables+1)
	ids := make([]int, nTables+1)
	nodes[0] = TableNode{ID: SelectBoxID, Name: "SELECT"}
	b.d.Tables[0] = &nodes[0]

	// Steps 1+2: tables in breadth-first block order, one box per ∄ or
	// ∀ block.
	for i, bl := range blocks {
		first := len(b.d.Tables)
		for _, t := range bl.n.Tables {
			if _, dup := b.vars[t.Var]; dup {
				return nil, fmt.Errorf("duplicate tuple variable %q", t.Var)
			}
			id := len(b.d.Tables)
			nodes[id] = TableNode{ID: id, Var: t.Var, Name: t.Relation}
			b.d.Tables = append(b.d.Tables, &nodes[id])
			b.vars[t.Var] = varInfo{id: id, depth: bl.depth, block: i}
			b.d.depth[id] = bl.depth
			b.d.groupID[id] = i + 1
			ids[id] = id
		}
		if bl.n.Quant == trc.NotExists || bl.n.Quant == trc.ForAll {
			var tables []int
			if last := len(b.d.Tables); last > first {
				tables = ids[first:last:last]
			}
			b.d.Boxes = append(b.d.Boxes, Box{Quant: bl.n.Quant, Tables: tables})
		}
	}

	// Step 5 first half: SELECT-box rows exist before predicate rows so
	// that selected attributes appear at the top of their tables, as in
	// the paper's figures.
	if err := b.addSelect(); err != nil {
		return nil, err
	}
	for _, g := range lt.GroupBy {
		v, ok := b.vars[g.Var]
		if !ok {
			return nil, fmt.Errorf("GROUP BY references unknown variable %q", g.Var)
		}
		row := b.ensureAttrRow(v.id, g.Column)
		b.d.Tables[v.id].Rows[row].Kind = RowGroupBy
	}

	// Steps 3+4: predicates, in breadth-first block order.
	if err := b.addPredicates(); err != nil {
		return nil, err
	}
	return b.d, nil
}

// MustBuild is Build but panics on error; for static corpora and tests.
func MustBuild(lt *logictree.LT) *Diagram {
	d, err := Build(lt)
	if err != nil {
		panic("core.MustBuild: " + err.Error())
	}
	return d
}

type builder struct {
	ctx    context.Context
	lt     *logictree.LT
	d      *Diagram
	vars   map[string]varInfo // tuple variable -> its table node
	blocks []block            // the tree's blocks in breadth-first order
}

// block is one logic-tree node with its depth and the breadth-first
// index of its parent block (-1 for the root).
type block struct {
	n             *logictree.Node
	depth, parent int
}

// varInfo is where a tuple variable's table node sits: its ID, and the
// depth and breadth-first index of the block that declares it.
type varInfo struct {
	id, depth, block int
}

// ensureAttrRow returns the index of the plain attribute row for attr in
// the table, adding one if needed. Selection rows never match: a join and
// a selection on the same attribute produce distinct rows.
func (b *builder) ensureAttrRow(table int, attr string) int {
	t := b.d.Tables[table]
	for i, r := range t.Rows {
		if r.Kind != RowSelection && r.Agg == sqlparse.AggNone && r.Attr == attr {
			return i
		}
	}
	t.Rows = append(t.Rows, Row{Kind: RowAttr, Attr: attr})
	return len(t.Rows) - 1
}

// ensureAggRow returns the index of the aggregate row (e.g. SUM(Quantity))
// in the table, adding one if needed.
func (b *builder) ensureAggRow(table int, agg sqlparse.Agg, attr string) int {
	t := b.d.Tables[table]
	for i, r := range t.Rows {
		if r.Agg == agg && r.Attr == attr && !r.Star {
			return i
		}
	}
	t.Rows = append(t.Rows, Row{Kind: RowAttr, Agg: agg, Attr: attr})
	return len(t.Rows) - 1
}

func (b *builder) addSelect() error {
	sel := b.d.Tables[SelectBoxID]
	for _, item := range b.lt.Select {
		selRow := len(sel.Rows)
		if item.Star {
			sel.Rows = append(sel.Rows, Row{Kind: RowAttr, Agg: item.Agg, Star: true})
			continue // COUNT(*) has no attribute to anchor an edge to
		}
		sel.Rows = append(sel.Rows, Row{Kind: RowAttr, Agg: item.Agg, Attr: item.Attr.Column})
		v, ok := b.vars[item.Attr.Var]
		if !ok {
			return fmt.Errorf("select list references unknown variable %q", item.Attr.Var)
		}
		id := v.id
		var target int
		if item.Agg == sqlparse.AggNone {
			target = b.ensureAttrRow(id, item.Attr.Column)
		} else {
			target = b.ensureAggRow(id, item.Agg, item.Attr.Column)
		}
		b.d.Edges = append(b.d.Edges, Edge{
			Kind: EdgeSelect,
			From: EdgeEnd{Table: SelectBoxID, Row: selRow},
			To:   EdgeEnd{Table: id, Row: target},
			Op:   sqlparse.OpEq,
		})
	}
	return nil
}

func (b *builder) addPredicates() error {
	preds := 0
	for _, bl := range b.blocks {
		for _, p := range bl.n.Preds {
			// isAncestor makes cross-block predicates O(tree), so this loop
			// is the quadratic hot spot for adversarial inputs; check the
			// context often enough that cancellation stays prompt.
			if preds++; preds&63 == 0 {
				if err := b.ctx.Err(); err != nil {
					return err
				}
			}
			if err := b.addPred(p); err != nil {
				return err
			}
		}
	}
	return nil
}

func (b *builder) addPred(p trc.Pred) error {
	// Selection predicate: write it in place (step 3), with the attribute
	// on the left of the operator.
	if p.IsSelection() {
		attr, c, op, off := p.Left.Attr, p.Right.Const, p.Op, p.Left.Offset
		if p.Left.IsConst() {
			attr, c, op, off = p.Right.Attr, p.Left.Const, p.Op.Flip(), p.Right.Offset
		}
		v, ok := b.vars[attr.Var]
		if !ok {
			return fmt.Errorf("predicate %s references unknown variable %q", p, attr.Var)
		}
		t := b.d.Tables[v.id]
		t.Rows = append(t.Rows, Row{
			Kind: RowSelection, Attr: attr.Column, Op: op, Value: c.String(), Offset: off,
		})
		return nil
	}

	// Join predicate (step 4).
	l, r := p.Left.Attr, p.Right.Attr
	lv, lok := b.vars[l.Var]
	rv, rok := b.vars[r.Var]
	if !lok || !rok {
		return fmt.Errorf("predicate %s references an unknown variable", p)
	}
	lt, rt := lv.id, rv.id
	lrow := b.ensureAttrRow(lt, l.Column)
	rrow := b.ensureAttrRow(rt, r.Column)
	ld, rd := lv.depth, rv.depth
	// Normalize arithmetic offsets onto the right-hand side:
	// a+k1 op b+k2  ≡  a op b + (k2-k1).
	netOffset := p.Right.Offset - p.Left.Offset

	if lv.block == rv.block {
		// Same query block: undirected line; an arrowhead is added only to
		// fix operand order for asymmetric operators.
		e := Edge{
			Kind:   EdgeJoin,
			From:   EdgeEnd{Table: lt, Row: lrow},
			To:     EdgeEnd{Table: rt, Row: rrow},
			Op:     p.Op,
			Offset: netOffset,
		}
		if (p.Op != sqlparse.OpEq && p.Op != sqlparse.OpNe) || netOffset != 0 {
			e.Kind = EdgeOrder
			e.Directed = true
		}
		b.d.Edges = append(b.d.Edges, e)
		return nil
	}
	if ld == rd {
		return fmt.Errorf("predicate %s joins two distinct blocks at the same depth %d; only ancestor scopes are referencable", p, ld)
	}
	if !b.isAncestor(lv.block, rv.block) && !b.isAncestor(rv.block, lv.block) {
		return fmt.Errorf("predicate %s joins blocks that are not in an ancestor relationship", p)
	}

	// Arrow rules (Appendix A.3 step 4): depth difference 1 → arrow from
	// the shallower to the deeper table; difference > 1 → arrow from the
	// deeper to the shallower. The operator is re-oriented to read in
	// arrow direction (Section 4.5.1).
	diff := ld - rd
	if diff < 0 {
		diff = -diff
	}
	fromLeft := true
	switch {
	case diff == 1 && ld > rd:
		fromLeft = false
	case diff > 1 && ld < rd:
		fromLeft = false
	}
	e := Edge{Kind: EdgeJoin, Directed: true, Op: p.Op, Offset: netOffset}
	if fromLeft {
		e.From = EdgeEnd{Table: lt, Row: lrow}
		e.To = EdgeEnd{Table: rt, Row: rrow}
	} else {
		e.From = EdgeEnd{Table: rt, Row: rrow}
		e.To = EdgeEnd{Table: lt, Row: lrow}
		e.Op = p.Op.Flip()
		e.Offset = -netOffset
	}
	b.d.Edges = append(b.d.Edges, e)
	return nil
}

// isAncestor reports whether block a is a proper ancestor of block c.
func (b *builder) isAncestor(a, c int) bool {
	for c = b.blocks[c].parent; c >= 0; c = b.blocks[c].parent {
		if c == a {
			return true
		}
	}
	return false
}
