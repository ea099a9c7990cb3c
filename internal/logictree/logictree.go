// Package logictree implements the Logic Tree (LT) of Section 4.7: a rooted
// tree equivalent to the query's TRC representation in which each node is
// one query block holding its tables (T), conjunction of predicates (P),
// and quantifier (Q). The root additionally carries the select list (and
// the GROUP BY extension used in the study).
//
// The package also implements the paper's logic simplification: a node ∄ψ
// whose only child is ∄ψ′ is rewritten to ∀ψ with child ∃ψ′ by De Morgan's
// law (equations 1-3 in Section 4.7), which is how Fig. 10a becomes
// Fig. 10b.
package logictree

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/sqlparse"
	"repro/internal/trc"
)

// ctxStepper amortizes cancellation checks over tree traversals: one
// ctx.Err() call every few hundred visited nodes. A nil ctx disables
// checking entirely, so the non-context entry points pay only an
// increment per node.
type ctxStepper struct {
	ctx context.Context
	n   uint
}

func (s *ctxStepper) step() error {
	if s.ctx == nil {
		return nil
	}
	if s.n++; s.n&255 != 0 {
		return nil
	}
	return s.ctx.Err()
}

// Table is one table instance in a node: a tuple-variable name bound to a
// relation, e.g. {Var: "L2", Relation: "Likes"}.
type Table struct {
	Var      string
	Relation string
}

// String renders "Relation Var".
func (t Table) String() string { return t.Relation + " " + t.Var }

// Node is one LT node: a query block.
type Node struct {
	Quant    trc.Quant
	Tables   []Table
	Preds    []trc.Pred
	Children []*Node
}

// LT is a complete logic tree. Root always has the ∃ quantifier.
type LT struct {
	Root    *Node
	Select  []trc.SelectItem
	GroupBy []trc.Attr
}

// FromTRC builds a logic tree from a TRC expression. The structures are
// isomorphic (Fig. 8: "TRC = LT"); this is a deep structural copy so that
// later transformations never alias the TRC expression. A nil expression
// or missing root yields an empty tree (which Validate rejects) rather
// than a nil-dereference panic.
func FromTRC(e *trc.Expr) *LT {
	lt, err := FromTRCContext(context.Background(), e)
	if err != nil {
		return &LT{Root: &Node{}}
	}
	return lt
}

// FromTRCContext is FromTRC with cooperative cancellation and an error
// for structurally unusable input (nil expression or root).
func FromTRCContext(ctx context.Context, e *trc.Expr) (*LT, error) {
	if e == nil || e.Root == nil {
		return nil, fmt.Errorf("logictree: TRC expression has no root block")
	}
	st := &ctxStepper{ctx: ctx}
	lt := &LT{
		Select:  append([]trc.SelectItem(nil), e.Select...),
		GroupBy: append([]trc.Attr(nil), e.GroupBy...),
	}
	var conv func(b *trc.Block) (*Node, error)
	conv = func(b *trc.Block) (*Node, error) {
		if err := st.step(); err != nil {
			return nil, err
		}
		n := &Node{Quant: b.Quant}
		for _, v := range b.Vars {
			n.Tables = append(n.Tables, Table{Var: v.Name, Relation: v.Relation})
		}
		n.Preds = append(n.Preds, b.Preds...)
		for _, s := range b.Subs {
			c, err := conv(s)
			if err != nil {
				return nil, err
			}
			n.Children = append(n.Children, c)
		}
		return n, nil
	}
	root, err := conv(e.Root)
	if err != nil {
		return nil, err
	}
	lt.Root = root
	return lt, nil
}

// ToTRC converts the logic tree back to a TRC expression (used to render
// simplified TRC as in Fig. 9b).
func (lt *LT) ToTRC() *trc.Expr {
	e, _ := lt.toTRC(nil) // nil stepper ctx: cannot fail
	return e
}

func (lt *LT) toTRC(ctx context.Context) (*trc.Expr, error) {
	if lt.Root == nil {
		return &trc.Expr{
			Select:  append([]trc.SelectItem(nil), lt.Select...),
			GroupBy: append([]trc.Attr(nil), lt.GroupBy...),
			Root:    &trc.Block{},
		}, nil
	}
	st := &ctxStepper{ctx: ctx}
	var conv func(n *Node) (*trc.Block, error)
	conv = func(n *Node) (*trc.Block, error) {
		if err := st.step(); err != nil {
			return nil, err
		}
		b := &trc.Block{Quant: n.Quant}
		for _, t := range n.Tables {
			b.Vars = append(b.Vars, trc.Var{Name: t.Var, Relation: t.Relation})
		}
		b.Preds = append(b.Preds, n.Preds...)
		for _, c := range n.Children {
			s, err := conv(c)
			if err != nil {
				return nil, err
			}
			b.Subs = append(b.Subs, s)
		}
		return b, nil
	}
	root, err := conv(lt.Root)
	if err != nil {
		return nil, err
	}
	return &trc.Expr{
		Select:  append([]trc.SelectItem(nil), lt.Select...),
		GroupBy: append([]trc.Attr(nil), lt.GroupBy...),
		Root:    root,
	}, nil
}

// Clone returns a deep copy of the tree.
func (lt *LT) Clone() *LT { return FromTRC(lt.ToTRC()) }

// CloneContext is Clone with cooperative cancellation.
func (lt *LT) CloneContext(ctx context.Context) (*LT, error) {
	e, err := lt.toTRC(ctx)
	if err != nil {
		return nil, err
	}
	return FromTRCContext(ctx, e)
}

// Walk visits every node in depth-first pre-order.
func (lt *LT) Walk(fn func(n *Node, depth int)) {
	var rec func(n *Node, d int)
	rec = func(n *Node, d int) {
		fn(n, d)
		for _, c := range n.Children {
			rec(c, d+1)
		}
	}
	rec(lt.Root, 0)
}

// MaxDepth returns the maximum node depth (root = 0).
func (lt *LT) MaxDepth() int {
	max := 0
	lt.Walk(func(_ *Node, d int) {
		if d > max {
			max = d
		}
	})
	return max
}

// NodeCount returns the number of nodes in the tree.
func (lt *LT) NodeCount() int {
	n := 0
	lt.Walk(func(*Node, int) { n++ })
	return n
}

// TableCount returns the number of table instances across all nodes.
func (lt *LT) TableCount() int {
	n := 0
	lt.Walk(func(nd *Node, _ int) { n += len(nd.Tables) })
	return n
}

// NodeOf returns the node defining the given tuple variable, or nil.
func (lt *LT) NodeOf(varName string) *Node {
	var found *Node
	lt.Walk(func(n *Node, _ int) {
		for _, t := range n.Tables {
			if t.Var == varName {
				found = n
			}
		}
	})
	return found
}

// DepthOf returns the depth of the node defining varName, or -1.
func (lt *LT) DepthOf(varName string) int {
	depth := -1
	lt.Walk(func(n *Node, d int) {
		for _, t := range n.Tables {
			if t.Var == varName {
				depth = d
			}
		}
	})
	return depth
}

// Simplify applies the ∄∄ → ∀∃ rewrite everywhere it is admissible and
// returns the receiver. A node qualifies when its quantifier is ∄ and it
// has exactly one child, whose quantifier is also ∄ (Section 4.7). The
// rewrite is applied top-down so that, e.g., the unique-set query's L3/L4
// and L5/L6 pairs both transform while L2 (two children) is left as ∄,
// exactly as in Fig. 10b.
func (lt *LT) Simplify() *LT {
	lt2, _ := lt.SimplifyContext(nil) // nil ctx: cannot fail
	return lt2
}

// SimplifyContext is Simplify with cooperative cancellation.
func (lt *LT) SimplifyContext(ctx context.Context) (*LT, error) {
	if lt.Root == nil {
		return lt, nil
	}
	st := &ctxStepper{ctx: ctx}
	var rec func(n *Node) error
	rec = func(n *Node) error {
		if err := st.step(); err != nil {
			return err
		}
		if n.Quant == trc.NotExists && len(n.Children) == 1 &&
			n.Children[0].Quant == trc.NotExists {
			n.Quant = trc.ForAll
			n.Children[0].Quant = trc.Exists
		}
		for _, c := range n.Children {
			if err := rec(c); err != nil {
				return err
			}
		}
		return nil
	}
	for _, c := range lt.Root.Children {
		if err := rec(c); err != nil {
			return nil, err
		}
	}
	return lt, nil
}

// Simplified returns a simplified deep copy, leaving the receiver intact.
func (lt *LT) Simplified() *LT { return lt.Clone().Simplify() }

// SimplifiedContext is Simplified with cooperative cancellation.
func (lt *LT) SimplifiedContext(ctx context.Context) (*LT, error) {
	c, err := lt.CloneContext(ctx)
	if err != nil {
		return nil, err
	}
	return c.SimplifyContext(ctx)
}

// Flatten merges every ∃ block into its parent block and returns the
// receiver. An EXISTS subquery over a conjunction is logically identical
// to listing its tables in the enclosing FROM clause, and the diagram
// draws no box for ∃ (Section 4.6 treats same-block tables "as if T has
// the ∃ quantifier applied"); flattening makes that equivalence explicit
// so that diagram → LT recovery is exact. The single ∃ child of a ∀ block
// is the implication's consequent and is never merged.
func (lt *LT) Flatten() *LT {
	lt2, _ := lt.FlattenContext(nil) // nil ctx: cannot fail
	return lt2
}

// FlattenContext is Flatten with cooperative cancellation.
func (lt *LT) FlattenContext(ctx context.Context) (*LT, error) {
	if lt.Root == nil {
		return lt, nil
	}
	st := &ctxStepper{ctx: ctx}
	var rec func(n *Node) error
	rec = func(n *Node) error {
		for {
			if err := st.step(); err != nil {
				return err
			}
			merged := false
			var kept []*Node
			for _, c := range n.Children {
				if c.Quant == trc.Exists && n.Quant != trc.ForAll {
					n.Tables = append(n.Tables, c.Tables...)
					n.Preds = append(n.Preds, c.Preds...)
					kept = append(kept, c.Children...)
					merged = true
					continue
				}
				kept = append(kept, c)
			}
			n.Children = kept
			if !merged {
				break
			}
		}
		for _, c := range n.Children {
			if err := rec(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(lt.Root); err != nil {
		return nil, err
	}
	return lt, nil
}

// Flattened returns a flattened deep copy, leaving the receiver intact.
func (lt *LT) Flattened() *LT { return lt.Clone().Flatten() }

// Unsimplify inverts Simplify, rewriting every ∀ block (with its single
// ∃ child) back into the ∄∄ double negation SQL requires, and returns the
// receiver. Simplify(Unsimplify(lt)) == lt for trees produced by Simplify.
func (lt *LT) Unsimplify() *LT {
	lt.Walk(func(n *Node, _ int) {
		if n.Quant == trc.ForAll && len(n.Children) == 1 &&
			n.Children[0].Quant == trc.Exists {
			n.Quant = trc.NotExists
			n.Children[0].Quant = trc.NotExists
		}
	})
	return lt
}

// String renders the tree in the paper's Fig. 5 style: one node per
// indented line with its T, P, and Q fields.
func (lt *LT) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Select: {%s}", joinSelect(lt.Select))
	if len(lt.GroupBy) > 0 {
		b.WriteString(" GroupBy: {")
		for i, g := range lt.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.String())
		}
		b.WriteString("}")
	}
	b.WriteString("\n")
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		pad := strings.Repeat("  ", depth)
		var tbls []string
		for _, t := range n.Tables {
			tbls = append(tbls, t.String())
		}
		var preds []string
		for _, p := range n.Preds {
			preds = append(preds, "("+p.String()+")")
		}
		q := ""
		if depth > 0 {
			q = "  Q: " + n.Quant.String()
		}
		fmt.Fprintf(&b, "%sT: {%s}  P: {%s}%s\n",
			pad, strings.Join(tbls, ", "), strings.Join(preds, ", "), q)
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	// A rootless tree (the degenerate value the nil-TRC guards produce)
	// renders as just its header instead of dereferencing nil.
	if lt.Root != nil {
		rec(lt.Root, 0)
	}
	return strings.TrimRight(b.String(), "\n")
}

func joinSelect(items []trc.SelectItem) string {
	var out []string
	for _, s := range items {
		out = append(out, s.String())
	}
	return strings.Join(out, ", ")
}

// Canonical returns a canonical string for the tree: predicate operand
// order is normalized (flipping the operator as needed), predicates are
// sorted within each node, and sibling subtrees are sorted by their own
// canonical strings. Two trees with the same logical structure — e.g. the
// three Fig. 24 syntactic variants — have equal canonical strings.
//
// The whole string is assembled in one buffer: each node's tables,
// predicates and children are appended after the node's own position,
// sorted as byte spans, and written back in order.
func (lt *LT) Canonical() string {
	b := make([]byte, 0, 256)
	b = append(b, "select{"...)
	for i, s := range lt.Select {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, s.String()...)
	}
	b = append(b, '}')
	if len(lt.GroupBy) > 0 {
		b = append(b, "groupby{"...)
		for i, g := range lt.GroupBy {
			if i > 0 {
				b = append(b, ',')
			}
			b = g.Append(b)
		}
		b = append(b, '}')
	}
	return string(appendCanonicalNode(b, lt.Root))
}

// span is one rendered item, b[start:end], awaiting its sorted position.
type span struct{ start, end int }

// appendCanonicalNode appends n's canonical form to b:
//
//	Quant{T:<sorted tables>,... P:<sorted preds>,... C:<sorted children>}
//
// The items are first rendered past the node's position, then emitted in
// sorted order behind them and moved down over the working area.
func appendCanonicalNode(b []byte, n *Node) []byte {
	base := len(b)
	var store [16]span
	items := store[:0]
	for _, t := range n.Tables {
		s := len(b)
		b = append(b, t.Relation...)
		b = append(b, ' ')
		b = append(b, t.Var...)
		items = append(items, span{s, len(b)})
	}
	nt := len(items)
	for _, p := range n.Preds {
		s := len(b)
		b = CanonicalPred(p).Append(b)
		items = append(items, span{s, len(b)})
	}
	np := len(items)
	for _, c := range n.Children {
		s := len(b)
		b = appendCanonicalNode(b, c)
		items = append(items, span{s, len(b)})
	}
	byText := func(x, y span) int { return bytes.Compare(b[x.start:x.end], b[y.start:y.end]) }
	tables, preds, kids := items[:nt], items[nt:np], items[np:]
	slices.SortFunc(tables, byText)
	slices.SortFunc(preds, byText)
	slices.SortFunc(kids, byText)

	out := len(b)
	b = append(b, n.Quant.String()...)
	b = append(b, "{T:"...)
	b = appendSpans(b, tables, ",")
	b = append(b, " P:"...)
	b = appendSpans(b, preds, ",")
	b = append(b, " C:"...)
	b = appendSpans(b, kids, "")
	b = append(b, '}')
	return append(b[:base], b[out:]...)
}

// appendSpans appends the spans' bytes of b, in order, separated by sep.
func appendSpans(b []byte, spans []span, sep string) []byte {
	for i, sp := range spans {
		if i > 0 {
			b = append(b, sep...)
		}
		b = append(b, b[sp.start:sp.end]...)
	}
	return b
}

// CanonicalPred orients a predicate deterministically: constants go
// right, and between two attributes the lexicographically smaller term
// goes left, flipping the operator as needed. When both sides are the
// same attribute (e.g. "L.x <= L.x") the orientation with the smaller
// operator value is chosen, so that a predicate and its flip always
// canonicalize identically.
func CanonicalPred(p trc.Pred) trc.Pred {
	flip := func() trc.Pred {
		return trc.Pred{Left: p.Right, Op: p.Op.Flip(), Right: p.Left}
	}
	if p.Left.IsConst() {
		return flip()
	}
	if p.Right.IsConst() {
		return p
	}
	switch l, r := p.Left.Attr.String(), p.Right.Attr.String(); {
	case l > r:
		return normalizeOffsets(flip())
	case l == r && p.Op.Flip() < p.Op:
		return normalizeOffsets(flip())
	}
	return normalizeOffsets(p)
}

// normalizeOffsets moves arithmetic offsets to a canonical position:
// between two attributes the net offset sits on the right term
// ("a op b + k"); against a numeric constant the offset is folded into
// the constant ("a + k op c" becomes "a op c-k"). The rewrites preserve
// semantics for every comparison operator, so predicates that differ only
// in where their arithmetic is written canonicalize identically.
func normalizeOffsets(p trc.Pred) trc.Pred {
	switch {
	case p.Left.Attr != nil && p.Right.Attr != nil:
		net := p.Right.Offset - p.Left.Offset
		p.Left.Offset = 0
		p.Right.Offset = net
	case p.Left.Attr != nil && p.Right.Const != nil &&
		!p.Right.Const.IsString && p.Left.Offset != 0:
		c := sqlparse.NumberConst(p.Right.Const.Num - p.Left.Offset)
		p.Left.Offset = 0
		p.Right.Const = &c
	}
	return p
}

// Equal reports whether two trees have the same canonical form.
func Equal(a, b *LT) bool { return a.Canonical() == b.Canonical() }
