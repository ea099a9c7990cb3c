// Package trc converts resolved SQL queries into tuple relational calculus
// (TRC), the first stage of the QueryVis pipeline (Section 4.7, Fig. 8):
//
//	SQL → TRC → Logic Tree → diagram
//
// Conversion to TRC is where SQL's syntactic variety disappears: IN, NOT IN,
// op ANY, and op ALL subqueries are all desugared into quantified blocks
// with ordinary comparison predicates, so that the three Fig. 24 variants
// of "sailors who reserve only red boats" produce identical TRC.
//
// Following the paper we use set semantics, 2-valued logic (no NULLs), and
// conjunctions only. GROUP BY and aggregates — the study's extension — are
// carried on the root expression.
package trc

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sqlparse"
)

// Quant is a logical quantifier applied to a block of tuple variables.
type Quant int

const (
	Exists    Quant = iota // ∃
	NotExists              // ∄
	ForAll                 // ∀
)

// String renders the quantifier symbol.
func (q Quant) String() string {
	switch q {
	case Exists:
		return "∃"
	case NotExists:
		return "∄"
	case ForAll:
		return "∀"
	}
	return "?"
}

// Var is a tuple variable ranging over a relation, e.g. "L1 ∈ Likes".
type Var struct {
	Name     string // unique within the whole expression
	Relation string // schema table name
}

// Attr is one attribute of a tuple variable, e.g. "L1.drinker".
type Attr struct {
	Var    string
	Column string
}

// String renders the attribute in dotted form.
func (a Attr) String() string { return a.Var + "." + a.Column }

// Append appends the attribute's String form to b.
func (a Attr) Append(b []byte) []byte {
	b = append(b, a.Var...)
	b = append(b, '.')
	return append(b, a.Column...)
}

// Term is either an attribute or a constant (exactly one is set). An
// attribute term may carry an additive numeric Offset — the arithmetic
// extension ("L.a + 5").
type Term struct {
	Attr   *Attr
	Const  *sqlparse.Constant
	Offset float64
}

// String renders the term.
func (t Term) String() string { return string(t.Append(make([]byte, 0, 32))) }

// Append appends the term's String form to b.
func (t Term) Append(b []byte) []byte {
	if t.Attr == nil {
		return append(b, t.Const.String()...)
	}
	b = t.Attr.Append(b)
	switch {
	case t.Offset > 0:
		b = append(b, " + "...)
		b = strconv.AppendFloat(b, t.Offset, 'g', -1, 64)
	case t.Offset < 0:
		b = append(b, " - "...)
		b = strconv.AppendFloat(b, -t.Offset, 'g', -1, 64)
	}
	return b
}

// IsConst reports whether the term is a constant.
func (t Term) IsConst() bool { return t.Const != nil }

// Pred is a comparison between two terms, at most one of which is constant.
type Pred struct {
	Left  Term
	Op    sqlparse.Op
	Right Term
}

// String renders the predicate.
func (p Pred) String() string { return string(p.Append(make([]byte, 0, 48))) }

// Append appends the predicate's String form to b, so callers that
// render many predicates (logictree.Canonical) can share one buffer.
func (p Pred) Append(b []byte) []byte {
	b = p.Left.Append(b)
	b = append(b, ' ')
	b = append(b, p.Op.String()...)
	b = append(b, ' ')
	return p.Right.Append(b)
}

// IsSelection reports whether the predicate involves a constant.
func (p Pred) IsSelection() bool { return p.Left.IsConst() || p.Right.IsConst() }

// Block is one quantified scope: a quantifier applied to a set of tuple
// variables, a conjunction of predicates, and nested sub-blocks. The root
// block always has the ∃ quantifier.
type Block struct {
	Quant Quant
	Vars  []Var
	Preds []Pred
	Subs  []*Block
}

// SelectItem is one output of the expression: an attribute, optionally
// aggregated; Star marks COUNT(*).
type SelectItem struct {
	Agg  sqlparse.Agg
	Star bool
	Attr Attr
}

// String renders the item.
func (s SelectItem) String() string { return string(s.Append(make([]byte, 0, 32))) }

// Append appends the item's String form to b.
func (s SelectItem) Append(b []byte) []byte {
	if s.Agg == sqlparse.AggNone {
		return s.Attr.Append(b)
	}
	b = append(b, s.Agg.String()...)
	if s.Star {
		return append(b, "(*)"...)
	}
	b = append(b, '(')
	b = s.Attr.Append(b)
	return append(b, ')')
}

// Expr is a complete TRC expression: the output attributes, the optional
// GROUP BY attributes, and the root block.
type Expr struct {
	Select  []SelectItem
	GroupBy []Attr
	Root    *Block
}

// String renders the expression in the paper's Fig. 9 style, e.g.
//
//	{Q | ∃L1 ∈ Likes [L1.drinker = Q.drinker ∧ ∄L2 ∈ Likes [...]]}
func (e *Expr) String() string {
	var b strings.Builder
	b.WriteString("{Q | ")
	writeBlock(&b, e.Root, e.headPreds())
	b.WriteString("}")
	return b.String()
}

// headPreds renders the implicit head bindings Q.attr = var.attr.
func (e *Expr) headPreds() []string {
	var out []string
	for _, s := range e.Select {
		if s.Star || s.Agg != sqlparse.AggNone {
			out = append(out, "Q."+s.String()+" = "+s.String())
			continue
		}
		out = append(out, s.Attr.String()+" = Q."+s.Attr.Column)
	}
	return out
}

func writeBlock(b *strings.Builder, blk *Block, extra []string) {
	for i, v := range blk.Vars {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(b, "%s%s ∈ %s", blk.Quant, v.Name, v.Relation)
	}
	b.WriteString(" [")
	sep := false
	write := func(s string) {
		if sep {
			b.WriteString(" ∧ ")
		}
		b.WriteString(s)
		sep = true
	}
	for _, s := range extra {
		write(s)
	}
	for _, p := range blk.Preds {
		write(p.String())
	}
	for _, s := range blk.Subs {
		if sep {
			b.WriteString(" ∧ ")
		}
		writeBlock(b, s, nil)
		sep = true
	}
	b.WriteString("]")
}

// Indented renders the expression with one quantifier block per line, as
// the paper lays out Fig. 9.
func (e *Expr) Indented() string {
	var b strings.Builder
	b.WriteString("{Q |\n")
	writeIndented(&b, e.Root, e.headPreds(), 1)
	b.WriteString("\n}")
	return b.String()
}

func writeIndented(b *strings.Builder, blk *Block, extra []string, depth int) {
	pad := strings.Repeat("  ", depth)
	b.WriteString(pad)
	for i, v := range blk.Vars {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(b, "%s%s ∈ %s", blk.Quant, v.Name, v.Relation)
	}
	b.WriteString(" [")
	sep := false
	for _, s := range extra {
		if sep {
			b.WriteString(" ∧ ")
		}
		b.WriteString(s)
		sep = true
	}
	for _, p := range blk.Preds {
		if sep {
			b.WriteString(" ∧ ")
		}
		b.WriteString(p.String())
		sep = true
	}
	for _, s := range blk.Subs {
		if sep {
			b.WriteString(" ∧")
		}
		b.WriteString("\n")
		writeIndented(b, s, nil, depth+1)
		sep = true
	}
	b.WriteString("]")
}

// Walk visits every block in the expression in depth-first pre-order.
func (e *Expr) Walk(fn func(*Block)) {
	var rec func(*Block)
	rec = func(b *Block) {
		fn(b)
		for _, s := range b.Subs {
			rec(s)
		}
	}
	rec(e.Root)
}

// VarCount returns the total number of tuple variables in the expression.
func (e *Expr) VarCount() int {
	n := 0
	e.Walk(func(b *Block) { n += len(b.Vars) })
	return n
}

// MaxDepth returns the maximum block nesting depth (root = 0).
func (e *Expr) MaxDepth() int {
	var rec func(b *Block, d int) int
	rec = func(b *Block, d int) int {
		max := d
		for _, s := range b.Subs {
			if m := rec(s, d+1); m > max {
				max = m
			}
		}
		return max
	}
	return rec(e.Root, 0)
}
