package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/logictree"
	"repro/internal/schema"
	"repro/internal/sqlparse"
	"repro/internal/trc"
)

// This file keeps the fmt-based Interpret and Row.Label as references
// the builder-based versions are checked against byte for byte.

func refInterpret(lt *logictree.LT) string {
	var b strings.Builder
	b.WriteString("Return ")
	if len(lt.Select) == 0 {
		b.WriteString("all attributes")
	}
	for i, s := range lt.Select {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s.String())
	}
	if len(lt.GroupBy) > 0 {
		b.WriteString(" for each ")
		for i, g := range lt.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.String())
		}
	}
	fmt.Fprintf(&b, " from %s", refTableList(lt.Root))
	if len(lt.Root.Preds) > 0 {
		fmt.Fprintf(&b, " where %s", refPredList(lt.Root))
	}
	for i, c := range lt.Root.Children {
		if i == 0 {
			b.WriteString(", such that ")
		} else {
			b.WriteString(" and ")
		}
		refInterpretNode(&b, c)
	}
	b.WriteString(".")
	return b.String()
}

func refInterpretNode(b *strings.Builder, n *logictree.Node) {
	switch n.Quant {
	case trc.NotExists:
		fmt.Fprintf(b, "there does not exist %s", refTableList(n))
	case trc.ForAll:
		fmt.Fprintf(b, "for all %s", refTableList(n))
	default:
		fmt.Fprintf(b, "there exists %s", refTableList(n))
	}
	if len(n.Preds) > 0 {
		fmt.Fprintf(b, " with %s", refPredList(n))
	}
	if n.Quant == trc.ForAll && len(n.Children) == 1 {
		b.WriteString(", it holds that ")
		refInterpretNode(b, n.Children[0])
		return
	}
	for i, c := range n.Children {
		if i == 0 {
			b.WriteString(", such that ")
		} else {
			b.WriteString(" and ")
		}
		refInterpretNode(b, c)
	}
}

func refTableList(n *logictree.Node) string {
	var parts []string
	for _, t := range n.Tables {
		parts = append(parts, fmt.Sprintf("a %s tuple %s", t.Relation, t.Var))
	}
	return strings.Join(parts, " and ")
}

func refPredList(n *logictree.Node) string {
	var parts []string
	for _, p := range n.Preds {
		parts = append(parts, p.String())
	}
	return strings.Join(parts, " and ")
}

func refLabel(r Row) string {
	expr := r.Attr
	if r.Agg != sqlparse.AggNone {
		if r.Star {
			expr = r.Agg.String() + "(*)"
		} else {
			expr = r.Agg.String() + "(" + r.Attr + ")"
		}
	}
	if r.Kind == RowSelection {
		return fmt.Sprintf("%s%s %s %s", expr, refOffsetLabel(r.Offset), r.Op, r.Value)
	}
	return expr
}

func refOffsetLabel(k float64) string {
	switch {
	case k > 0:
		return fmt.Sprintf(" + %g", k)
	case k < 0:
		return fmt.Sprintf(" - %g", -k)
	}
	return ""
}

// referenceTrees returns the paper corpus as logic trees, each raw and
// simplified, plus seeded random valid trees.
func referenceTrees(t *testing.T) []*logictree.LT {
	t.Helper()
	type src struct {
		sql string
		s   *schema.Schema
	}
	beers, chinook := schema.Beers(), schema.Chinook()
	srcs := []src{{corpus.Fig1UniqueSet, beers}, {corpus.Fig3QSome, beers}, {corpus.Fig3QOnly, beers}}
	for _, g := range corpus.AppendixG() {
		srcs = append(srcs, src{g.SQL, g.Schema})
	}
	for _, q := range corpus.StudyQuestions() {
		srcs = append(srcs, src{q.SQL, chinook})
	}
	for _, e := range corpus.TutorialExamples() {
		srcs = append(srcs, src{e.SQL, chinook})
	}
	var out []*logictree.LT
	for _, c := range srcs {
		for _, simplify := range []bool{false, true} {
			_, lt := buildDiagram(t, c.sql, c.s, simplify)
			out = append(out, lt)
		}
	}
	for seed := int64(0); seed < 300; seed++ {
		out = append(out, logictree.RandomValid(rand.New(rand.NewSource(seed)), 3))
	}
	return out
}

// TestInterpretMatchesReference: the builder-based Interpret writes
// exactly the fmt-based reference's text.
func TestInterpretMatchesReference(t *testing.T) {
	for i, lt := range referenceTrees(t) {
		if got, want := Interpret(lt), refInterpret(lt); got != want {
			t.Fatalf("tree %d:\ngot  %s\nwant %s", i, got, want)
		}
	}
}

// TestRowLabelMatchesReference: Row.Label matches the fmt-based
// reference on every row of the reference diagrams and on a table of
// aggregate, star, offset and constant edge cases.
func TestRowLabelMatchesReference(t *testing.T) {
	rows := []Row{
		{Kind: RowAttr, Attr: "a"},
		{Kind: RowGroupBy, Attr: "Country"},
		{Kind: RowAttr, Agg: sqlparse.AggCount, Star: true},
		{Kind: RowAttr, Agg: sqlparse.AggSum, Attr: "Quantity"},
		{Kind: RowSelection, Attr: "color", Op: sqlparse.OpEq, Value: "'red'"},
		{Kind: RowSelection, Attr: "name", Op: sqlparse.OpNe, Value: "'it''s'"},
	}
	for _, off := range []float64{0, 1, -1, 2.5, -0.125, 1e21, 1e-7, -1e100, 123456789, math.Inf(1), math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64} {
		for _, op := range []sqlparse.Op{sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGe, sqlparse.OpGt} {
			rows = append(rows, Row{Kind: RowSelection, Attr: "price", Op: op, Value: "10", Offset: off})
			rows = append(rows, Row{Kind: RowSelection, Agg: sqlparse.AggAvg, Attr: "x", Op: op, Value: "1.5", Offset: off})
		}
	}
	for _, lt := range referenceTrees(t) {
		d, err := Build(lt)
		if err != nil {
			t.Fatal(err)
		}
		for _, tn := range d.Tables {
			rows = append(rows, tn.Rows...)
		}
	}
	for _, r := range rows {
		if got, want := r.Label(), refLabel(r); got != want {
			t.Fatalf("row %+v: label %q, reference %q", r, got, want)
		}
	}
}
