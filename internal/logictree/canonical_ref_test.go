package logictree_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/logictree"
	"repro/internal/oracle"
	"repro/internal/schema"
	"repro/internal/sqlparse"
	"repro/internal/trc"
)

// refCanonical is the fmt-based LT.Canonical that the single-buffer one
// replaced, restated over the package's exported API. It is the
// reference the new output must equal byte for byte: every verification
// and inverse-search key depends on it.
func refCanonical(lt *logictree.LT) string {
	var b strings.Builder
	var sel []string
	for _, s := range lt.Select {
		sel = append(sel, s.String())
	}
	fmt.Fprintf(&b, "select{%s}", strings.Join(sel, ", "))
	if len(lt.GroupBy) > 0 {
		var gs []string
		for _, g := range lt.GroupBy {
			gs = append(gs, g.String())
		}
		fmt.Fprintf(&b, "groupby{%s}", strings.Join(gs, ","))
	}
	b.WriteString(refCanonicalNode(lt.Root))
	return b.String()
}

func refCanonicalNode(n *logictree.Node) string {
	tbls := make([]string, 0, len(n.Tables))
	for _, t := range n.Tables {
		tbls = append(tbls, t.Relation+" "+t.Var)
	}
	sort.Strings(tbls)
	preds := make([]string, 0, len(n.Preds))
	for _, p := range n.Preds {
		preds = append(preds, refPred(logictree.CanonicalPred(p)))
	}
	sort.Strings(preds)
	kids := make([]string, 0, len(n.Children))
	for _, c := range n.Children {
		kids = append(kids, refCanonicalNode(c))
	}
	sort.Strings(kids)
	return fmt.Sprintf("%s{T:%s P:%s C:%s}",
		n.Quant, strings.Join(tbls, ","), strings.Join(preds, ","),
		strings.Join(kids, ""))
}

// refPred and refTerm are the fmt-based trc.Pred.String and
// trc.Term.String.
func refPred(p trc.Pred) string {
	return fmt.Sprintf("%s %s %s", refTerm(p.Left), p.Op, refTerm(p.Right))
}

func refTerm(t trc.Term) string {
	if t.Attr != nil {
		s := t.Attr.String()
		switch {
		case t.Offset > 0:
			s += fmt.Sprintf(" + %g", t.Offset)
		case t.Offset < 0:
			s += fmt.Sprintf(" - %g", -t.Offset)
		}
		return s
	}
	return t.Const.String()
}

// ltOf runs the forward pipeline up to the flattened logic tree.
func ltOf(t *testing.T, sql string, s *schema.Schema, simplify bool) *logictree.LT {
	t.Helper()
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, sql)
	}
	r, err := sqlparse.Resolve(q, s)
	if err != nil {
		t.Fatalf("resolve: %v\n%s", err, sql)
	}
	e, err := trc.Convert(q, r)
	if err != nil {
		t.Fatalf("convert: %v\n%s", err, sql)
	}
	lt := logictree.FromTRC(e).Flatten()
	if simplify {
		lt.Simplify()
	}
	return lt
}

// checkCanonical asserts Canonical and the predicate renderings match
// the fmt-based reference on one tree.
func checkCanonical(t *testing.T, label string, lt *logictree.LT) {
	t.Helper()
	if got, want := lt.Canonical(), refCanonical(lt); got != want {
		t.Fatalf("%s: Canonical differs from reference:\ngot  %s\nwant %s", label, got, want)
	}
	var walk func(n *logictree.Node)
	walk = func(n *logictree.Node) {
		for _, p := range n.Preds {
			if got, want := p.String(), refPred(p); got != want {
				t.Fatalf("%s: Pred.String = %q, reference %q", label, got, want)
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(lt.Root)
}

// TestCanonicalMatchesFmtReference: over seeded generated queries on
// every built-in schema and over the paper corpus, raw and simplified,
// Canonical is byte-identical to the fmt-based implementation.
func TestCanonicalMatchesFmtReference(t *testing.T) {
	cfg := oracle.DefaultConfig()
	master := rand.New(rand.NewSource(5))
	for i := 0; i < 600; i++ {
		rng := rand.New(rand.NewSource(master.Int63()))
		name := cfg.Schemas[i%len(cfg.Schemas)]
		s, _ := schema.ByName(name)
		sql := sqlparse.Format(oracle.Generate(rng, s, cfg))
		for _, simplify := range []bool{false, true} {
			checkCanonical(t, fmt.Sprintf("generated %d (%s, simplify=%t)", i, name, simplify),
				ltOf(t, sql, s, simplify))
		}
	}

	type paperQuery struct {
		name, sql string
		s         *schema.Schema
	}
	paper := []paperQuery{
		{"fig1", corpus.Fig1UniqueSet, schema.Beers()},
		{"fig3_qsome", corpus.Fig3QSome, schema.Beers()},
		{"fig3_qonly", corpus.Fig3QOnly, schema.Beers()},
	}
	for i, v := range corpus.Fig24Variants() {
		paper = append(paper, paperQuery{fmt.Sprintf("fig24_%d", i), v, schema.Sailors()})
	}
	for _, q := range append(corpus.StudyQuestions(), corpus.QualificationQuestions()...) {
		paper = append(paper, paperQuery{q.ID, q.SQL, q.Schema()})
	}
	for i, g := range corpus.AppendixG() {
		paper = append(paper, paperQuery{fmt.Sprintf("appG_%d", i), g.SQL, g.Schema})
	}
	for _, q := range paper {
		for _, simplify := range []bool{false, true} {
			checkCanonical(t, fmt.Sprintf("%s (simplify=%t)", q.name, simplify),
				ltOf(t, q.sql, q.s, simplify))
		}
	}
}

// TestCanonicalOffsetsMatchFmtReference covers the arithmetic-offset
// and numeric-constant spellings the generator rarely produces.
func TestCanonicalOffsetsMatchFmtReference(t *testing.T) {
	attr := func(v, c string, off float64) trc.Term {
		return trc.Term{Attr: &trc.Attr{Var: v, Column: c}, Offset: off}
	}
	num := func(v float64) trc.Term {
		c := sqlparse.NumberConst(v)
		return trc.Term{Const: &c}
	}
	str := func(s string) trc.Term {
		c := sqlparse.StringConst(s)
		return trc.Term{Const: &c}
	}
	preds := []trc.Pred{
		{Left: attr("A", "x", 2.5), Op: sqlparse.OpLt, Right: attr("B", "y", -1e21)},
		{Left: attr("B", "y", -0.125), Op: sqlparse.OpGe, Right: num(3)},
		{Left: num(1e-7), Op: sqlparse.OpNe, Right: attr("A", "x", 7)},
		{Left: attr("A", "x", 0), Op: sqlparse.OpLe, Right: attr("A", "x", 0)},
		{Left: str("it's"), Op: sqlparse.OpEq, Right: attr("C", "z", 0)},
	}
	lt := &logictree.LT{
		Root: &logictree.Node{
			Tables: []logictree.Table{{Var: "A", Relation: "R"}, {Var: "B", Relation: "R"}},
			Preds:  preds[:2],
			Children: []*logictree.Node{
				{Quant: trc.NotExists, Tables: []logictree.Table{{Var: "C", Relation: "S"}}, Preds: preds[2:]},
				{Quant: trc.ForAll, Tables: []logictree.Table{{Var: "D", Relation: "S"}}},
			},
		},
		Select:  []trc.SelectItem{{Attr: trc.Attr{Var: "A", Column: "x"}}, {Agg: sqlparse.AggCount, Star: true}},
		GroupBy: []trc.Attr{{Var: "A", Column: "x"}, {Var: "B", Column: "y"}},
	}
	checkCanonical(t, "offsets", lt)
}
