// Package dot renders QueryVis diagrams as GraphViz DOT programs —
// the paper renders its diagrams "with the help of GraphViz" (Appendix
// A.4, [32]) — and as plain-text summaries for terminals.
//
// The emitted DOT uses HTML-like table labels: a black header row with
// the relation name (gray for the SELECT box), one cell per row, yellow
// cells for in-place selection predicates, and gray cells for GROUP BY
// attributes. Quantifier boxes become clusters: dashed for ∄ and
// two-peripheries for ∀. Edges attach to row ports so lines touch the
// attribute cells they join.
//
// Only DOT text is produced; rasterizing it with the dot binary is
// outside the pipeline's algorithmic content.
package dot

import (
	"context"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/trc"
)

// Options controls rendering.
type Options struct {
	// Name is the graph name; defaults to "queryvis".
	Name string
	// RankDir is the GraphViz rankdir; defaults to "LR" to match the
	// paper's left-to-right reading order.
	RankDir string
	// ShowVars annotates each table with its tuple variable in red, like
	// the L1..L6 annotations of Fig. 1b.
	ShowVars bool
}

func (o Options) withDefaults() Options {
	if o.Name == "" {
		o.Name = "queryvis"
	}
	if o.RankDir == "" {
		o.RankDir = "LR"
	}
	return o
}

// Render emits the diagram as a DOT program with default options.
func Render(d *core.Diagram) string { return RenderWith(d, Options{}) }

// RenderContext is RenderWith with cooperative cancellation: rendering
// checks ctx every few hundred tables and edges and stops with ctx.Err()
// once the context is done, so emitting DOT for an enormous diagram
// cannot outlive its request.
func RenderContext(ctx context.Context, d *core.Diagram, opts Options) (string, error) {
	opts = opts.withDefaults()
	var b strings.Builder
	if err := render(ctx, &b, d, opts); err != nil {
		return "", err
	}
	return b.String(), nil
}

// RenderWith emits the diagram as a DOT program.
func RenderWith(d *core.Diagram, opts Options) string {
	opts = opts.withDefaults()
	var b strings.Builder
	// context.Background() is never done, so render cannot fail here.
	_ = render(context.Background(), &b, d, opts)
	return b.String()
}

// render is the single rendering implementation behind RenderWith and
// RenderContext. It writes straight into b, with no per-row formatting.
func render(ctx context.Context, b *strings.Builder, d *core.Diagram, opts Options) error {
	step := 0
	check := func() error {
		if step++; step&255 != 0 {
			return nil
		}
		return ctx.Err()
	}
	// The amortized check only fires every 256 steps; small diagrams need
	// this upfront check to notice a done context at all.
	if err := ctx.Err(); err != nil {
		return err
	}
	b.Grow(sizeHint(d))
	put(b, "digraph ", quoteID(opts.Name), " {\n  rankdir=", opts.RankDir, ";\n")
	b.WriteString("  node [shape=plaintext fontname=\"Helvetica\"];\n")
	b.WriteString("  edge [fontname=\"Helvetica\" arrowsize=0.7];\n")

	boxed := map[int]int{} // table ID -> box index
	for i, bx := range d.Boxes {
		for _, id := range bx.Tables {
			boxed[id] = i
		}
	}

	// Unboxed tables first, then one cluster per quantifier box.
	for _, t := range d.Tables {
		if err := check(); err != nil {
			return err
		}
		if _, ok := boxed[t.ID]; ok {
			continue
		}
		writeTable(b, t, "  ", opts)
	}
	for i, bx := range d.Boxes {
		if err := check(); err != nil {
			return err
		}
		put(b, "  subgraph cluster_", strconv.Itoa(i), " {\n")
		switch bx.Quant {
		case trc.ForAll:
			b.WriteString("    style=\"rounded\"; peripheries=2; label=\"\";\n")
		default: // ∄
			b.WriteString("    style=\"rounded,dashed\"; label=\"\";\n")
		}
		ids := bx.Tables
		if !sort.IntsAreSorted(ids) {
			ids = append([]int(nil), ids...)
			sort.Ints(ids)
		}
		for _, id := range ids {
			writeTable(b, d.Table(id), "    ", opts)
		}
		b.WriteString("  }\n")
	}

	for _, e := range d.Edges {
		if err := check(); err != nil {
			return err
		}
		put(b, "  t", strconv.Itoa(e.From.Table), ":r", strconv.Itoa(e.From.Row),
			" -> t", strconv.Itoa(e.To.Table), ":r", strconv.Itoa(e.To.Row))
		// Attributes are space-separated inside one bracket list, which
		// is omitted when empty.
		sep := " ["
		attr := func(s ...string) {
			b.WriteString(sep)
			put(b, s...)
			sep = " "
		}
		if !e.Directed {
			attr("dir=none")
		}
		if l := e.Label(); l != "" {
			attr("label=", quoteID(l))
		}
		if e.Kind == core.EdgeSelect {
			attr("style=solid")
		}
		if sep == " " {
			b.WriteString("]")
		}
		b.WriteString(";\n")
	}
	b.WriteString("}\n")
	return nil
}

// put writes each string to b in order.
func put(b *strings.Builder, ss ...string) {
	for _, s := range ss {
		b.WriteString(s)
	}
}

// sizeHint estimates the DOT program's length so render grows its
// buffer once: a fixed preamble, each cluster header, each edge
// statement, and each table's HTML-label scaffolding plus one cell per
// row. The weights come from the lengths of seeded generated diagrams.
func sizeHint(d *core.Diagram) int {
	n := 130 + 76*len(d.Boxes) + 38*len(d.Edges)
	for _, t := range d.Tables {
		n += 190 + len(t.Name) + 50*len(t.Rows)
	}
	return n
}

// textSizeHint is sizeHint for Text.
func textSizeHint(d *core.Diagram) int {
	n := 8 + 12*len(d.Boxes) + 34*len(d.Edges)
	for _, t := range d.Tables {
		n += 10 + len(t.Name) + 17*len(t.Rows)
	}
	return n
}

func writeTable(b *strings.Builder, t *core.TableNode, pad string, opts Options) {
	put(b, pad, "t", strconv.Itoa(t.ID), " [label=<\n",
		pad, "  <TABLE BORDER=\"0\" CELLBORDER=\"1\" CELLSPACING=\"0\" CELLPADDING=\"4\">\n")
	headerBG, headerFG := "black", "white"
	if t.IsSelect() {
		headerBG, headerFG = "gray80", "black"
	}
	put(b, pad, "  <TR><TD BGCOLOR=\"", headerBG, "\"><FONT COLOR=\"", headerFG, "\"><B>")
	htmlEscaper.WriteString(b, t.Name)
	if opts.ShowVars && t.Var != "" && !t.IsSelect() {
		b.WriteString(" <FONT COLOR=\"red\">")
		htmlEscaper.WriteString(b, t.Var)
		b.WriteString("</FONT>")
	}
	b.WriteString("</B></FONT></TD></TR>\n")
	for i, r := range t.Rows {
		bg := ""
		switch r.Kind {
		case core.RowSelection:
			bg = " BGCOLOR=\"lightyellow\""
		case core.RowGroupBy:
			bg = " BGCOLOR=\"gray90\""
		}
		put(b, pad, "  <TR><TD PORT=\"r", strconv.Itoa(i), "\"", bg, ">")
		htmlEscaper.WriteString(b, r.Label())
		b.WriteString("</TD></TR>\n")
	}
	put(b, pad, "  </TABLE>>];\n")
}

// htmlEscaper escapes label text into the output buffer. It is shared by
// every render: a strings.Replacer is immutable and safe for concurrent
// use, and building one is far costlier than applying it.
var htmlEscaper = strings.NewReplacer(
	"&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;",
)

// quoteID quotes a DOT identifier when needed.
func quoteID(s string) string {
	plain := true
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				plain = false
			}
		default:
			plain = false
		}
	}
	if plain && s != "" {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `\"`) + `"`
}

// Text renders the diagram as indented plain text for terminals: each
// table with its rows grouped under its quantifier box, then the edge
// list in arrow notation.
func Text(d *core.Diagram) string {
	var b strings.Builder
	b.Grow(textSizeHint(d))
	boxed := map[int]bool{}
	writeT := func(t *core.TableNode, pad string) {
		put(&b, pad, t.Name)
		if t.Var != "" && !t.IsSelect() {
			put(&b, " (", t.Var, ")")
		}
		b.WriteString("\n")
		for _, r := range t.Rows {
			marker := ""
			switch r.Kind {
			case core.RowSelection:
				marker = " [sel]"
			case core.RowGroupBy:
				marker = " [group]"
			}
			put(&b, pad, "  ", r.Label(), marker, "\n")
		}
	}
	for _, bx := range d.Boxes {
		for _, id := range bx.Tables {
			boxed[id] = true
		}
	}
	for _, t := range d.Tables {
		if !boxed[t.ID] {
			writeT(t, "")
		}
	}
	for _, bx := range d.Boxes {
		put(&b, bx.Quant.String(), " box:\n")
		for _, id := range bx.Tables {
			writeT(d.Table(id), "  ")
		}
	}
	b.WriteString("edges:\n")
	for _, e := range d.Edges {
		ft, tt := d.Table(e.From.Table), d.Table(e.To.Table)
		fn := ft.Name
		if ft.Var != "" {
			fn = ft.Var
		}
		tn := tt.Name
		if tt.Var != "" {
			tn = tt.Var
		}
		arrow := " -- "
		if e.Directed {
			arrow = " -> "
		}
		put(&b, "  ", fn, ".", ft.Rows[e.From.Row].Label(), arrow,
			tn, ".", tt.Rows[e.To.Row].Label())
		if l := e.Label(); l != "" {
			put(&b, " [", l, "]")
		}
		b.WriteString("\n")
	}
	return b.String()
}
