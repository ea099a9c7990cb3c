// Package svg renders QueryVis diagrams as self-contained SVG documents,
// removing the GraphViz dependency for consumers that want an image
// directly. The layout is layered, mirroring the paper's figures: the
// SELECT box on the left, then one column per nesting depth, with the
// tables of one query block stacked together inside their quantifier box
// (dashed stroke for ∄, double stroke for ∀). Row colors follow the
// tutorial legend: black table headers, yellow selection-predicate rows,
// gray GROUP BY rows.
package svg

import (
	"context"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/trc"
)

// Geometry constants (pixels).
const (
	rowH    = 22
	charW   = 7.5
	cellPad = 10
	colGap  = 80
	rowGap  = 26
	boxPad  = 10
	margin  = 24
	fontPx  = 12
)

// rect is a laid-out rectangle.
type rect struct {
	x, y, w, h float64
}

type layout struct {
	d      *core.Diagram
	tables []rect // indexed by table ID (IDs equal indices)
	boxes  []rect // parallel to d.Boxes
	width  float64
	height float64
}

// tableSize computes a table node's frame size from its rows.
func tableSize(t *core.TableNode) (w, h float64) {
	longest := len(t.Name)
	for _, r := range t.Rows {
		if n := len(r.Label()); n > longest {
			longest = n
		}
	}
	w = float64(longest)*charW + 2*cellPad
	if w < 90 {
		w = 90
	}
	h = float64(1+len(t.Rows)) * rowH
	return w, h
}

// computeLayout assigns positions: column = depth+1 (SELECT box at 0),
// tables of one group kept adjacent, groups stacked per column.
func computeLayout(d *core.Diagram) *layout {
	l := &layout{d: d, tables: make([]rect, len(d.Tables)), boxes: make([]rect, 0, len(d.Boxes))}

	// Column assignment, indexed by table ID; the SELECT box is column 0.
	colOf := make([]int, len(d.Tables))
	maxCol := 0
	for _, t := range d.Tables[1:] {
		c := d.TrueDepth(t.ID) + 1
		colOf[t.ID] = c
		if c > maxCol {
			maxCol = c
		}
	}

	// Order tables within a column: group members adjacent, groups by
	// first table ID.
	groups := d.Groups()
	groupOf := make([]int, len(d.Tables))
	for gi, g := range groups {
		for _, id := range g {
			groupOf[id] = gi
		}
	}
	byCol := make([][]int, maxCol+1)
	byCol[0] = []int{core.SelectBoxID}
	for _, t := range d.Tables[1:] {
		byCol[colOf[t.ID]] = append(byCol[colOf[t.ID]], t.ID)
	}
	for c := 1; c <= maxCol; c++ {
		slices.SortFunc(byCol[c], func(a, b int) int {
			if ga, gb := groupOf[a], groupOf[b]; ga != gb {
				return ga - gb
			}
			return a - b
		})
	}

	// Table frame sizes (table IDs equal indices), then column widths,
	// then x positions.
	sizes := make([]rect, len(d.Tables))
	for i, t := range d.Tables {
		sizes[i].w, sizes[i].h = tableSize(t)
	}
	colW := make([]float64, maxCol+1)
	for c, ids := range byCol {
		for _, id := range ids {
			if w := sizes[id].w; w > colW[c] {
				colW[c] = w
			}
		}
	}
	colX := make([]float64, maxCol+1)
	x := float64(margin)
	for c := 0; c <= maxCol; c++ {
		colX[c] = x
		x += colW[c] + colGap
	}
	l.width = x - colGap + margin

	// Stack tables in each column, leaving extra gap between groups so
	// quantifier boxes do not collide.
	maxY := 0.0
	for c, ids := range byCol {
		y := float64(margin) + float64(boxPad)
		prevGroup := -1
		for _, id := range ids {
			g := groupOf[id]
			if prevGroup != -1 && g != prevGroup {
				y += 2 * boxPad
			}
			prevGroup = g
			sz := sizes[id]
			l.tables[id] = rect{x: colX[c], y: y, w: sz.w, h: sz.h}
			y += sz.h + rowGap
		}
		if y > maxY {
			maxY = y
		}
	}
	l.height = maxY + margin

	// Quantifier boxes: bounding rectangle of their member tables.
	for _, b := range d.Boxes {
		var fr rect
		first := true
		for _, id := range b.Tables {
			tr := l.tables[id]
			if first {
				fr = tr
				first = false
				continue
			}
			x2 := maxf(fr.x+fr.w, tr.x+tr.w)
			y2 := maxf(fr.y+fr.h, tr.y+tr.h)
			fr.x = minf(fr.x, tr.x)
			fr.y = minf(fr.y, tr.y)
			fr.w = x2 - fr.x
			fr.h = y2 - fr.y
		}
		fr.x -= boxPad
		fr.y -= boxPad
		fr.w += 2 * boxPad
		fr.h += 2 * boxPad
		l.boxes = append(l.boxes, fr)
		if fr.x+fr.w+margin > l.width {
			l.width = fr.x + fr.w + margin
		}
		if fr.y+fr.h+margin > l.height {
			l.height = fr.y + fr.h + margin
		}
	}
	return l
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// rowAnchor returns the left and right midpoints of a row cell.
func (l *layout) rowAnchor(end core.EdgeEnd) (left, right [2]float64) {
	fr := l.tables[end.Table]
	y := fr.y + float64(1+end.Row)*rowH + rowH/2
	return [2]float64{fr.x, y}, [2]float64{fr.x + fr.w, y}
}

// escaper escapes text content into the output buffer. It is shared by
// every render: a strings.Replacer is immutable and safe for concurrent
// use, and building one is far costlier than applying it.
var escaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")

// Render produces a standalone SVG document for the diagram.
func Render(d *core.Diagram) string {
	// context.Background() is never done, so render cannot fail here.
	s, _ := RenderContext(context.Background(), d)
	return s
}

// writer emits SVG markup straight into a buffer: numbers are appended
// in place instead of going through fmt once per element.
type writer struct {
	strings.Builder
	num [32]byte
}

// put writes each string in order.
func (w *writer) put(ss ...string) {
	for _, s := range ss {
		w.WriteString(s)
	}
}

// attr writes ` name="v"` with v to one decimal place.
func (w *writer) attr(name string, v float64) {
	w.put(" ", name, `="`)
	w.Write(strconv.AppendFloat(w.num[:0], v, 'f', 1, 64))
	w.WriteByte('"')
}

// text writes s escaped, then closes the <text> element.
func (w *writer) text(s string) {
	escaper.WriteString(&w.Builder, s)
	w.WriteString("</text>\n")
}

// whole writes v rounded to an integer.
func (w *writer) whole(v float64) {
	w.Write(strconv.AppendFloat(w.num[:0], v, 'f', 0, 64))
}

// rowHeight is the fixed height attribute of header and row cells.
var rowHeight = ` height="` + strconv.Itoa(rowH) + `"`

// sizeHint estimates the document's length so RenderContext grows its
// buffer once: the fixed preamble plus one or two elements per box,
// edge, table header and row. The weights come from the lengths of
// seeded generated diagrams.
func sizeHint(d *core.Diagram) int {
	n := 420 + 175*len(d.Boxes) + 158*len(d.Edges)
	for _, t := range d.Tables {
		n += 160 + len(t.Name) + 150*len(t.Rows)
	}
	return n
}

// RenderContext is Render with cooperative cancellation: layout and
// emission check ctx every few hundred elements and abandon the render
// with ctx.Err() once the context is done.
func RenderContext(ctx context.Context, d *core.Diagram) (string, error) {
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
		return "", err
	}
	l := computeLayout(d)
	var w writer
	w.Grow(sizeHint(d))
	w.WriteString(`<svg xmlns="http://www.w3.org/2000/svg" width="`)
	w.whole(l.width)
	w.WriteString(`" height="`)
	w.whole(l.height)
	w.WriteString(`" viewBox="0 0 `)
	w.whole(l.width)
	w.WriteString(" ")
	w.whole(l.height)
	w.put(`" font-family="Helvetica, Arial, sans-serif" font-size="`, strconv.Itoa(fontPx), "\">\n")
	w.WriteString(`<defs><marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" markerWidth="7" markerHeight="7" orient="auto-start-reverse"><path d="M 0 0 L 10 5 L 0 10 z" fill="#333"/></marker></defs>`)
	w.WriteString("\n")

	// Quantifier boxes behind everything.
	box := func(fr rect, tail string) {
		w.WriteString("<rect")
		w.attr("x", fr.x)
		w.attr("y", fr.y)
		w.attr("width", fr.w)
		w.attr("height", fr.h)
		w.WriteString(tail)
	}
	for i, fr := range l.boxes {
		switch l.d.Boxes[i].Quant {
		case trc.ForAll:
			box(fr, ` rx="8" fill="none" stroke="#333" stroke-width="1"/>`+"\n")
			box(rect{fr.x + 3, fr.y + 3, fr.w - 6, fr.h - 6},
				` rx="6" fill="none" stroke="#333" stroke-width="1"/>`+"\n")
		default: // ∄
			box(fr, ` rx="8" fill="none" stroke="#333" stroke-width="1" stroke-dasharray="6 4"/>`+"\n")
		}
	}

	// Edges beneath tables so lines attach cleanly.
	for _, e := range d.Edges {
		if err := check(); err != nil {
			return "", err
		}
		fl, frt := l.rowAnchor(e.From)
		tl, trt := l.rowAnchor(e.To)
		// Pick the closer pair of anchors.
		var x1, y1, x2, y2 float64
		if frt[0] <= tl[0] { // from is left of to
			x1, y1, x2, y2 = frt[0], frt[1], tl[0], tl[1]
		} else if trt[0] <= fl[0] { // to is left of from
			x1, y1, x2, y2 = fl[0], fl[1], trt[0], trt[1]
		} else { // same column: connect right edges with a small bow
			x1, y1, x2, y2 = frt[0], frt[1], trt[0], trt[1]
		}
		w.WriteString("<line")
		w.attr("x1", x1)
		w.attr("y1", y1)
		w.attr("x2", x2)
		w.attr("y2", y2)
		w.WriteString(` stroke="#333" stroke-width="1.2"`)
		if e.Directed {
			w.WriteString(` marker-end="url(#arrow)"`)
		}
		w.WriteString("/>\n")
		if lab := e.Label(); lab != "" {
			w.WriteString("<text")
			w.attr("x", (x1+x2)/2)
			w.attr("y", (y1+y2)/2-4)
			w.WriteString(` text-anchor="middle" fill="#333">`)
			w.text(lab)
		}
	}

	// Tables.
	cell := func(x, y, width float64, fill, textFill, weight, label string) {
		w.WriteString("<rect")
		w.attr("x", x)
		w.attr("y", y)
		w.attr("width", width)
		w.put(rowHeight, ` fill="`, fill, `" stroke="#000"/>`+"\n<text")
		w.attr("x", x+width/2)
		w.attr("y", y+rowH-7)
		w.put(` text-anchor="middle" fill="`, textFill, `"`, weight, ">")
		w.text(label)
	}
	for _, t := range d.Tables {
		if err := check(); err != nil {
			return "", err
		}
		fr := l.tables[t.ID]
		headFill, headText := "#000", "#fff"
		if t.IsSelect() {
			headFill, headText = "#ccc", "#000"
		}
		cell(fr.x, fr.y, fr.w, headFill, headText, ` font-weight="bold"`, t.Name)
		for i, r := range t.Rows {
			if err := check(); err != nil {
				return "", err
			}
			fill := "#fff"
			switch r.Kind {
			case core.RowSelection:
				fill = "#fdf6c3" // yellow
			case core.RowGroupBy:
				fill = "#e3e3e3" // gray
			}
			cell(fr.x, fr.y+float64(1+i)*rowH, fr.w, fill, "#000", "", r.Label())
		}
	}
	w.WriteString("</svg>\n")
	return w.String(), nil
}
