// Package inverse maps QueryVis diagrams back to logic trees, making the
// paper's Proposition 5.1 (unambiguity) executable: for any valid diagram
// — one generated from a non-degenerate query of nesting depth at most 3 —
// there is exactly one logic tree that maps to it.
//
// Recovery works on the ∄-form diagrams the paper's Appendix B proof
// covers (every non-root table group carries a dashed box); a simplified
// (∀) diagram is handled by de-simplifying its logic tree first, see
// logictree.Unsimplify.
//
// The recovery engine is a complete search over rooted trees on the
// diagram's table groups. It follows the arrows: a partial tree is
// extended only while the arrow rules, the depth bound
// (logictree.MaxSupportedDepth) and Property 5.2 still hold for it, and
// Recover stops as soon as a second valid tree survives. The arrows fix
// most parents before the search begins, so a non-degenerate diagram
// costs about one search node per table group; a constant node bound
// backstops degenerate input (see solve). This subsumes the paper's
// case analysis — the depth-0/1/2 decompositions of Appendix B.2 are
// exposed separately (DecomposeAtRoot) and the exhaustive path-pattern
// enumeration of Appendix B.1 is implemented in patterns.go.
package inverse

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/logictree"
	"repro/internal/sqlparse"
	"repro/internal/trc"
)

// AmbiguityError reports that a diagram admitted zero or several logic
// trees. Recover stops at the second tree, so Solutions is 0 or 2.
type AmbiguityError struct {
	Solutions int
}

func (e *AmbiguityError) Error() string {
	if e.Solutions == 0 {
		return "diagram admits no consistent logic tree"
	}
	return fmt.Sprintf("diagram is ambiguous: at least %d consistent logic trees", e.Solutions)
}

// maxSearchNodes bounds the search when callers pass budget 0. The
// pruned search visits about one node per table group on every
// non-degenerate diagram, so the bound only ever stops degenerate input;
// its value comes from the adversarial sweep in EXPERIMENTS.md ("Verify
// by following the arrows").
const maxSearchNodes = 2048

// BudgetError reports that the search was stopped after spending its
// node budget without completing. It is a resource verdict, not a
// correctness one: the diagram may well be unambiguous, but proving it
// was too expensive under the given budget.
type BudgetError struct {
	Nodes  int // search nodes visited before stopping
	Budget int // the budget that was exhausted
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("inverse search budget exhausted: %d nodes visited (budget %d)", e.Nodes, e.Budget)
}

// graph is the group-level view of a diagram used during recovery.
type graph struct {
	d      *core.Diagram
	groups [][]int     // group index -> table IDs; groups[0] is the root
	boxOf  []trc.Quant // quantifier per group (root: ∃)
	gOf    []int       // table ID -> group index
	// directed cross-group edges, as (fromGroup, toGroup) pairs with the
	// originating diagram edge.
	edges []groupEdge
}

type groupEdge struct {
	from, to int // group indices
	e        core.Edge
}

// buildGraph extracts groups and cross-group arrows from a diagram. It
// fails when the diagram is not in ∄ form.
func buildGraph(d *core.Diagram) (*graph, error) {
	g := &graph{
		d:      d,
		groups: make([][]int, 0, len(d.Boxes)+1),
		boxOf:  make([]trc.Quant, 0, len(d.Boxes)+1),
		gOf:    make([]int, len(d.Tables)),
	}

	// The root group: unboxed tables. Everything else must sit in a ∄ box.
	root := make([]int, 0, len(d.Tables)-1)
	for _, t := range d.Tables[1:] {
		if d.BoxOf(t.ID) == nil {
			root = append(root, t.ID)
		}
	}
	if len(root) == 0 {
		return nil, fmt.Errorf("diagram has no unboxed root tables")
	}
	g.groups = append(g.groups, root)
	g.boxOf = append(g.boxOf, trc.Exists)
	for _, id := range root {
		g.gOf[id] = 0
	}
	for _, b := range d.Boxes {
		if b.Quant == trc.ForAll {
			return nil, fmt.Errorf("diagram is in ∀ form; recovery is defined for ∄-form diagrams (de-simplify first)")
		}
		idx := len(g.groups)
		g.groups = append(g.groups, b.Tables)
		g.boxOf = append(g.boxOf, b.Quant)
		for _, id := range b.Tables {
			g.gOf[id] = idx
		}
	}
	cross := 0
	for _, e := range d.Edges {
		if e.Kind != core.EdgeSelect && g.gOf[e.From.Table] != g.gOf[e.To.Table] {
			cross++
		}
	}
	g.edges = make([]groupEdge, 0, cross)
	for _, e := range d.Edges {
		if e.Kind == core.EdgeSelect {
			continue
		}
		gf, gt := g.gOf[e.From.Table], g.gOf[e.To.Table]
		if gf == gt {
			continue
		}
		if !e.Directed {
			return nil, fmt.Errorf("undirected edge between distinct groups %d and %d", gf, gt)
		}
		g.edges = append(g.edges, groupEdge{from: gf, to: gt, e: e})
	}
	return g, nil
}

// ltFromAssignment materializes the logic tree implied by a parent
// assignment whose group depths consistent computed.
func (g *graph) ltFromAssignment(parent, depth []int) *logictree.LT {
	n := len(g.groups)
	nodes := make([]*logictree.Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = &logictree.Node{Quant: g.boxOf[i]}
		for _, id := range g.groups[i] {
			t := g.d.Table(id)
			v := t.Var
			if v == "" {
				v = fmt.Sprintf("T%d", id)
			}
			nodes[i].Tables = append(nodes[i].Tables, logictree.Table{
				Var: v, Relation: t.Name,
			})
		}
	}
	for i := 1; i < n; i++ {
		nodes[parent[i]].Children = append(nodes[parent[i]].Children, nodes[i])
	}

	varOf := func(id int, row int) trc.Attr {
		t := g.d.Table(id)
		v := t.Var
		if v == "" {
			v = fmt.Sprintf("T%d", id)
		}
		return trc.Attr{Var: v, Column: t.Rows[row].Attr}
	}

	// Join predicates: each cross-group edge belongs to the deeper group's
	// node; same-group edges belong to their own node.
	for _, e := range g.d.Edges {
		if e.Kind == core.EdgeSelect {
			continue
		}
		gf, gt := g.gOf[e.From.Table], g.gOf[e.To.Table]
		la := varOf(e.From.Table, e.From.Row)
		ra := varOf(e.To.Table, e.To.Row)
		p := trc.Pred{
			Left:  trc.Term{Attr: &la},
			Op:    e.Op,
			Right: trc.Term{Attr: &ra, Offset: e.Offset},
		}
		owner := gf
		if depth[gt] > depth[gf] {
			owner = gt
		}
		nodes[owner].Preds = append(nodes[owner].Preds, p)
	}
	// Selection rows.
	for _, t := range g.d.Tables[1:] {
		for _, r := range t.Rows {
			if r.Kind != core.RowSelection {
				continue
			}
			v := t.Var
			if v == "" {
				v = fmt.Sprintf("T%d", t.ID)
			}
			a := trc.Attr{Var: v, Column: r.Attr}
			c := parseConst(r.Value)
			nodes[g.gOf[t.ID]].Preds = append(nodes[g.gOf[t.ID]].Preds, trc.Pred{
				Left:  trc.Term{Attr: &a, Offset: r.Offset},
				Op:    r.Op,
				Right: trc.Term{Const: &c},
			})
		}
	}

	lt := &logictree.LT{Root: nodes[0]}
	// SELECT box rows and edges.
	sel := g.d.Table(core.SelectBoxID)
	targets := map[int]core.EdgeEnd{} // select row -> target end
	for _, e := range g.d.Edges {
		if e.Kind == core.EdgeSelect {
			targets[e.From.Row] = e.To
		}
	}
	for i, r := range sel.Rows {
		item := trc.SelectItem{Agg: r.Agg, Star: r.Star}
		if end, ok := targets[i]; ok {
			item.Attr = varOf(end.Table, end.Row)
			item.Attr.Column = r.Attr
		}
		lt.Select = append(lt.Select, item)
	}
	for _, t := range g.d.Tables[1:] {
		for ri, r := range t.Rows {
			if r.Kind == core.RowGroupBy {
				lt.GroupBy = append(lt.GroupBy, varOf(t.ID, ri))
			}
		}
	}
	return lt
}

// parseConst re-parses a rendered constant from a selection row.
func parseConst(s string) sqlparse.Constant {
	if len(s) >= 2 && s[0] == '\'' && s[len(s)-1] == '\'' {
		body := s[1 : len(s)-1]
		out := make([]byte, 0, len(body))
		for i := 0; i < len(body); i++ {
			out = append(out, body[i])
			if body[i] == '\'' && i+1 < len(body) && body[i+1] == '\'' {
				i++
			}
		}
		return sqlparse.StringConst(string(out))
	}
	var f float64
	if _, err := fmt.Sscanf(s, "%g", &f); err == nil {
		c := sqlparse.NumberConst(f)
		c.Raw = s
		return c
	}
	return sqlparse.StringConst(s)
}

// Solutions returns every logic tree consistent with the diagram that is
// also a valid non-degenerate tree. Valid diagrams have exactly one. The
// search is complete and unbounded.
func Solutions(d *core.Diagram) ([]*logictree.LT, error) {
	sols, _, err := solve(context.Background(), d, true, 0, 0)
	return sols, err
}

// SolutionsRelaxed is Solutions without the non-degeneracy filter
// (Properties 5.1/5.2): candidate trees only have to satisfy the arrow
// rules and the depth bound. It exists to demonstrate the paper's
// Section 5 point that the SQL fragment *can* produce ambiguous diagrams
// — degenerate queries may admit several relaxed solutions — so the
// non-degeneracy properties are what buy unambiguity.
func SolutionsRelaxed(d *core.Diagram) ([]*logictree.LT, error) {
	sols, _, err := solve(context.Background(), d, false, 0, 0)
	return sols, err
}

// Recover returns the unique logic tree for a valid diagram, or an
// AmbiguityError when the diagram admits zero or several. It is
// unbounded; the serving path uses RecoverContextStats.
func Recover(d *core.Diagram) (*logictree.LT, error) {
	lt, _, err := RecoverContextStats(context.Background(), d, -1)
	return lt, err
}

// RecoverContextStats is Recover under a context and a search-node budget
// (0 selects maxSearchNodes, negative disables the bound), additionally
// reporting how many search nodes were visited — the budget actually
// spent, whether or not the search completed. A search stopped by the
// budget returns a *BudgetError, and one stopped by the context returns
// the context's error — both distinct from the *AmbiguityError a
// completed search may report. The search stops at the second tree it
// finds, so an ambiguous diagram reports Solutions == 2.
func RecoverContextStats(ctx context.Context, d *core.Diagram, budget int) (*logictree.LT, int, error) {
	if budget == 0 {
		budget = maxSearchNodes
	}
	sols, nodes, err := solve(ctx, d, true, budget, 2)
	if err != nil {
		return nil, nodes, err
	}
	if len(sols) != 1 {
		return nil, nodes, &AmbiguityError{Solutions: len(sols)}
	}
	return sols[0], nodes, nil
}

// The search gives each non-root group a parent, extending a partial
// assignment only while the arrow rules, the depth bound and Property
// 5.2 hold (DESIGN.md §5). The assigned groups form a forest of
// components, each hanging from a top group with no parent yet; depths
// below the top and ancestry are fixed within one, so each arrow is
// checked once, when its two ends join one component.

// errEnough stops the search once it has found as many trees as asked.
var errEnough = errors.New("inverse: enough solutions")

// solver is one search's state. The per-group lists share backing
// arrays and the assigned children hang off their parent as a linked
// list, so a search allocates a handful of times besides its trees.
type solver struct {
	g      *graph
	ctx    context.Context
	budget int // <= 0: unbounded
	nodes  int
	// validate keeps only non-degenerate trees; limit > 0 stops the
	// search after that many of them.
	validate bool
	limit    int
	n        int
	adj      []bool  // adj[u*n+v]: an arrow u → v
	out, in  [][]int // arrow targets and sources per group
	dom      [][]int // candidate parents per group
	parent   []int   // -1: no parent yet (always for the root)
	top      []int   // the top of each group's component
	rdep     []int   // depth below the component's top
	kid, sib []int   // first assigned child and next sibling, -1: none
	sub      []int   // scratch stack of subtrees being joined
	found    []keyed
}

// keyed is a tree found, with its canonical key once a second one
// turns up (a lone tree needs no order).
type keyed struct {
	key string
	lt  *logictree.LT
}

// solve runs the search over d's table groups and returns the trees it
// found, ordered by canonical key, and the nodes it visited.
func solve(ctx context.Context, d *core.Diagram, validate bool, budget, limit int) ([]*logictree.LT, int, error) {
	g, err := buildGraph(d)
	if err != nil {
		return nil, 0, err
	}
	s := solver{ctx: ctx, budget: budget}
	s.init(g, validate, limit)
	if err := s.rec(); err != nil && err != errEnough {
		return nil, s.nodes, err
	}
	slices.SortFunc(s.found, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	out := make([]*logictree.LT, len(s.found))
	for i, f := range s.found {
		out[i] = f.lt
	}
	return out, s.nodes, nil
}

// init derives the arrows and every group's candidate parents.
func (s *solver) init(g *graph, validate bool, limit int) {
	n := len(g.groups)
	s.g, s.validate, s.limit, s.n = g, validate, limit, n
	s.adj = make([]bool, n*n)
	for _, e := range g.edges {
		s.adj[e.from*n+e.to] = true
	}
	ints := make([]int, 8*n+2*len(g.edges))
	s.parent, s.top, s.rdep, s.kid, s.sib = ints[:n], ints[n:2*n], ints[2*n:3*n], ints[3*n:4*n], ints[4*n:5*n]
	s.sub = ints[5*n : 5*n : 6*n] // a join or split stacks at most every group
	lists := make([][]int, 3*n)
	s.out, s.in, s.dom = lists[:n], lists[n:2*n], lists[2*n:]
	arrows := ints[6*n : 6*n : 6*n+2*len(g.edges)]
	for u := 0; u < n; u++ {
		start := len(arrows)
		for v := 0; v < n; v++ {
			if s.adj[u*n+v] {
				arrows = append(arrows, v)
			}
		}
		s.out[u], start = arrows[start:len(arrows):len(arrows)], len(arrows)
		for v := 0; v < n; v++ {
			if s.adj[v*n+u] {
				arrows = append(arrows, v)
			}
		}
		s.in[u] = arrows[start:len(arrows):len(arrows)]
	}
	// Slices taken before doms outgrows ints keep the old array's values.
	doms := ints[len(ints)-2*n : len(ints)-2*n]
	for i := range s.parent {
		s.parent[i], s.top[i], s.kid[i], s.sib[i] = -1, i, -1, -1
		start := len(doms)
		for p := 0; i > 0 && p < n; p++ {
			if s.candidate(i, p) {
				doms = append(doms, p)
			}
		}
		s.dom[i] = doms[start:len(doms):len(doms)]
	}
}

// candidate reports whether the arrow rules, and with validate Property
// 5.2, let p be i's parent whatever the rest of the tree.
func (s *solver) candidate(i, p int) bool {
	if p == i || s.adj[i*s.n+p] {
		return false // never the target of one of i's own arrows
	}
	for _, u := range s.in[i] {
		if p != u && p != 0 {
			return false
		}
	}
	if !s.validate || s.adj[p*s.n+i] {
		return true
	}
	// The second arm: every child of i points back at p.
	kids := false
	for _, c := range s.out[i] {
		if c != 0 {
			if !s.adj[c*s.n+p] {
				return false
			}
			kids = true
		}
	}
	return kids
}

// rec visits one search node: it places the group with the fewest
// candidates left under each of them in turn, or records a complete
// assignment.
func (s *solver) rec() error {
	if s.nodes++; s.budget > 0 && s.nodes > s.budget {
		return &BudgetError{Nodes: s.nodes, Budget: s.budget}
	}
	if s.nodes&255 == 1 { // the first node, then every 256th
		if err := s.ctx.Err(); err != nil {
			return err
		}
	}
	i, least := -1, 0
	for j := 1; j < s.n; j++ {
		if s.parent[j] >= 0 {
			continue
		}
		left := 0
		for _, p := range s.dom[j] {
			if s.top[p] != j {
				left++
			}
		}
		if left == 0 {
			return nil
		}
		if i < 0 || left < least {
			i, least = j, left
		}
	}
	if i < 0 {
		return s.leaf()
	}
	for _, p := range s.dom[i] {
		if !s.join(i, p) {
			continue
		}
		err := s.rec()
		s.split(i)
		if err != nil {
			return err
		}
	}
	return nil
}

// subtree pushes the groups of the component topped by i onto s.sub and
// returns them.
func (s *solver) subtree(i int) []int {
	base := len(s.sub)
	s.sub = append(s.sub, i)
	for k := base; k < len(s.sub); k++ {
		for c := s.kid[s.sub[k]]; c >= 0; c = s.sib[c] {
			s.sub = append(s.sub, c)
		}
	}
	return s.sub[base:]
}

// join makes p the parent of the top group i when the merged component
// keeps the depth bound, every arrow between the two joined parts and
// (with validate) Property 5.2 as far as decided; otherwise it changes
// nothing and reports false.
func (s *solver) join(i, p int) bool {
	t := s.top[p]
	if t == i {
		return false // p is below i: a cycle
	}
	sub := s.subtree(i)
	defer func() { s.sub = s.sub[:len(s.sub)-len(sub)] }()
	shift := s.rdep[p] + 1
	bound := logictree.MaxSupportedDepth
	if t != 0 {
		bound-- // the component's top ends at depth 1 or below
	}
	for _, x := range sub {
		if s.rdep[x]+shift > bound {
			return false
		}
	}
	s.parent[i] = p
	s.sib[i], s.kid[p] = s.kid[p], i
	for _, x := range sub {
		s.rdep[x] += shift
	}
	ok := !s.validate || s.connected(i, p)
	for _, x := range sub {
		for _, y := range s.out[x] {
			ok = ok && (s.top[y] != t || s.holds(x, y))
		}
		for _, y := range s.in[x] {
			ok = ok && (s.top[y] != t || s.holds(y, x))
		}
	}
	for _, x := range sub {
		s.top[x] = t
	}
	if !ok {
		s.split(i)
	}
	return ok
}

// split undoes the join that gave i its parent: i becomes the top of its
// own component again.
func (s *solver) split(i int) {
	p := s.parent[i]
	s.parent[i] = -1
	s.kid[p], s.sib[i] = s.sib[i], -1
	sub := s.subtree(i)
	shift := s.rdep[i]
	for _, x := range sub {
		s.rdep[x] -= shift
		s.top[x] = i
	}
	s.sub = s.sub[:len(s.sub)-len(sub)]
}

// holds checks the arrow rule for u → v, two groups of one component:
// v is u's child, or v is an ancestor of u at least two levels up.
func (s *solver) holds(u, v int) bool {
	du, dv := s.rdep[u], s.rdep[v]
	switch {
	case dv == du+1:
		return s.parent[v] == u
	case du >= dv+2:
		for ; du > dv; du-- {
			u = s.parent[u]
		}
		return u == v
	}
	return false
}

// connected checks Property 5.2 as far as placing i under p decides it.
// A block whose parent draws no arrow into it uses the second arm, so
// its children must be exactly its non-root arrow targets: it may not
// take a child it draws no arrow to, and each such target must end up
// its child.
func (s *solver) connected(i, p int) bool {
	if s.secondArm(i) {
		for c := s.kid[i]; c >= 0; c = s.sib[c] {
			if !s.adj[i*s.n+c] {
				return false
			}
		}
		for _, c := range s.out[i] {
			if c != 0 && s.parent[c] >= 0 && s.parent[c] != i {
				return false
			}
		}
	}
	if s.secondArm(p) && !s.adj[p*s.n+i] {
		return false
	}
	for _, u := range s.in[i] {
		if u != p && s.secondArm(u) {
			return false
		}
	}
	return true
}

// secondArm reports whether group i has a parent that draws no arrow
// into it.
func (s *solver) secondArm(i int) bool {
	return s.parent[i] >= 0 && !s.adj[s.parent[i]*s.n+i]
}

// leaf records a complete assignment as a tree when it passes the
// non-degeneracy filter, and stops the search once it has enough.
func (s *solver) leaf() error {
	lt := s.g.ltFromAssignment(s.parent, s.rdep)
	if s.validate && lt.Validate() != nil {
		return nil
	}
	s.found = append(s.found, keyed{lt: lt})
	if k := len(s.found); k > 1 {
		s.found[0].key = s.found[0].lt.Canonical()
		s.found[k-1].key = lt.Canonical()
	}
	if s.limit > 0 && len(s.found) >= s.limit {
		return errEnough
	}
	return nil
}

// DecomposeAtRoot implements the depth-0 decomposition of Appendix B.2.1:
// it removes the root group, splits the remainder into connected
// components, and returns the table-ID sets of each component with the
// root tables re-attached — each corresponds to one subtree of the LT
// root.
func DecomposeAtRoot(d *core.Diagram) ([][]int, error) {
	g, err := buildGraph(d)
	if err != nil {
		return nil, err
	}
	n := len(g.groups)
	// Union-find over non-root groups, joined by cross-group edges that
	// avoid the root.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for _, e := range g.edges {
		if e.from != 0 && e.to != 0 {
			union(e.from, e.to)
		}
	}
	comps := map[int][]int{}
	var order []int
	for i := 1; i < n; i++ {
		r := find(i)
		if _, ok := comps[r]; !ok {
			order = append(order, r)
		}
		comps[r] = append(comps[r], i)
	}
	var out [][]int
	for _, r := range order {
		ids := append([]int(nil), g.groups[0]...)
		for _, gi := range comps[r] {
			ids = append(ids, g.groups[gi]...)
		}
		sort.Ints(ids)
		out = append(out, ids)
	}
	return out, nil
}
