package sqlparse

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/schema"
)

// Binding associates one FROM-clause table alias with its schema table
// and the query block that introduced it.
type Binding struct {
	Alias string        // name predicates use (alias, or table name if no alias)
	Table *schema.Table // resolved schema table
	Block *Query        // query block whose FROM clause defines the alias
	Depth int           // nesting depth of Block (root = 0)
}

// Resolution is the result of resolving a query against a schema. It
// records, for every query block, its bindings, depth, and parent block.
// Resolve also rewrites the AST in place so that every column reference is
// alias-qualified with schema-canonical column casing.
type Resolution struct {
	Schema  *schema.Schema
	Root    *Query
	Blocks  map[*Query][]*Binding
	Depth   map[*Query]int
	Parent  map[*Query]*Query
	byAlias map[*Query]*scope // visible scope at each block
	ctx     context.Context   // cancellation during resolution
}

// scope is the aliases visible in one query block: the block's own
// bindings, then its enclosing block's scope. Inner aliases shadow outer
// ones; alias names compare case-insensitively.
type scope struct {
	local []*Binding
	outer *scope
	// byName indexes local by lowered alias once the block has more
	// than wideScope tables, so a wide FROM clause costs each lookup
	// one map probe instead of a scan.
	byName map[string]*Binding

	// visible is the enclosing blocks' bindings that no nearer alias
	// shadows; built on the first unqualified column with no local match.
	visible      []*Binding
	visibleBuilt bool
}

// wideScope is the FROM-clause width above which a block indexes its
// aliases in a map; narrower blocks scan, which allocates nothing.
const wideScope = 8

// add appends a binding to the block, reporting false if its alias
// repeats one the block already has.
func (sc *scope) add(b *Binding) bool {
	if _, dup := sc.localLookup(b.Alias); dup {
		return false
	}
	sc.local = append(sc.local, b)
	if sc.byName != nil {
		sc.byName[strings.ToLower(b.Alias)] = b
	}
	return true
}

// localLookup returns the block's own binding for an alias.
func (sc *scope) localLookup(alias string) (*Binding, bool) {
	if sc.byName != nil {
		b, ok := sc.byName[strings.ToLower(alias)]
		return b, ok
	}
	for _, b := range sc.local {
		if sameName(b.Alias, alias) {
			return b, true
		}
	}
	return nil, false
}

// lookup returns the innermost binding for an alias.
func (sc *scope) lookup(alias string) (*Binding, bool) {
	for ; sc != nil; sc = sc.outer {
		if b, ok := sc.localLookup(alias); ok {
			return b, true
		}
	}
	return nil, false
}

// visibleOuter returns the enclosing blocks' unshadowed bindings: the
// enclosing block's own and its visible outer ones, less those this
// block's aliases shadow. Each scope builds the list once.
func (sc *scope) visibleOuter() []*Binding {
	if !sc.visibleBuilt && sc.outer != nil {
		sc.visibleBuilt = true
		for _, list := range [][]*Binding{sc.outer.local, sc.outer.visibleOuter()} {
			for _, b := range list {
				if _, shadowed := sc.localLookup(b.Alias); !shadowed {
					sc.visible = append(sc.visible, b)
				}
			}
		}
	}
	return sc.visible
}

// sameName reports whether two names are equal under strings.ToLower,
// without lowering (and allocating) when both are ASCII.
func sameName(a, b string) bool {
	if isASCII(a) && isASCII(b) {
		return strings.EqualFold(a, b)
	}
	return strings.ToLower(a) == strings.ToLower(b)
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// Binding returns the binding visible at the given block for an alias.
func (r *Resolution) Binding(block *Query, alias string) (*Binding, bool) {
	return r.byAlias[block].lookup(alias)
}

// AllBindings returns every binding in the query, outermost block first.
func (r *Resolution) AllBindings() []*Binding {
	var out []*Binding
	var walk func(q *Query)
	walk = func(q *Query) {
		out = append(out, r.Blocks[q]...)
		for _, s := range q.Subqueries() {
			walk(s)
		}
	}
	walk(r.Root)
	return out
}

// Resolve binds the query's table references and column references to the
// schema. On success the AST has been rewritten so that every ColumnRef
// carries the alias of its table and the schema-canonical column name.
func Resolve(q *Query, s *schema.Schema) (*Resolution, error) {
	return ResolveContext(context.Background(), q, s)
}

// ResolveContext is Resolve with cooperative cancellation: each query
// block checks ctx before resolving, so deeply nested or very wide
// queries stop promptly once the context is done.
func ResolveContext(ctx context.Context, q *Query, s *schema.Schema) (*Resolution, error) {
	r := &Resolution{
		Schema:  s,
		Root:    q,
		Blocks:  make(map[*Query][]*Binding),
		Depth:   make(map[*Query]int),
		Parent:  make(map[*Query]*Query),
		byAlias: make(map[*Query]*scope),
		ctx:     ctx,
	}
	if err := r.resolveBlock(q, nil, 0, nil); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *Resolution) resolveBlock(q *Query, parent *Query, depth int, outer *scope) error {
	if err := r.ctx.Err(); err != nil {
		return err
	}
	if len(q.From) == 0 {
		return fmt.Errorf("query block at depth %d has an empty FROM clause", depth)
	}
	r.Depth[q] = depth
	if parent != nil {
		r.Parent[q] = parent
	}

	bindings := make([]Binding, len(q.From))
	sc := &scope{local: make([]*Binding, 0, len(q.From)), outer: outer}
	if len(q.From) > wideScope {
		sc.byName = make(map[string]*Binding, len(q.From))
	}
	for i := range q.From {
		ref := &q.From[i]
		tbl, ok := r.Schema.Table(ref.Table)
		if !ok {
			return fmt.Errorf("unknown table %q (schema %s)", ref.Table, r.Schema.Name)
		}
		ref.Table = tbl.Name // canonicalize casing
		name := ref.Name()
		bindings[i] = Binding{Alias: name, Table: tbl, Block: q, Depth: depth}
		if !sc.add(&bindings[i]) {
			return fmt.Errorf("duplicate table alias %q in one FROM clause", name)
		}
	}
	r.Blocks[q] = sc.local
	r.byAlias[q] = sc

	resolveCol := func(c *ColumnRef) error {
		if c.Table != "" {
			b, ok := sc.lookup(c.Table)
			if !ok {
				return fmt.Errorf("unknown table alias %q", c.Table)
			}
			col, err := b.Table.Column(c.Column)
			if err != nil {
				return err
			}
			c.Table = b.Alias
			c.Column = col
			return nil
		}
		// Unqualified: prefer a unique match among local bindings, then
		// a unique match in the whole visible scope.
		var found *Binding
		n := 0
		for _, b := range sc.local {
			if b.Table.HasColumn(c.Column) {
				found = b
				n++
			}
		}
		if n == 0 {
			for _, b := range sc.visibleOuter() {
				if b.Table.HasColumn(c.Column) {
					found = b
					if n++; n > 1 {
						break // ambiguous however many more match
					}
				}
			}
		}
		switch {
		case n == 0:
			return fmt.Errorf("column %q not found in any table in scope", c.Column)
		case n > 1:
			return fmt.Errorf("ambiguous column %q: qualify it with a table alias", c.Column)
		}
		col, err := found.Table.Column(c.Column)
		if err != nil {
			return err
		}
		c.Table = found.Alias
		c.Column = col
		return nil
	}
	resolveOperand := func(o *Operand) error {
		if o.Col != nil {
			return resolveCol(o.Col)
		}
		return nil
	}

	for i := range q.Select {
		if q.Select[i].Star {
			continue
		}
		if err := resolveCol(&q.Select[i].Col); err != nil {
			return fmt.Errorf("select list: %w", err)
		}
	}
	for i := range q.GroupBy {
		if err := resolveCol(&q.GroupBy[i]); err != nil {
			return fmt.Errorf("GROUP BY: %w", err)
		}
	}
	for _, p := range q.Where {
		switch p := p.(type) {
		case *Compare:
			if err := resolveOperand(&p.Left); err != nil {
				return err
			}
			if err := resolveOperand(&p.Right); err != nil {
				return err
			}
		case *Exists:
			if err := r.resolveBlock(p.Sub, q, depth+1, sc); err != nil {
				return err
			}
		case *In:
			if err := resolveCol(&p.Col); err != nil {
				return err
			}
			if err := r.resolveBlock(p.Sub, q, depth+1, sc); err != nil {
				return err
			}
			if err := checkSingleColumnSub(p.Sub); err != nil {
				return fmt.Errorf("IN subquery: %w", err)
			}
		case *Quantified:
			if err := resolveCol(&p.Col); err != nil {
				return err
			}
			if err := r.resolveBlock(p.Sub, q, depth+1, sc); err != nil {
				return err
			}
			if err := checkSingleColumnSub(p.Sub); err != nil {
				return fmt.Errorf("quantified subquery: %w", err)
			}
		}
	}
	return nil
}

// checkSingleColumnSub verifies that a membership/quantified subquery
// selects exactly one plain column, which the desugaring into EXISTS form
// requires.
func checkSingleColumnSub(q *Query) error {
	if q.Star {
		return fmt.Errorf("subquery must select a single column, not *")
	}
	if len(q.Select) != 1 {
		return fmt.Errorf("subquery must select exactly one column, got %d", len(q.Select))
	}
	if q.Select[0].Agg != AggNone {
		return fmt.Errorf("subquery select list must not use aggregates")
	}
	return nil
}
