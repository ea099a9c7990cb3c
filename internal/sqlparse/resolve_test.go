package sqlparse

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/schema"
)

func mustResolve(t *testing.T, src string, s *schema.Schema) (*Query, *Resolution) {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	r, err := Resolve(q, s)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	return q, r
}

func TestResolveQualifiesColumns(t *testing.T) {
	q, _ := mustResolve(t, "SELECT drinker FROM Likes", schema.Beers())
	if got := q.Select[0].Col.String(); got != "Likes.drinker" {
		t.Errorf("select column = %q, want Likes.drinker", got)
	}
}

func TestResolveCanonicalizesCase(t *testing.T) {
	q, _ := mustResolve(t,
		"SELECT t.trackid FROM track t WHERE t.unitprice > 2", schema.Chinook())
	if q.From[0].Table != "Track" {
		t.Errorf("table name = %q, want Track", q.From[0].Table)
	}
	if got := q.Select[0].Col.Column; got != "TrackId" {
		t.Errorf("column = %q, want TrackId", got)
	}
	cmp := q.Where[0].(*Compare)
	if cmp.Left.Col.Column != "UnitPrice" {
		t.Errorf("predicate column = %q, want UnitPrice", cmp.Left.Col.Column)
	}
}

func TestResolveDepthsAndParents(t *testing.T) {
	q, r := mustResolve(t, uniqueSetSQL, schema.Beers())
	if r.Depth[q] != 0 {
		t.Errorf("root depth = %d, want 0", r.Depth[q])
	}
	l2 := q.Subqueries()[0]
	if r.Depth[l2] != 1 || r.Parent[l2] != q {
		t.Errorf("L2 block: depth=%d parent ok=%v", r.Depth[l2], r.Parent[l2] == q)
	}
	for _, s := range l2.Subqueries() {
		if r.Depth[s] != 2 || r.Parent[s] != l2 {
			t.Errorf("depth-2 block: depth=%d", r.Depth[s])
		}
		inner := s.Subqueries()[0]
		if r.Depth[inner] != 3 || r.Parent[inner] != s {
			t.Errorf("depth-3 block: depth=%d", r.Depth[inner])
		}
	}
	if n := len(r.AllBindings()); n != 6 {
		t.Errorf("got %d bindings, want 6 (L1..L6)", n)
	}
}

func TestResolveCorrelatedReference(t *testing.T) {
	// Inner block references the outer alias F: must resolve via scope chain.
	q, r := mustResolve(t, `
		SELECT F.person FROM Frequents F
		WHERE NOT EXISTS (SELECT * FROM Serves S WHERE S.bar = F.bar)`,
		schema.Beers())
	inner := q.Subqueries()[0]
	b, ok := r.Binding(inner, "F")
	if !ok || b.Depth != 0 || b.Table.Name != "Frequents" {
		t.Fatalf("binding for F at inner block = %+v, ok=%v", b, ok)
	}
	if _, ok := r.Binding(q, "S"); ok {
		t.Error("inner alias S must not be visible at the root block")
	}
}

func TestResolveShadowing(t *testing.T) {
	// The same alias name at different depths: the inner use must bind to
	// the inner table.
	q, r := mustResolve(t, `
		SELECT X.drinker FROM Likes X
		WHERE NOT EXISTS (SELECT * FROM Serves X WHERE X.bar = 'Owl')`,
		schema.Beers())
	inner := q.Subqueries()[0]
	b, _ := r.Binding(inner, "X")
	if b.Table.Name != "Serves" {
		t.Errorf("inner X bound to %s, want Serves", b.Table.Name)
	}
	outer, _ := r.Binding(q, "X")
	if outer.Table.Name != "Likes" {
		t.Errorf("outer X bound to %s, want Likes", outer.Table.Name)
	}
}

func TestResolveErrors(t *testing.T) {
	cases := []struct {
		src, want string
		sch       *schema.Schema
	}{
		{"SELECT x FROM Nope", "unknown table", schema.Beers()},
		{"SELECT Z.drinker FROM Likes L", "unknown table alias", schema.Beers()},
		{"SELECT L.nope FROM Likes L", "no column", schema.Beers()},
		{"SELECT wat FROM Likes L", "not found in any table", schema.Beers()},
		{"SELECT Name FROM Artist A, Genre G", "ambiguous column", schema.Chinook()},
		{"SELECT L.drinker FROM Likes L, Likes L", "duplicate table alias", schema.Beers()},
		{"SELECT L.drinker FROM Likes L, Likes A, Likes B, Likes C, Likes D, Likes E, Likes F, Likes G, Likes l",
			`duplicate table alias "l"`, schema.Beers()},
		{"SELECT L.drinker FROM Likes L, Likes A, Likes B, Likes C, Likes D, Likes E, Likes F, Likes G, Likes H WHERE EXISTS (SELECT * FROM Serves WHERE drinker = 'x')",
			"ambiguous column", schema.Beers()},
	}
	for _, c := range cases {
		q, err := Parse(c.src)
		if err != nil {
			t.Fatalf("%q failed to parse: %v", c.src, err)
		}
		_, err = Resolve(q, c.sch)
		if err == nil {
			t.Errorf("%q: expected error containing %q", c.src, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: error = %q, want substring %q", c.src, err, c.want)
		}
	}
}

func TestResolveUnqualifiedPrefersLocal(t *testing.T) {
	// "bar" exists in both Frequents (outer) and Serves (inner); inside the
	// subquery it must bind to the local Serves.
	q, _ := mustResolve(t, `
		SELECT F.person FROM Frequents F
		WHERE NOT EXISTS (SELECT * FROM Serves S WHERE bar = 'Owl')`,
		schema.Beers())
	inner := q.Subqueries()[0]
	cmp := inner.Where[0].(*Compare)
	if cmp.Left.Col.Table != "S" {
		t.Errorf("unqualified bar bound to %s, want local S", cmp.Left.Col.Table)
	}
}

func TestSchemaBuiltins(t *testing.T) {
	for _, name := range schema.BuiltinNames() {
		s, ok := schema.ByName(name)
		if !ok {
			t.Fatalf("ByName(%q) failed", name)
		}
		if len(s.Tables()) == 0 {
			t.Errorf("schema %s has no tables", name)
		}
		if s.String() == "" {
			t.Errorf("schema %s renders empty", name)
		}
	}
	if _, ok := schema.ByName("nope"); ok {
		t.Error("ByName should reject unknown names")
	}
	ch := schema.Chinook()
	tbl, ok := ch.Table("track")
	if !ok || !tbl.HasColumn("milliseconds") {
		t.Error("case-insensitive table/column lookup failed")
	}
	if len(ch.TableNames()) != 11 {
		t.Errorf("Chinook has %d tables, want 11", len(ch.TableNames()))
	}
}

// TestResolveWideScopeIsLinear resolves column references against
// thousands of aliases. A reference must not cost a scan per visible
// binding: a shadowing scan per outer binding made the first two shapes
// minutes of work for a 40 KB query. The qualified shape goes through a
// wide block's alias index, spelling the alias in another case.
func TestResolveWideScopeIsLinear(t *testing.T) {
	s := schema.New("wide")
	s.AddTable("B", "y")
	s.AddTable("C", "z")
	const width, preds = 2000, 512
	from := func(table string) string {
		items := make([]string, width)
		for i := range items {
			items[i] = fmt.Sprintf("%s t%d", table, i)
		}
		return strings.Join(items, ", ")
	}
	where := strings.Repeat("z = z AND ", preds-1) + "z = z"
	deep := "SELECT c.z FROM " + from("B") + ", C c WHERE "
	for i := 0; i < 200; i++ {
		deep += fmt.Sprintf("EXISTS (SELECT * FROM B n%d WHERE z = z AND ", i)
	}
	deep += "z = z" + strings.Repeat(")", 200)
	for _, c := range []struct{ name, sql, want string }{
		// The inner block has no z; exactly one outer alias has it.
		{"wide_outer", "SELECT c.z FROM " + from("B") + ", C c WHERE EXISTS (SELECT * FROM B b WHERE " + where + ")", "c.z"},
		// Every outer alias but c has z and is shadowed by an inner
		// alias without it.
		{"shadowed_outer", "SELECT c.z FROM " + from("C") + ", C c WHERE EXISTS (SELECT * FROM " + from("B") + " WHERE " + where + ")", "c.z"},
		// Qualified references to the last alias of a wide FROM clause.
		{"qualified", "SELECT T1999.y FROM " + from("B") + " WHERE " + strings.Repeat("T1999.y = t1999.y AND ", preds-1) + "t1999.y = t1999.y", "t1999.y"},
		// Unqualified outer references from 200 nested blocks.
		{"deep", deep, "c.z"},
	} {
		t.Run(c.name, func(t *testing.T) {
			q, err := Parse(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			if _, err := Resolve(q, s); err != nil {
				t.Fatal(err)
			}
			if el := time.Since(start); el > 2*time.Second {
				t.Errorf("resolve took %v for %d aliases", el, width)
			}
			first := q.Where[0]
			if ex, ok := first.(*Exists); ok {
				first = ex.Sub.Where[0]
			}
			if got := first.(*Compare).Left.Col.String(); got != c.want {
				t.Errorf("first predicate's left column resolved to %s, want %s", got, c.want)
			}
		})
	}
}
