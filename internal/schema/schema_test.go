package schema

import (
	"fmt"
	"strings"
	"testing"
)

func TestNewAndAddTable(t *testing.T) {
	s := New("test")
	tbl := s.AddTable("Users", "id", "name")
	if tbl.Name != "Users" || len(tbl.Columns) != 2 {
		t.Errorf("table = %+v", tbl)
	}
	got, ok := s.Table("USERS")
	if !ok || got != tbl {
		t.Error("case-insensitive lookup failed")
	}
	if _, ok := s.Table("nope"); ok {
		t.Error("unknown table lookup should fail")
	}
}

func TestAddTableCopiesColumns(t *testing.T) {
	cols := []string{"a", "b"}
	s := New("x")
	tbl := s.AddTable("T", cols...)
	cols[0] = "mutated"
	if tbl.Columns[0] != "a" {
		t.Error("AddTable must copy its column slice")
	}
}

func TestDuplicateTablePanics(t *testing.T) {
	s := New("x")
	s.AddTable("T", "a")
	defer func() {
		if recover() == nil {
			t.Error("duplicate table should panic")
		}
	}()
	s.AddTable("t", "b") // case-insensitive duplicate
}

func TestTableColumnLookup(t *testing.T) {
	tbl := &Table{Name: "T", Columns: []string{"Alpha", "Beta"}}
	if !tbl.HasColumn("alpha") || tbl.HasColumn("gamma") {
		t.Error("HasColumn broken")
	}
	c, err := tbl.Column("BETA")
	if err != nil || c != "Beta" {
		t.Errorf("Column = %q, %v; want canonical Beta", c, err)
	}
	if _, err := tbl.Column("nope"); err == nil {
		t.Error("unknown column should error")
	}
}

func TestTablesPreserveInsertionOrder(t *testing.T) {
	s := New("x")
	s.AddTable("B", "x")
	s.AddTable("A", "y")
	tables := s.Tables()
	if tables[0].Name != "B" || tables[1].Name != "A" {
		t.Errorf("insertion order lost: %v", tables)
	}
	names := s.TableNames()
	if names[0] != "A" || names[1] != "B" {
		t.Errorf("TableNames should be sorted: %v", names)
	}
}

func TestStringRendersPaperStyle(t *testing.T) {
	s := Sailors()
	out := s.String()
	if !strings.Contains(out, "Sailor (sid, sname, rating, age)") {
		t.Errorf("rendering:\n%s", out)
	}
	if len(strings.Split(out, "\n")) != 3 {
		t.Errorf("expected 3 lines:\n%s", out)
	}
}

// renderReference is String's rendering computed from the tables, as
// String computed it before it kept its result: the library cache keys
// on it, so every built-in schema must render byte-identically.
func renderReference(s *Schema) string {
	var b strings.Builder
	for i, t := range s.Tables() {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%s (%s)", t.Name, strings.Join(t.Columns, ", "))
	}
	return b.String()
}

func TestStringMatchesReference(t *testing.T) {
	for _, name := range BuiltinNames() {
		s, _ := ByName(name)
		if got, want := s.String(), renderReference(s); got != want {
			t.Errorf("%s renders\n%s\nwant\n%s", name, got, want)
		}
	}
	if got := New("empty").String(); got != "" {
		t.Errorf("empty schema renders %q, want \"\"", got)
	}
}

func TestBuiltinShapes(t *testing.T) {
	cases := []struct {
		s      *Schema
		tables int
		check  [2]string // table, column
	}{
		{Beers(), 3, [2]string{"Likes", "beer"}},
		{Chinook(), 11, [2]string{"Track", "Milliseconds"}},
		{Sailors(), 3, [2]string{"Boat", "color"}},
		{Students(), 3, [2]string{"Class", "department"}},
		{Actors(), 3, [2]string{"Movie", "director"}},
	}
	for _, c := range cases {
		if got := len(c.s.Tables()); got != c.tables {
			t.Errorf("%s: %d tables, want %d", c.s.Name, got, c.tables)
		}
		tbl, ok := c.s.Table(c.check[0])
		if !ok || !tbl.HasColumn(c.check[1]) {
			t.Errorf("%s: missing %s.%s", c.s.Name, c.check[0], c.check[1])
		}
	}
	// Independent instances: mutating one Beers() must not leak.
	a, b := Beers(), Beers()
	a.AddTable("Extra", "x")
	if _, ok := b.Table("Extra"); ok {
		t.Error("built-in schemas must be fresh instances")
	}
}
