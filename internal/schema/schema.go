// Package schema defines relational schemas and name resolution for the
// SQL fragment supported by QueryVis.
//
// A Schema is a set of tables, each with an ordered list of columns. The
// resolver maps the table aliases and (possibly unqualified) column
// references of a parsed query onto schema tables, which every later stage
// of the pipeline (TRC, logic tree, diagram) relies on.
package schema

import (
	"fmt"
	"sort"
	"strings"
)

// Table describes one relation: its name and ordered column names.
type Table struct {
	Name    string
	Columns []string
}

// HasColumn reports whether the table has a column with the given name
// (case-insensitive, as in SQL).
func (t *Table) HasColumn(name string) bool {
	for _, c := range t.Columns {
		if strings.EqualFold(c, name) {
			return true
		}
	}
	return false
}

// Column returns the canonical (schema-cased) name of the column, or an
// error if the table has no such column.
func (t *Table) Column(name string) (string, error) {
	for _, c := range t.Columns {
		if strings.EqualFold(c, name) {
			return c, nil
		}
	}
	return "", fmt.Errorf("table %s has no column %q", t.Name, name)
}

// Schema is a named collection of tables.
type Schema struct {
	Name   string
	tables map[string]*Table // lower-cased name -> table
	order  []string          // insertion order of lower-cased names
	text   string            // String's rendering, kept current by AddTable
}

// New creates an empty schema with the given name.
func New(name string) *Schema {
	return &Schema{Name: name, tables: make(map[string]*Table)}
}

// AddTable adds a table to the schema. It panics if a table with the same
// (case-insensitive) name already exists: schemas are static program data,
// and a duplicate is a programming error.
func (s *Schema) AddTable(name string, columns ...string) *Table {
	key := strings.ToLower(name)
	if _, ok := s.tables[key]; ok {
		panic(fmt.Sprintf("schema %s: duplicate table %q", s.Name, name))
	}
	t := &Table{Name: name, Columns: append([]string(nil), columns...)}
	s.tables[key] = t
	s.order = append(s.order, key)
	if s.text != "" {
		s.text += "\n"
	}
	s.text += fmt.Sprintf("%s (%s)", t.Name, strings.Join(t.Columns, ", "))
	return t
}

// Table looks up a table by case-insensitive name.
func (s *Schema) Table(name string) (*Table, bool) {
	// An ASCII name up to 64 bytes is lowered on the stack; the map index
	// with a converted byte slice does not allocate.
	var buf [64]byte
	if len(name) > len(buf) {
		t, ok := s.tables[strings.ToLower(name)]
		return t, ok
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 0x80 {
			t, ok := s.tables[strings.ToLower(name)]
			return t, ok
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf[i] = c
	}
	t, ok := s.tables[string(buf[:len(name)])]
	return t, ok
}

// Tables returns all tables in insertion order.
func (s *Schema) Tables() []*Table {
	out := make([]*Table, 0, len(s.order))
	for _, k := range s.order {
		out = append(out, s.tables[k])
	}
	return out
}

// TableNames returns the canonical table names, sorted alphabetically.
func (s *Schema) TableNames() []string {
	out := make([]string, 0, len(s.order))
	for _, k := range s.order {
		out = append(out, s.tables[k].Name)
	}
	sort.Strings(out)
	return out
}

// String renders the schema in the compact form used in the paper, e.g.
//
//	Sailor (sid, sname, rating, age)
//	Reserves (sid, bid, day)
//
// The rendering is built as tables are added, so String does not
// allocate: the library's diagram cache keys every call on it.
func (s *Schema) String() string { return s.text }
