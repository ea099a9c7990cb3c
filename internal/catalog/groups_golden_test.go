package catalog

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/schema"
)

var update = flag.Bool("update", false, "rewrite golden files")

// paperCatalog stores the paper corpus: the Fig. 1 and Fig. 3 queries,
// the Fig. 24 spellings over Sailors, the study questions and tutorial examples over
// Chinook, and the Appendix G queries.
func paperCatalog(t *testing.T) (*Catalog, map[string]string) {
	t.Helper()
	beers, sailors, chinook := schema.Beers(), schema.Sailors(), schema.Chinook()
	c := New()
	sqls := map[string]string{}
	add := func(name, sql string, s *schema.Schema) {
		if _, err := c.Add(name, sql, s); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sqls[name] = sql
	}
	add("fig1", corpus.Fig1UniqueSet, beers)
	add("fig3some", corpus.Fig3QSome, beers)
	add("fig3only", corpus.Fig3QOnly, beers)
	for i, sql := range corpus.Fig24Variants() {
		add(fmt.Sprintf("fig24.%d", i), sql, sailors)
	}
	for _, q := range corpus.StudyQuestions() {
		add("study."+q.ID, q.SQL, chinook)
	}
	for _, ex := range corpus.TutorialExamples() {
		add(fmt.Sprintf("tutorial.%d", ex.Page), ex.SQL, chinook)
	}
	for _, g := range corpus.AppendixG() {
		add("g."+g.Schema.Name+"."+g.Pattern.String(), g.SQL, g.Schema)
	}
	return c, sqls
}

// TestGroupsGolden pins the pattern buckets of the paper corpus: every
// group's key (as a SHA-256) and members in order, and what SimilarToSQL
// returns for each stored query's SQL. A change to how Add or
// SimilarToSQL derives a diagram shows here as a moved member or a new
// key.
func TestGroupsGolden(t *testing.T) {
	c, sqls := paperCatalog(t)
	var b strings.Builder
	for _, g := range c.Groups() {
		fmt.Fprintf(&b, "group %x:", sha256.Sum256([]byte(g.Key)))
		for _, e := range g.Entries {
			b.WriteString(" " + e.Name)
		}
		b.WriteString("\n")
	}
	for _, e := range c.entries {
		sim, err := c.SimilarToSQL(sqls[e.Name], e.Schema)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		fmt.Fprintf(&b, "similar %s:", e.Name)
		for _, o := range sim {
			b.WriteString(" " + o.Name)
		}
		b.WriteString("\n")
	}
	got := b.String()
	path := filepath.Join("testdata", "groups.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -update to create golden files)", err)
	}
	if got != string(want) {
		t.Errorf("%s differs (re-run with -update if the change is intended)\ngot:\n%s", path, got)
	}
}
