package queryvis

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dot"
	"repro/internal/oracle"
	"repro/internal/sqlparse"
)

// renderDigestQueries is how many seeded oracle queries the render
// digest list covers.
const renderDigestQueries = 200

// renderDigests renders renderDigestQueries seeded oracle queries (every
// built-in schema, simplify alternating on and off) and returns one line
// per query with the SHA-256 of its DOT, DOT-with-variables, SVG and
// text output.
func renderDigests(t *testing.T) string {
	t.Helper()
	cfg := oracle.DefaultConfig()
	schemas := map[string]*Schema{}
	for _, name := range cfg.Schemas {
		s, ok := SchemaByName(name)
		if !ok {
			t.Fatalf("unknown schema %q", name)
		}
		schemas[name] = s
	}
	sum := func(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s))) }
	var b strings.Builder
	master := rand.New(rand.NewSource(12))
	for i := 0; i < renderDigestQueries; i++ {
		rng := rand.New(rand.NewSource(master.Int63()))
		name := cfg.Schemas[rng.Intn(len(cfg.Schemas))]
		sql := sqlparse.Format(oracle.Generate(rng, schemas[name], cfg))
		simplify := i%2 == 1
		res, err := FromSQL(sql, schemas[name], Options{Simplify: simplify})
		if err != nil {
			t.Fatalf("query %d: %v\n%s", i, err, sql)
		}
		fmt.Fprintf(&b, "%03d %s simplify=%t dot=%s dotvars=%s svg=%s text=%s\n",
			i, name, simplify, sum(res.DOT()),
			sum(res.DOTWith(dot.Options{ShowVars: true})),
			sum(res.SVG()), sum(res.Text()))
	}
	return b.String()
}

// TestRenderDigestsGolden pins the exact bytes of every renderer over a
// seeded corpus of generated queries, so a renderer rewrite (escaping,
// number formatting, buffer handling) must reproduce its predecessor
// byte for byte. Regenerate with go test -run TestRenderDigestsGolden
// -update only for an intended output change.
func TestRenderDigestsGolden(t *testing.T) {
	got := renderDigests(t)
	path := filepath.Join("testdata", "render_sha256.golden")
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
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d differs:\ngot  %s\nwant %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
}
