package rel_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/oracle"
	"repro/internal/rel"
	"repro/internal/schema"
	"repro/internal/sqlparse"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestEvalSQLGolden pins EvalSQL's answers on the oracle's generated
// queries and databases: per query, a SHA-256 over the rows returned on
// each database, with and without the ∄∄ → ∀∃ rewrite. A change to how
// EvalSQL derives its logic tree shows here as a changed digest.
func TestEvalSQLGolden(t *testing.T) {
	cfg := oracle.DefaultConfig()
	schemas := make([]*schema.Schema, len(cfg.Schemas))
	for i, name := range cfg.Schemas {
		schemas[i], _ = schema.ByName(name)
	}
	var b strings.Builder
	master := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		rng := rand.New(rand.NewSource(master.Int63()))
		s := schemas[rng.Intn(len(schemas))]
		sql := sqlparse.Format(oracle.Generate(rng, s, cfg))
		h := sha256.New()
		for j := 0; j < cfg.Databases; j++ {
			db := oracle.RandomDB(rng, s, cfg).Database()
			for _, simplify := range []bool{false, true} {
				res, err := rel.EvalSQL(db, sql, s, simplify)
				if err != nil {
					t.Fatalf("query %d: %v\n%s", i, err, sql)
				}
				fmt.Fprintf(h, "%d %v\n%s", j, simplify, res)
			}
		}
		fmt.Fprintf(&b, "q%03d %s %x\n", i, s.Name, h.Sum(nil))
	}
	got := b.String()
	path := filepath.Join("testdata", "evalsql.golden")
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
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d differs:\ngot  %s\nwant %s", path, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
	}
}
