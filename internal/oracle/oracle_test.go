package oracle

import (
	"context"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/schema"
	"repro/internal/sqlparse"
)

// TestGeneratorValid: everything the generator emits must be inside the
// supported fragment — parse, resolve, convert, flatten, and validate
// without error, and survive a Format/Parse round trip.
func TestGeneratorValid(t *testing.T) {
	cfg := DefaultConfig()
	schemas, err := cfg.schemaSet()
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := schemas[rng.Intn(len(schemas))]
		q := Generate(rng, s, cfg)
		sql := sqlparse.Format(q)
		var a pipeline.Artifacts
		if err := forward(context.Background(), &a, sql, s, pipeline.Tree); err != nil {
			t.Fatalf("seed %d: generated SQL rejected: %v\n%s", seed, err, sql)
		}
		if err := a.Tree.Validate(); err != nil {
			t.Fatalf("seed %d: generated query not valid: %v\n%s", seed, err, sql)
		}
		q2, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("seed %d: reparse: %v\n%s", seed, err, sql)
		}
		if sqlparse.Format(q2) != sql {
			t.Fatalf("seed %d: printer not a fixpoint\n%s\nvs\n%s", seed, sql, sqlparse.Format(q2))
		}
	}
}

// TestDifferential is the tentpole: at least 500 generated queries must
// pass every stage of the differential with zero mismatches.
func TestDifferential(t *testing.T) {
	n := 600
	if testing.Short() {
		n = 60
	}
	rep, err := Run(DefaultConfig(), n, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Failures {
		t.Errorf("%s", c)
	}
	if rep.Queries < n && len(rep.Failures) == 0 {
		t.Fatalf("ran %d queries, want %d", rep.Queries, n)
	}
	t.Logf("%d queries, %.0f queries/sec, hash %016x",
		rep.Queries, rep.QueriesPerSec(), rep.QueryHash)
}

// TestRunDeterministic: same seed and config → byte-identical query
// stream (asserted through the stream hash) and identical outcome.
func TestRunDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	a, err := Run(cfg, 120, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, 120, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.QueryHash != b.QueryHash {
		t.Errorf("query hash differs: %016x vs %016x", a.QueryHash, b.QueryHash)
	}
	if a.Queries != b.Queries || len(a.Failures) != len(b.Failures) {
		t.Errorf("run shape differs: (%d,%d) vs (%d,%d)",
			a.Queries, len(a.Failures), b.Queries, len(b.Failures))
	}
	c, err := Run(cfg, 120, 43)
	if err != nil {
		t.Fatal(err)
	}
	if c.QueryHash == a.QueryHash {
		t.Errorf("different seeds produced the same query stream")
	}
}

// TestRandomDBDeterministic: the database generator is a pure function of
// its rng.
func TestRandomDBDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	s, _ := schema.ByName("beers")
	a := RandomDB(rand.New(rand.NewSource(7)), s, cfg)
	b := RandomDB(rand.New(rand.NewSource(7)), s, cfg)
	if a.Dump() != b.Dump() {
		t.Errorf("same seed, different databases:\n%s\nvs\n%s", a.Dump(), b.Dump())
	}
	if len(a.Rels) != len(s.Tables()) {
		t.Errorf("got %d relations, want %d", len(a.Rels), len(s.Tables()))
	}
}

// TestMinimize: with a fake differential that fails whenever the query
// still contains a NOT EXISTS, the shrinker must strip everything else
// and keep failing at the end.
func TestMinimize(t *testing.T) {
	s, _ := schema.ByName("beers")
	src := `SELECT L.drinker, L.beer FROM Likes L, Frequents F ` +
		`WHERE L.drinker = F.drinker AND L.beer = 'x1' AND F.bar = 'y2' ` +
		`AND NOT EXISTS (SELECT * FROM Serves S WHERE S.bar = F.bar AND S.beer = 'x0')`
	q, err := sqlparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	fake := func(sql string, _ *schema.Schema, _ []*TestDB) *Failure {
		if strings.Contains(sql, "NOT EXISTS") {
			return &Failure{StageRecover, "fake"}
		}
		return nil
	}
	orig := fake(sqlparse.Format(q), s, nil)
	if orig == nil {
		t.Fatal("fake check should fail on the original query")
	}
	c := Minimize(q, s, nil, orig, fake)
	if !strings.Contains(c.MinSQL, "NOT EXISTS") {
		t.Fatalf("shrinker lost the failing feature:\n%s", c.MinSQL)
	}
	if len(c.MinSQL) >= len(c.SQL) {
		t.Errorf("shrinker did not shrink:\nmin: %s\norig: %s", c.MinSQL, c.SQL)
	}
	// Every removable predicate must be gone, and only one select item
	// and one outer table may remain. (Which table survives is up to the
	// reduction order — the fake check is purely syntactic.)
	for _, gone := range []string{"'x1'", "'y2'", "L.drinker = F.drinker"} {
		if strings.Contains(c.MinSQL, gone) {
			t.Errorf("minimized query still contains %q:\n%s", gone, c.MinSQL)
		}
	}
	min, err := sqlparse.Parse(c.MinSQL)
	if err != nil {
		t.Fatalf("minimized SQL does not parse: %v\n%s", err, c.MinSQL)
	}
	if len(min.Select) != 1 || len(min.From) != 1 {
		t.Errorf("want 1 select item and 1 table, got %d and %d:\n%s",
			len(min.Select), len(min.From), c.MinSQL)
	}
	if c.String() == "" || !strings.Contains(c.String(), "minimized query") {
		t.Errorf("counterexample printer output malformed:\n%s", c.String())
	}
}

// TestMinimizeExecution: an execution-stage failure also shrinks its
// databases, and the repro printer includes the dumps.
func TestMinimizeExecution(t *testing.T) {
	cfg := DefaultConfig()
	s, _ := schema.ByName("beers")
	rng := rand.New(rand.NewSource(11))
	dbs := []*TestDB{RandomDB(rng, s, cfg), RandomDB(rng, s, cfg)}
	src := `SELECT L.drinker FROM Likes L WHERE L.beer = 'x0'`
	q, err := sqlparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// Fails on execution whenever any database still has a row.
	fake := func(sql string, _ *schema.Schema, cand []*TestDB) *Failure {
		for _, db := range cand {
			if db.RowCount() > 0 {
				return &Failure{StageExec, "fake execution mismatch"}
			}
		}
		return nil
	}
	c := Minimize(q, s, dbs, fake(src, s, dbs), fake)
	total := 0
	for _, db := range c.MinDBs {
		total += db.RowCount()
	}
	if len(c.MinDBs) != 1 || total != 1 {
		t.Errorf("want exactly one database with one row after shrinking, got %d dbs, %d rows",
			len(c.MinDBs), total)
	}
	if !strings.Contains(c.String(), "minimized database") {
		t.Errorf("execution repro misses database dump:\n%s", c.String())
	}
}

// TestConfigErrors: unknown schema names are reported, not ignored.
func TestConfigErrors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Schemas = []string{"no-such-schema"}
	if _, err := Run(cfg, 1, 1); err == nil {
		t.Error("expected error for unknown schema")
	}
	cfg.Schemas = nil
	if _, err := Run(cfg, 1, 1); err == nil {
		t.Error("expected error for empty schema list")
	}
}

// TestStageTimingsKeys pins which spans a run's StageTimings aggregate:
// the forward stages the differential runs, the recovery under "verify"
// and the execution differential.
func TestStageTimingsKeys(t *testing.T) {
	rep, err := Run(DefaultConfig(), 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range rep.StageTimings {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := "build convert execute logictree parse resolve verify"
	if got := strings.Join(keys, " "); got != want {
		t.Fatalf("StageTimings keys = %q, want %q", got, want)
	}
}
