package queryvis_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	queryvis "repro"
	"repro/internal/corpus"
	"repro/internal/diagcache"
	"repro/internal/faults"
	"repro/internal/oracle"
	"repro/internal/quarantine"
	"repro/internal/schema"
	"repro/internal/sqlparse"
)

// renameAliases rewrites the Fig. 1 alias names L1..L6 to a fresh set,
// producing SQL that is syntactically distinct but pattern-isomorphic
// (the §1.1 equivalence).
func renameAliases(sql, tag string) string {
	for i := 6; i >= 1; i-- { // longest first so L1 never clobbers L1x
		sql = strings.ReplaceAll(sql,
			fmt.Sprintf("L%d", i), fmt.Sprintf("Z%d%s", i, tag))
	}
	return sql
}

func newCachedOpts(c *queryvis.DiagramCache, verify queryvis.VerifyMode) queryvis.Options {
	return queryvis.Options{Verify: verify, Cache: c}
}

func TestFromSQLCachedColdWarm(t *testing.T) {
	beers, _ := schema.ByName("beers")
	c := queryvis.NewDiagramCache(queryvis.DiagramCacheConfig{})
	opts := newCachedOpts(c, queryvis.VerifyDegrade)

	cold, res, out, err := queryvis.FromSQLCached(corpus.Fig1UniqueSet, beers, opts)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	if out != diagcache.OutcomeMiss || cold == nil || res != nil {
		t.Fatalf("cold: outcome %v entry %v result %v; want a pure miss", out, cold != nil, res != nil)
	}
	if cold.VerifyStatus != queryvis.VerifyStatusVerified {
		t.Fatalf("cold entry status %q, want verified", cold.VerifyStatus)
	}
	if cold.DOT == "" || cold.SVG == "" || cold.Text == "" || cold.Interpretation == "" {
		t.Fatal("cold entry is missing rendered formats")
	}

	warm, _, out, err := queryvis.FromSQLCached(corpus.Fig1UniqueSet, beers, opts)
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if out != diagcache.OutcomeHit {
		t.Fatalf("warm outcome %v, want exact hit", out)
	}
	if warm != cold {
		t.Fatal("warm hit returned a different entry object")
	}

	// A pattern-isomorphic spelling is another request: it builds its
	// own entry, then hits it.
	iso := renameAliases(corpus.Fig1UniqueSet, "a")
	if iso == corpus.Fig1UniqueSet {
		t.Fatal("renamer produced the identical text")
	}
	ent, _, out, err := queryvis.FromSQLCached(iso, beers, opts)
	if err != nil {
		t.Fatalf("isomorph: %v", err)
	}
	if out != diagcache.OutcomeMiss || ent == nil || ent == cold {
		t.Fatalf("isomorph outcome %v (shared entry: %v), want a miss with its own entry", out, ent == cold)
	}
	if again, _, out, _ := queryvis.FromSQLCached(iso, beers, opts); out != diagcache.OutcomeHit || again != ent {
		t.Fatalf("isomorph repeat outcome %v, want hit on its own entry", out)
	}

	if st := c.Stats(); st.Builds != 2 {
		t.Fatalf("builds = %d for two texts asked twice each, want 2", st.Builds)
	}
}

// TestFromSQLCachedAppendixGOnly serves App. G's "only" query on
// Sailors, then the pattern-isomorphic one on Students, through one
// cache: the second answer must be the Students diagram, not a replay
// of the first.
func TestFromSQLCachedAppendixGOnly(t *testing.T) {
	c := queryvis.NewDiagramCache(queryvis.DiagramCacheConfig{})
	opts := newCachedOpts(c, queryvis.VerifyDegrade)
	dots := map[string]string{}
	for _, g := range corpus.AppendixG() {
		if g.Pattern != corpus.GOnly || (g.Schema.Name != "sailors" && g.Schema.Name != "students") {
			continue
		}
		e, _, _, err := queryvis.FromSQLCached(g.SQL, g.Schema, opts)
		if err != nil || e == nil {
			t.Fatalf("%s: entry %v, err %v", g.Schema.Name, e != nil, err)
		}
		dots[g.Schema.Name] = e.DOT
	}
	if !strings.Contains(dots["sailors"], "Sailor") {
		t.Fatalf("Sailors DOT does not name Sailor:\n%s", dots["sailors"])
	}
	if !strings.Contains(dots["students"], "Student") || strings.Contains(dots["students"], "Sailor") {
		t.Fatalf("Students query was served another query's DOT:\n%s", dots["students"])
	}
}

// TestFromSQLCachedKeyHoldsLimits: with one shared cache, an entry built
// without limits is not served to a caller whose limits refuse the
// query. That caller gets the *LimitError a fresh build returns.
func TestFromSQLCachedKeyHoldsLimits(t *testing.T) {
	beers, _ := schema.ByName("beers")
	c := queryvis.NewDiagramCache(queryvis.DiagramCacheConfig{})
	if _, _, out, err := queryvis.FromSQLCached(corpus.Fig1UniqueSet, beers, newCachedOpts(c, queryvis.VerifyDegrade)); err != nil || out != diagcache.OutcomeMiss {
		t.Fatalf("unlimited build: outcome %v, err %v; want a miss", out, err)
	}

	limited := queryvis.Options{Verify: queryvis.VerifyDegrade, Limits: &queryvis.Limits{MaxQueryBytes: 20}}
	_, fresh := queryvis.FromSQLContext(context.Background(), corpus.Fig1UniqueSet, beers, limited)
	var want *queryvis.LimitError
	if !errors.As(fresh, &want) {
		t.Fatalf("fresh build under MaxQueryBytes 20: %v, want a *LimitError", fresh)
	}
	limited.Cache = c
	ent, res, out, err := queryvis.FromSQLCached(corpus.Fig1UniqueSet, beers, limited)
	var got *queryvis.LimitError
	if !errors.As(err, &got) || *got != *want {
		t.Fatalf("cached call under MaxQueryBytes 20: outcome %v, err %v; want %v", out, err, want)
	}
	if ent != nil || res != nil || out.Hit() {
		t.Fatalf("refused request was answered: entry %v, result %v, outcome %v", ent != nil, res != nil, out)
	}
}

func TestFromSQLCachedFaultBypass(t *testing.T) {
	beers, _ := schema.ByName("beers")
	c := queryvis.NewDiagramCache(queryvis.DiagramCacheConfig{})
	opts := newCachedOpts(c, queryvis.VerifyDegrade)

	// Find a seed whose plan injects at least one pipeline fault, so the
	// bypass below is exercised against a genuinely faulty run.
	ctx := faults.WithPlan(context.Background(), faults.NewPlan(1))
	_, res, out, _ := queryvis.FromSQLCachedContext(ctx, corpus.Fig3QSome, beers, opts)
	if out != diagcache.OutcomeBypass {
		t.Fatalf("fault-plan request outcome %v, want bypass", out)
	}
	if st := c.Stats(); st.Entries != 0 || st.Builds != 0 {
		t.Fatalf("fault-plan request touched the cache: %+v", st)
	}
	_ = res // may be nil (fault fired) or a degraded result; both are fine uncached

	// The same query without a fault plan must rebuild, not hit.
	_, _, out, err := queryvis.FromSQLCached(corpus.Fig3QSome, beers, opts)
	if err != nil {
		t.Fatalf("clean rebuild: %v", err)
	}
	if out.Hit() {
		t.Fatalf("clean request after a fault-plan run hit the cache (outcome %v)", out)
	}
}

func TestFromSQLCachedVerifiedReplacesUnverified(t *testing.T) {
	beers, _ := schema.ByName("beers")
	c := queryvis.NewDiagramCache(queryvis.DiagramCacheConfig{})

	// A verify-off request caches an unproven entry.
	offEnt, _, out, err := queryvis.FromSQLCached(corpus.Fig3QOnly, beers, newCachedOpts(c, queryvis.VerifyOff))
	if err != nil || out != diagcache.OutcomeMiss {
		t.Fatalf("off cold: %v, %v", out, err)
	}
	if offEnt.VerifyStatus != queryvis.VerifyStatusOff {
		t.Fatalf("off entry status %q", offEnt.VerifyStatus)
	}

	// A degrade request must not accept it: it runs the verified build
	// and replaces the entry in place.
	verEnt, _, out, err := queryvis.FromSQLCached(corpus.Fig3QOnly, beers, newCachedOpts(c, queryvis.VerifyDegrade))
	if err != nil {
		t.Fatalf("degrade: %v", err)
	}
	if out.Hit() {
		t.Fatalf("degrade request hit an unverified entry (outcome %v)", out)
	}
	if verEnt.VerifyStatus != queryvis.VerifyStatusVerified {
		t.Fatalf("degrade entry status %q", verEnt.VerifyStatus)
	}
	// Both classes of request now hit the verified entry.
	for _, mode := range []queryvis.VerifyMode{queryvis.VerifyOff, queryvis.VerifyDegrade} {
		e, _, out, err := queryvis.FromSQLCached(corpus.Fig3QOnly, beers, newCachedOpts(c, mode))
		if err != nil || !out.Hit() || e != verEnt {
			t.Fatalf("mode %v after replacement: outcome %v err %v shared %v", mode, out, err, e == verEnt)
		}
	}
}

// assertColdWarmIdentity runs sql twice against a fresh cache and checks
// the cache-correctness contract: a warm hit must be byte-identical to
// the cold build across every format and carry the same verify status;
// an uncacheable cold run must not turn into a warm hit.
func assertColdWarmIdentity(t *testing.T, sql string, s *queryvis.Schema, mode queryvis.VerifyMode) {
	t.Helper()
	c := queryvis.NewDiagramCache(queryvis.DiagramCacheConfig{})
	opts := newCachedOpts(c, mode)
	lim := queryvis.DefaultLimits()
	opts.Limits = &lim

	run := func(label string) (*queryvis.CachedEntry, *queryvis.Result, queryvis.CacheOutcome) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		ent, res, out, err := queryvis.FromSQLCachedContext(ctx, sql, s, opts)
		if err != nil {
			return nil, nil, out // rejections are fine; identity is vacuous
		}
		_ = label
		return ent, res, out
	}

	coldEnt, coldRes, coldOut := run("cold")
	warmEnt, _, warmOut := run("warm")

	switch {
	case coldEnt != nil:
		// Cacheable: warm must hit and serve identical bytes.
		if !warmOut.Hit() || warmEnt == nil {
			t.Fatalf("cold miss did not become a warm hit (cold %v, warm %v) on %q", coldOut, warmOut, sql)
		}
		if warmEnt.DOT != coldEnt.DOT || warmEnt.SVG != coldEnt.SVG ||
			warmEnt.Text != coldEnt.Text || warmEnt.VerifyStatus != coldEnt.VerifyStatus ||
			warmEnt.Interpretation != coldEnt.Interpretation {
			t.Fatalf("warm hit is not byte-identical to the cold build on %q", sql)
		}
		if mode != queryvis.VerifyOff && warmEnt.VerifyStatus != queryvis.VerifyStatusVerified {
			t.Fatalf("warm hit carries status %q under mode %v on %q", warmEnt.VerifyStatus, mode, sql)
		}
	case coldRes != nil:
		// Uncacheable (degraded, unkeyable): the warm run must not hit.
		if warmOut.Hit() {
			t.Fatalf("uncacheable cold run (%v, status %q, rung %q) became a warm hit on %q",
				coldOut, coldRes.VerifyStatus, coldRes.Degraded, sql)
		}
	}
}

// FuzzCachedColdWarm extends the FuzzVerified battery to the cache
// layer: every input that builds is run cold then warm, and the cache
// must either serve byte-identical proven bytes or stay out of the way.
// Quarantine-corpus entries — previously captured verification failures,
// exactly the inputs that must never be served from cache — seed the
// fuzz alongside the paper queries.
func FuzzCachedColdWarm(f *testing.F) {
	seeds := []string{
		corpus.Fig1UniqueSet,
		corpus.Fig3QSome,
		corpus.Fig3QOnly,
		"SELECT S.sname FROM Sailor S WHERE S.sid NOT IN (SELECT R.sid FROM Reserves R)",
		"SELECT C.Country, COUNT(*) FROM Customer C GROUP BY C.Country",
		"SELECT T.a FROM T WHERE T.a + 1 <= T.b - 2 AND NOT EXISTS(SELECT * FROM U WHERE U.x = T.a AND NOT EXISTS(SELECT * FROM V WHERE V.y = U.x))",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	if entries, err := quarantine.Load("testdata/quarantine"); err == nil {
		for _, e := range entries {
			f.Add(e.SQL)
		}
	}
	beers, _ := schema.ByName("beers")
	f.Fuzz(func(t *testing.T, sql string) {
		assertColdWarmIdentity(t, sql, beers, queryvis.VerifyDegrade)
		assertColdWarmIdentity(t, sql, beers, queryvis.VerifyOff)
	})
}

// TestCachedPropertyGenerated is the property-test hookup: queries from
// the oracle's generator (the same generator the differential oracle
// trusts), across schemas, go cold then warm through one cache shared
// by the whole sweep, and every answer must equal the uncached
// FromSQLContext output for the same query.
func TestCachedPropertyGenerated(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep is not short")
	}
	cfg := oracle.DefaultConfig()
	lim := queryvis.DefaultLimits()
	uncached := queryvis.Options{Verify: queryvis.VerifyDegrade, Limits: &lim}
	cached := uncached
	cached.Cache = queryvis.NewDiagramCache(queryvis.DiagramCacheConfig{})
	hits := 0
	for _, name := range []string{"beers", "sailors", "chinook"} {
		sch, ok := schema.ByName(name)
		if !ok {
			t.Fatalf("schema %q missing", name)
		}
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 40; i++ {
			sql := sqlparse.Format(oracle.Generate(rng, sch, cfg))
			want, err := queryvis.FromSQLContext(context.Background(), sql, sch, uncached)
			if err != nil {
				continue
			}
			for pass := 0; pass < 2; pass++ {
				ent, res, out, err := queryvis.FromSQLCached(sql, sch, cached)
				if err != nil {
					t.Fatalf("%s pass %d: %v on %q", name, pass, err, sql)
				}
				if out.Hit() {
					hits++
				}
				if res != nil {
					if res.VerifyStatus != want.VerifyStatus || res.Degraded != want.Degraded ||
						rendered(res) != rendered(want) {
						t.Fatalf("%s pass %d: uncacheable result differs from FromSQLContext on %q", name, pass, sql)
					}
					continue
				}
				if ent.DOT != want.DOT() || ent.SVG != want.SVG() || ent.Text != want.Text() ||
					ent.Interpretation != want.Interpretation || ent.VerifyStatus != want.VerifyStatus {
					t.Fatalf("%s pass %d (outcome %v): cached answer differs from FromSQLContext on %q",
						name, pass, out, sql)
				}
			}
		}
	}
	if hits == 0 {
		t.Fatal("the sweep never hit the cache")
	}
}

// rendered is every rendering of a result: its three formats, or the
// calculus text when the ladder bottomed out below diagrams.
func rendered(res *queryvis.Result) string {
	if res.Diagram == nil {
		return res.TRCText
	}
	return res.DOT() + res.SVG() + res.Text() + res.Interpretation
}

// TestFromSQLCachedWarmHitAllocBudget pins the heap allocations of a
// warm FromSQLCached hit: the request key and the cache lookup only.
// The key carries the schema's rendering, which Schema.String returns
// without rendering again, so a hit costs the same on the
// eleven-table Chinook schema as on Beers (2 allocations each).
func TestFromSQLCachedWarmHitAllocBudget(t *testing.T) {
	for _, c := range []struct {
		schema, sql string
		budget      float64
	}{
		{"beers", corpus.Fig1UniqueSet, 3},
		{"chinook", corpus.StudyQuestions()[0].SQL, 3},
	} {
		s, _ := schema.ByName(c.schema)
		opts := newCachedOpts(queryvis.NewDiagramCache(queryvis.DiagramCacheConfig{}), queryvis.VerifyDegrade)
		if _, _, _, err := queryvis.FromSQLCached(c.sql, s, opts); err != nil {
			t.Fatalf("%s: cold: %v", c.schema, err)
		}
		if _, _, out, _ := queryvis.FromSQLCached(c.sql, s, opts); out != diagcache.OutcomeHit {
			t.Fatalf("%s: warm outcome %v, want exact hit", c.schema, out)
		}
		got := testing.AllocsPerRun(100, func() { _, _, _, _ = queryvis.FromSQLCached(c.sql, s, opts) })
		if got > c.budget {
			t.Errorf("%s warm hit: %.0f allocs per run, budget %.0f", c.schema, got, c.budget)
		}
	}
}
