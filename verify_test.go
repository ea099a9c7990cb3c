package queryvis

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/faults"
	"repro/internal/oracle"
	"repro/internal/sqlparse"
	"repro/internal/telemetry"
)

// TestVerifyHealthy: every paper query verifies in both strict and
// degrade mode, in both ∄ and simplified form, with a recovered tree
// witness and no degradation.
func TestVerifyHealthy(t *testing.T) {
	s := beersSchema(t)
	queries := []string{corpus.Fig1UniqueSet, corpus.Fig3QSome, corpus.Fig3QOnly}
	for _, mode := range []VerifyMode{VerifyDegrade, VerifyStrict} {
		for _, simplify := range []bool{false, true} {
			for i, sql := range queries {
				res, err := FromSQLContext(context.Background(), sql, s,
					Options{Simplify: simplify, Verify: mode})
				if err != nil {
					t.Fatalf("mode %v simplify %v query %d: %v", mode, simplify, i, err)
				}
				if res.VerifyStatus != VerifyStatusVerified {
					t.Fatalf("query %d: status %q (%s), want verified", i, res.VerifyStatus, res.VerifyDetail)
				}
				if res.Degraded != "" {
					t.Fatalf("query %d: degraded to %q on a healthy query", i, res.Degraded)
				}
				if res.Recovered == nil {
					t.Fatalf("query %d: verified result has no recovered-tree witness", i)
				}
			}
		}
	}
}

// TestVerifyOracleCorpusStrict is the acceptance check: every
// non-degenerate depth-≤3 query the oracle generates must round-trip
// diagram → logic tree isomorphic to the forward tree under
// verify=strict.
func TestVerifyOracleCorpusStrict(t *testing.T) {
	const n = 300
	cfg := oracle.DefaultConfig()
	schemas := map[string]*Schema{}
	for _, name := range cfg.Schemas {
		s, ok := SchemaByName(name)
		if !ok {
			t.Fatalf("unknown schema %q", name)
		}
		schemas[name] = s
	}
	master := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		rng := rand.New(rand.NewSource(master.Int63()))
		name := cfg.Schemas[rng.Intn(len(cfg.Schemas))]
		q := oracle.Generate(rng, schemas[name], cfg)
		sql := sqlparse.Format(q)
		res, err := FromSQLContext(context.Background(), sql, schemas[name],
			Options{Verify: VerifyStrict})
		if err != nil {
			t.Fatalf("query %d failed strict verification: %v\n%s", i, err, sql)
		}
		if res.VerifyStatus != VerifyStatusVerified {
			t.Fatalf("query %d: status %q\n%s", i, res.VerifyStatus, sql)
		}
	}
}

// wideSQL fans out sibling NOT EXISTS blocks, each joined to the root.
func wideSQL(boxes int) string {
	var b strings.Builder
	b.WriteString("SELECT L0.drinker FROM Likes L0 WHERE ")
	for i := 1; i <= boxes; i++ {
		if i > 1 {
			b.WriteString(" AND ")
		}
		fmt.Fprintf(&b,
			"NOT EXISTS (SELECT * FROM Likes L%d WHERE L%d.drinker = L0.drinker AND L%d.beer = 'b%d')",
			i, i, i, i)
	}
	return b.String()
}

// TestVerifyWideQueries: wide sibling queries, up to the 127 tables
// DefaultLimits admits, verify under the defaults with no degraded rung
// in both modes. The enumerate-then-check search this replaced ran out
// of its node budget from 7 blocks on; following the arrows visits one
// search node per block.
func TestVerifyWideQueries(t *testing.T) {
	s := beersSchema(t)
	lim := DefaultLimits()
	for _, boxes := range []int{7, 12, 32, 126} {
		for _, mode := range []VerifyMode{VerifyDegrade, VerifyStrict} {
			tr := telemetry.NewTracer()
			res, err := FromSQLContext(context.Background(), wideSQL(boxes), s,
				Options{Verify: mode, Limits: &lim, Tracer: tr})
			if err != nil {
				t.Fatalf("%d boxes, %s: %v", boxes, mode, err)
			}
			if res.VerifyStatus != VerifyStatusVerified || res.Degraded != "" {
				t.Fatalf("%d boxes, %s: status %q rung %q (%s)", boxes, mode, res.VerifyStatus, res.Degraded, res.VerifyDetail)
			}
			nodes := ""
			for _, sp := range tr.Spans() {
				if sp.Name == StageVerify {
					nodes = sp.Attr("budget_spent")
				}
			}
			if want := strconv.Itoa(boxes + 1); nodes != want {
				t.Fatalf("%d boxes: verify visited %s search nodes, want %s", boxes, nodes, want)
			}
			t.Logf("%d boxes (%s): verified, %s search nodes", boxes, mode, nodes)
		}
	}
}

// plan builds a fault plan from stage → fault.
func plan(fs map[faults.Stage]faults.Fault) context.Context {
	return faults.WithPlan(context.Background(), &faults.Plan{Seed: 1, Faults: fs})
}

// TestDegradationLadderRungs drives each rung deterministically with
// injected faults, asserting the rung and the honesty of the status.
func TestDegradationLadderRungs(t *testing.T) {
	s := beersSchema(t)
	cases := []struct {
		name   string
		faults map[faults.Stage]faults.Fault
		rung   string
		status string
	}{
		// Verify fails; the ladder's simplify+build both work: rung 1.
		{"simplified", map[faults.Stage]faults.Fault{
			faults.StageVerify: {Action: faults.ActError},
		}, RungSimplified, VerifyStatusError},
		// Verify fails and the ladder's re-simplify (StageTree call #2)
		// fails, but the plain rebuild works: rung 2.
		{"exists_form", map[faults.Stage]faults.Fault{
			faults.StageVerify: {Action: faults.ActError},
			faults.StageTree:   {Action: faults.ActError, OnCall: 2},
		}, RungExistsForm, VerifyStatusError},
		// Build fails persistently: the pipeline error engages the ladder,
		// both diagram rungs refail on the same fault, TRC text serves.
		{"trc", map[faults.Stage]faults.Fault{
			faults.StageBuild: {Action: faults.ActError},
		}, RungTRC, VerifyStatusError},
		// A panicking build degrades the same way panics contained.
		{"trc_panic", map[faults.Stage]faults.Fault{
			faults.StageBuild: {Action: faults.ActPanic},
		}, RungTRC, VerifyStatusError},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := FromSQLContext(plan(tc.faults), corpus.Fig1UniqueSet, s,
				Options{Verify: VerifyDegrade})
			if err != nil {
				t.Fatalf("degrade mode errored: %v", err)
			}
			if res.Degraded != tc.rung {
				t.Fatalf("rung = %q (status %q, %s), want %q",
					res.Degraded, res.VerifyStatus, res.VerifyDetail, tc.rung)
			}
			if res.VerifyStatus != tc.status {
				t.Fatalf("status = %q, want %q", res.VerifyStatus, tc.status)
			}
			if tc.rung == RungTRC {
				if res.TRCText == "" {
					t.Fatal("TRC rung served no calculus text")
				}
				if res.Diagram != nil {
					t.Fatal("TRC rung leaked a diagram")
				}
				if !strings.Contains(res.TRCText, "∄") && !strings.Contains(res.TRCText, "¬∃") &&
					!strings.Contains(res.TRCText, "NOT") && !strings.Contains(res.TRCText, "Likes") {
					t.Fatalf("TRC text looks wrong: %q", res.TRCText)
				}
			} else if res.Diagram == nil {
				t.Fatal("diagram rung served no diagram")
			}
		})
	}
}

// TestVerifyStrictFailsClosed: in strict mode a pipeline fault is an
// error, never a degraded response.
func TestVerifyStrictFailsClosed(t *testing.T) {
	s := beersSchema(t)
	ctx := plan(map[faults.Stage]faults.Fault{faults.StageBuild: {Action: faults.ActError}})
	_, err := FromSQLContext(ctx, corpus.Fig1UniqueSet, s, Options{Verify: VerifyStrict})
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("err = %v, want injected build error", err)
	}
}

// TestVerifyUserFaultsNotDegraded: parse errors, unknown tables, and
// limit violations surface as errors even in degrade mode — the ladder
// must not fabricate output for requests with nothing trustworthy to
// serve.
func TestVerifyUserFaultsNotDegraded(t *testing.T) {
	s := beersSchema(t)
	lim := DefaultLimits()
	lim.MaxNestingDepth = 1
	cases := []struct {
		name string
		sql  string
		opts Options
		want func(error) bool
	}{
		{"parse", "SELECT FROM WHERE", Options{Verify: VerifyDegrade}, func(err error) bool {
			var se *StageError
			return errors.As(err, &se) && se.Stage == StageParse
		}},
		{"resolve", "SELECT N.x FROM Nope N", Options{Verify: VerifyDegrade}, func(err error) bool {
			var se *StageError
			return errors.As(err, &se) && se.Stage == StageResolve
		}},
		{"limit", corpus.Fig1UniqueSet, Options{Verify: VerifyDegrade, Limits: &lim}, func(err error) bool {
			var le *LimitError
			return errors.As(err, &le) && le.Limit == LimitNestingDepth
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := FromSQLContext(context.Background(), tc.sql, s, tc.opts)
			if err == nil {
				t.Fatalf("got degraded result (rung %q), want error", res.Degraded)
			}
			if !tc.want(err) {
				t.Fatalf("wrong error: %v", err)
			}
		})
	}
}

// TestVerifyCancellationPropagates: a dead context is never hidden by
// the ladder.
func TestVerifyCancellationPropagates(t *testing.T) {
	s := beersSchema(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := FromSQLContext(ctx, corpus.Fig1UniqueSet, s, Options{Verify: VerifyDegrade})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestVerifyKeepExistsBlocks: verification flattens a clone when the
// caller keeps ∃ blocks, and still verifies.
func TestVerifyKeepExistsBlocks(t *testing.T) {
	s := beersSchema(t)
	res, err := FromSQLContext(context.Background(), corpus.Fig3QOnly, s,
		Options{Verify: VerifyStrict, KeepExistsBlocks: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.VerifyStatus != VerifyStatusVerified {
		t.Fatalf("status = %q", res.VerifyStatus)
	}
}

// TestParseVerifyMode covers the wire mapping.
func TestParseVerifyMode(t *testing.T) {
	for in, want := range map[string]VerifyMode{
		"": VerifyOff, "off": VerifyOff, "degrade": VerifyDegrade, "strict": VerifyStrict,
	} {
		got, err := ParseVerifyMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseVerifyMode(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseVerifyMode("nope"); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestSimplifiedRungSkipsFlatQueries: a query with no negation has no ∀∃
// form; a verify failure must degrade to the ∄ (here: flat) rung, not a
// mislabeled "simplified" copy.
func TestSimplifiedRungSkipsFlatQueries(t *testing.T) {
	s := beersSchema(t)
	ctx := plan(map[faults.Stage]faults.Fault{faults.StageVerify: {Action: faults.ActError}})
	res, err := FromSQLContext(ctx, corpus.Fig3QSome, s, Options{Verify: VerifyDegrade})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded != RungExistsForm {
		t.Fatalf("rung = %q, want exists_form", res.Degraded)
	}
}
