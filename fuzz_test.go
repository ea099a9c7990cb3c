package queryvis_test

import (
	"context"
	"errors"
	"testing"
	"time"

	queryvis "repro"
	"repro/internal/corpus"
	"repro/internal/quarantine"
	"repro/internal/schema"
)

// fuzzVerifyStatuses is the closed set a degrade-mode run may report.
var fuzzVerifyStatuses = map[string]bool{
	queryvis.VerifyStatusVerified: true, queryvis.VerifyStatusMismatch: true,
	queryvis.VerifyStatusAmbiguous: true, queryvis.VerifyStatusTimeout: true,
	queryvis.VerifyStatusError: true,
}

// FuzzVerified drives the whole self-verifying pipeline — SQL → diagram
// → inverse recovery → isomorphism — with mutated SQL, in degrade mode,
// and checks the ladder's contract on every input that gets anywhere:
// no panic escapes, no contained panic (InternalError) fires without
// injected faults, every success reports a known verify status, and a
// degraded result carries a self-consistent rung. Seeds are the
// sqlparse fuzz fragment plus every entry of the checked-in quarantine
// corpus, so each previously captured failure shape is a mutation
// starting point.
func FuzzVerified(f *testing.F) {
	seeds := []string{
		corpus.Fig1UniqueSet,
		corpus.Fig3QSome,
		corpus.Fig3QOnly,
		// From the sqlparse fuzz seed list: every connective the fragment
		// supports, plus shapes that must fail cleanly.
		"SELECT L1.drinker FROM Likes L1 WHERE NOT EXISTS(SELECT * FROM Likes L2 WHERE L1.drinker <> L2.drinker)",
		"SELECT S.sname FROM Sailor S WHERE S.sid NOT IN (SELECT R.sid FROM Reserves R)",
		"SELECT S.sname FROM Sailor S WHERE NOT S.sid = ANY (SELECT R.sid FROM Reserves R)",
		"SELECT S.sname FROM Sailor S WHERE S.rating >= ALL (SELECT S2.rating FROM Sailor S2)",
		"SELECT C.Country, COUNT(*) FROM Customer C GROUP BY C.Country",
		"SELECT T.a FROM T WHERE T.a + 1 <= T.b - 2 AND NOT EXISTS(SELECT * FROM U WHERE U.x = T.a AND NOT EXISTS(SELECT * FROM V WHERE V.y = U.x))",
		"SELECT x FROM T WHERE s = 'it''s -- not a comment' /* block */",
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
		for _, simplify := range []bool{true, false} {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			res, err := queryvis.FromSQLContext(ctx, sql, beers, queryvis.Options{
				Simplify: simplify,
				Verify:   queryvis.VerifyDegrade,
			})
			cancel()
			if err != nil {
				// Rejections must be classified user errors; a contained
				// panic here has no fault injection to blame.
				var ie *queryvis.InternalError
				if errors.As(err, &ie) {
					t.Fatalf("simplify=%v: pipeline invariant violation on %q: %v", simplify, sql, err)
				}
				continue
			}
			if !fuzzVerifyStatuses[res.VerifyStatus] {
				t.Fatalf("simplify=%v: unknown verify status %q on %q", simplify, res.VerifyStatus, sql)
			}
			switch {
			case res.VerifyStatus == queryvis.VerifyStatusVerified:
				if res.Recovered == nil {
					t.Fatalf("simplify=%v: verified without a recovered witness on %q", simplify, sql)
				}
				if res.Degraded != "" {
					t.Fatalf("simplify=%v: verified yet degraded to %q on %q", simplify, res.Degraded, sql)
				}
			case res.Degraded == queryvis.RungTRC:
				if res.TRCText == "" || res.Diagram != nil {
					t.Fatalf("simplify=%v: TRC rung without calculus text (or with a diagram) on %q", simplify, sql)
				}
			case res.Degraded == queryvis.RungSimplified, res.Degraded == queryvis.RungExistsForm:
				if res.Diagram == nil {
					t.Fatalf("simplify=%v: diagram rung %q without a diagram on %q", simplify, res.Degraded, sql)
				}
			default:
				t.Fatalf("simplify=%v: non-verified status %q with no rung on %q", simplify, res.VerifyStatus, sql)
			}
		}
	})
}
