package sqlparse

import "testing"

// FuzzParse drives the parser with mutated SQL. The invariants are the
// same as the quick tests: no panics ever, and anything that parses must
// format and re-parse to the same compact rendering.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		text := Format(q)
		q2, err := Parse(text)
		if err != nil {
			t.Fatalf("formatted output failed to re-parse: %v\ninput: %q\nformatted:\n%s", err, src, text)
		}
		if q.String() != q2.String() {
			t.Fatalf("round trip changed the query:\n  %s\n  %s", q, q2)
		}
	})
}

// fuzzSeeds is FuzzParse's seed corpus; the lexer identity test replays
// it too.
var fuzzSeeds = []string{
	"SELECT T.TrackId FROM Track T WHERE T.UnitPrice > 2;",
	"SELECT L1.drinker FROM Likes L1 WHERE NOT EXISTS(SELECT * FROM Likes L2 WHERE L1.drinker <> L2.drinker)",
	"SELECT S.sname FROM Sailor S WHERE S.sid NOT IN (SELECT R.sid FROM Reserves R)",
	"SELECT S.sname FROM Sailor S WHERE NOT S.sid = ANY (SELECT R.sid FROM Reserves R)",
	"SELECT C.Country, COUNT(*) FROM Customer C GROUP BY C.Country",
	"SELECT a FROM T WHERE a + 5 < b AND c - 2.5 = d",
	"SELECT x FROM T WHERE s = 'it''s -- not a comment' /* block */",
	// GROUP BY with every aggregate, and the (unsupported) HAVING
	// keyword, which must produce a clean error rather than a panic.
	"SELECT T.a, COUNT(T.b), MIN(T.c), MAX(T.d), SUM(T.e), AVG(T.f) FROM T GROUP BY T.a",
	"SELECT C.Country, COUNT(*) FROM Customer C GROUP BY C.Country HAVING COUNT(*) > 5",
	// Quantified comparisons in every op/quantifier pairing.
	"SELECT S.sname FROM Sailor S WHERE S.rating >= ALL (SELECT S2.rating FROM Sailor S2)",
	"SELECT S.sname FROM Sailor S WHERE S.age < ANY (SELECT R.day FROM Reserves R WHERE R.sid = S.sid)",
	"SELECT S.sname FROM Sailor S WHERE NOT S.rating <> ALL (SELECT R.bid FROM Reserves R)",
	// Quoted identifiers are outside the fragment: clean error expected.
	"SELECT \"T\".\"a\" FROM \"T\"",
	"SELECT T.a FROM T WHERE T.\"b\" = 1",
	// Offset arithmetic on both sides and nested negation stacking.
	"SELECT T.a FROM T WHERE T.a + 1 <= T.b - 2 AND NOT EXISTS(SELECT * FROM U WHERE U.x = T.a AND NOT EXISTS(SELECT * FROM V WHERE V.y = U.x))",
}
