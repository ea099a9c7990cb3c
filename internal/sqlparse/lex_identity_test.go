package sqlparse_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/oracle"
	"repro/internal/schema"
	"repro/internal/sqlparse"
)

// lexMalformed covers the lexer's edge cases: unterminated strings and
// comments, doubled-quote escapes, numbers against qualified names, and
// bytes beyond ASCII (which the lexer classifies one byte at a time).
var lexMalformed = []string{
	"",
	"   \n\t ",
	"SELECT 'abc",
	"SELECT 'it''s",
	"SELECT ''''",
	"SELECT ''",
	"SELECT 'a''b''''c' FROM T",
	"SELECT 'line\nbreak' FROM T",
	"SELECT a FROM T /* never closed",
	"SELECT a FROM T /* closed */ WHERE /**/ b = 1",
	"SELECT a FROM T -- trailing comment",
	"SELECT a FROM T --",
	"SELECT 1.5, 1., .5, 1.5.6, 12.34.56 FROM T",
	"SELECT Likes.beer FROM Likes WHERE Likes.beer = 1.5",
	"SELECT 1.beer FROM T",
	"SELECT T.a FROM T WHERE T.a >= 1 AND T.b <= 2 AND T.c <> 3 AND T.d != 4",
	"SELECT T.a FROM T WHERE T.a ! 1",
	"SELECT T.a FROM T WHERE T.a = #",
	"SELECT café FROM T",
	"SELECT ª, µ, º FROM T",
	"SELECT ź FROM Ťable",
	"SELECT naïve FROM T WHERE T.a = 'ünïcode'",
	"SELECT \xc0\xc1 FROM T",
	"SELECT a\xff FROM T",
	"SELECT \xa9 FROM T",
	"SELECT 日本 FROM T",
	"SELECT _x1, x_2_ FROM _T",
	"SELECT a FROM T;;",
	"SELECT (a), b+c, d-e, * FROM T",
}

// lexSources returns every input the identity test replays: the
// malformed table, the fuzz seeds, the paper corpus, seeded generated
// queries on every built-in schema, and byte-level mutations of those.
func lexSources(t *testing.T) []string {
	t.Helper()
	srcs := append([]string(nil), lexMalformed...)
	srcs = append(srcs, sqlparse.FuzzSeeds...)
	srcs = append(srcs, corpus.Fig1UniqueSet, corpus.Fig3QSome, corpus.Fig3QOnly)
	for _, v := range corpus.Fig24Variants() {
		srcs = append(srcs, v)
	}
	for _, g := range corpus.AppendixG() {
		srcs = append(srcs, g.SQL)
	}
	for _, q := range corpus.StudyQuestions() {
		srcs = append(srcs, q.SQL)
	}
	for _, e := range corpus.TutorialExamples() {
		srcs = append(srcs, e.SQL)
	}
	cfg := oracle.DefaultConfig()
	rng := rand.New(rand.NewSource(21))
	for _, name := range cfg.Schemas {
		s, ok := schema.ByName(name)
		if !ok {
			t.Fatalf("unknown schema %q", name)
		}
		for i := 0; i < 200; i++ {
			q := oracle.Generate(rng, s, cfg)
			srcs = append(srcs, sqlparse.Format(q), q.String())
		}
	}
	// Mutations: splice bytes the lexer treats specially into valid
	// queries at random offsets.
	splice := []string{"'", "''", "--", "/*", "*/", ".", "1.", ".5", "\n", "\xc3\xa9", "\xff", "!", "<", ">"}
	n := len(srcs)
	for i := 0; i < 2000; i++ {
		src := srcs[rng.Intn(n)]
		at := rng.Intn(len(src) + 1)
		srcs = append(srcs, src[:at]+splice[rng.Intn(len(splice))]+src[at:])
	}
	return srcs
}

// TestLexerMatchesReference: the slicing lexer produces exactly the
// reference lexer's tokens (kind, text, line, column) and exactly its
// error strings.
func TestLexerMatchesReference(t *testing.T) {
	for _, src := range lexSources(t) {
		got, gerr := sqlparse.LexAll(src)
		want, werr := sqlparse.RefLexAll(src)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("lex %q: error %v, reference %v", src, gerr, werr)
		}
		if len(got) != len(want) {
			t.Fatalf("lex %q: %d tokens, reference %d", src, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("lex %q: token %d = %+v, reference %+v", src, i, got[i], want[i])
			}
		}
	}
}
