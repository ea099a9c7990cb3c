package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"sync"

	queryvis "repro"
	"repro/internal/corpus"
	"repro/internal/oracle"
	"repro/internal/schema"
	"repro/internal/sqlparse"
)

// query is one SQL text over a built-in schema.
type query struct {
	name   string
	sql    string
	schema string
}

// paperCorpus lists the paper's queries in a fixed order: Fig. 1,
// Fig. 3, Fig. 24, App. D, App. F and App. G. The figure names match the
// golden files of internal/dot and internal/svg.
func paperCorpus() []query {
	out := []query{
		{"fig1_unique_set", corpus.Fig1UniqueSet, "beers"},
		{"fig3_qsome", corpus.Fig3QSome, "beers"},
		{"fig3_qonly", corpus.Fig3QOnly, "beers"},
	}
	for i, v := range corpus.Fig24Variants() {
		out = append(out, query{fmt.Sprintf("fig24_variant%d", i), v, "sailors"})
	}
	for _, q := range corpus.QualificationQuestions() {
		out = append(out, query{"appD_" + q.ID, q.SQL, "chinook"})
	}
	for _, q := range corpus.StudyQuestions() {
		out = append(out, query{"appF_" + q.ID, q.SQL, "chinook"})
	}
	for _, g := range corpus.AppendixG() {
		out = append(out, query{"appG_" + g.Schema.Name + "_" + g.Pattern.String(), g.SQL, g.Schema.Name})
	}
	return out
}

// generated returns n distinct oracle queries at the generator's full
// nesting depth, spread round-robin over the five built-in schemas.
func generated(seed int64, n int) []query {
	cfg := oracle.DefaultConfig()
	master := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, n)
	out := make([]query, 0, n)
	for tries := 0; len(out) < n && tries < 20*n; tries++ {
		name := cfg.Schemas[len(out)%len(cfg.Schemas)]
		sch := mustSchema(name)
		rng := rand.New(rand.NewSource(master.Int63()))
		sql := sqlparse.Format(oracle.Generate(rng, sch, cfg))
		if seen[name+"\x00"+sql] {
			continue
		}
		seen[name+"\x00"+sql] = true
		out = append(out, query{fmt.Sprintf("gen%d", len(out)), sql, name})
	}
	return out
}

func mustSchema(name string) *schema.Schema {
	s, ok := schema.ByName(name)
	if !ok {
		panic("unknown built-in schema " + name)
	}
	return s
}

var keywordRE = regexp.MustCompile(`\b(SELECT|FROM|WHERE|AND|NOT|EXISTS|IN|ANY|ALL|GROUP|BY)\b`)

// respellings returns up to k distinct spellings of sql, the original
// first. The others rename table aliases, change keyword case and change
// whitespace, each drawn from seed, and are kept only when admit accepts
// them: callers admit a spelling that the library renders to the
// original's bytes. Drawing until k are admitted gives every seed a
// corpus of the same size and the same mix of paper queries.
func respellings(seed int64, sql string, k int, admit func(string) bool) []string {
	rng := rand.New(rand.NewSource(seed))
	out := []string{sql}
	seen := map[string]bool{sql: true}
	for tries := 0; len(out) < k && tries < 16*k; tries++ {
		s := sql
		if rng.Intn(2) == 0 {
			q, err := sqlparse.Parse(sql)
			if err != nil {
				return out
			}
			renameAliases(q, fmt.Sprintf("x%d_", rng.Intn(100)))
			s = sqlparse.Format(q)
		}
		switch rng.Intn(3) {
		case 0:
			s = keywordRE.ReplaceAllStringFunc(s, strings.ToLower)
		case 1:
			s = keywordRE.ReplaceAllStringFunc(s, func(w string) string {
				return w[:1] + strings.ToLower(w[1:])
			})
		}
		switch rng.Intn(3) {
		case 0: // one line; literals keep their single spaces
			s = strings.Join(strings.Fields(s), " ")
		case 1:
			s = "\n  " + strings.ReplaceAll(s, "\n", "\n    ") + "\n"
		}
		if !seen[s] {
			seen[s] = true
			if admit(s) {
				out = append(out, s)
			}
		}
	}
	return out
}

// renameAliases gives every table alias of q a new name with the given
// prefix and rewrites the column references qualified by it, across all
// nested blocks.
func renameAliases(q *sqlparse.Query, prefix string) {
	names := map[string]string{}
	var collect func(b *sqlparse.Query)
	collect = func(b *sqlparse.Query) {
		for i := range b.From {
			if a := b.From[i].Alias; a != "" {
				if _, ok := names[a]; !ok {
					names[a] = fmt.Sprintf("%s%d", prefix, len(names))
				}
				b.From[i].Alias = names[a]
			}
		}
		for _, s := range b.Subqueries() {
			collect(s)
		}
	}
	collect(q)
	ref := func(c *sqlparse.ColumnRef) {
		if n, ok := names[c.Table]; ok {
			c.Table = n
		}
	}
	var rewrite func(b *sqlparse.Query)
	rewrite = func(b *sqlparse.Query) {
		for i := range b.Select {
			ref(&b.Select[i].Col)
		}
		for i := range b.GroupBy {
			ref(&b.GroupBy[i])
		}
		for _, p := range b.Where {
			switch p := p.(type) {
			case *sqlparse.Compare:
				if p.Left.Col != nil {
					ref(p.Left.Col)
				}
				if p.Right.Col != nil {
					ref(p.Right.Col)
				}
			case *sqlparse.In:
				ref(&p.Col)
				rewrite(p.Sub)
			case *sqlparse.Quantified:
				ref(&p.Col)
				rewrite(p.Sub)
			case *sqlparse.Exists:
				rewrite(p.Sub)
			}
		}
	}
	rewrite(q)
}

// formats are the renderings a diagram request can ask for.
var formats = []string{"dot", "svg", "text"}

// wireDiagram is the part of a /v1/diagram response body that must
// match the reference byte for byte.
type wireDiagram struct {
	Format       string `json:"format"`
	Diagram      string `json:"diagram"`
	VerifyStatus string `json:"verify_status"`
	Degraded     string `json:"degraded"`
}

// expect is the reference of one diagram request. It holds the
// diagram's SHA-256 rather than its bytes, which keeps the load
// generator's heap, and so its garbage collector, small.
type expect struct {
	format, verifyStatus, degraded string
	digest                         [sha256.Size]byte
}

func (w wireDiagram) expect() expect {
	return expect{w.Format, w.VerifyStatus, w.Degraded, sha256.Sum256([]byte(w.Diagram))}
}

// servedResult runs the library the way a queryvisd instance does for
// one request (default limits, the given verification mode) before
// rendering.
func servedResult(sql, schemaName string, simplify bool, verify queryvis.VerifyMode) (*queryvis.Result, error) {
	lim := queryvis.DefaultLimits()
	return queryvis.FromSQLContext(context.Background(), sql, mustSchema(schemaName),
		queryvis.Options{Simplify: simplify, Limits: &lim, Verify: verify})
}

// servedExpect renders res as the response to a request for format.
func servedExpect(res *queryvis.Result, format string) (expect, error) {
	if res.Degraded == queryvis.RungTRC {
		return wireDiagram{"trc", res.TRCText, res.VerifyStatus, res.Degraded}.expect(), nil
	}
	out, err := render(res, format)
	if err != nil {
		return expect{}, err
	}
	status := res.VerifyStatus
	if status == queryvis.VerifyStatusOff {
		status = ""
	}
	return wireDiagram{format, out, status, res.Degraded}.expect(), nil
}

func render(res *queryvis.Result, format string) (string, error) {
	ctx := context.Background()
	switch format {
	case "svg":
		return res.SVGContext(ctx)
	case "text":
		return res.TextContext(ctx)
	}
	return res.DOTContext(ctx, queryvis.DOTOptions{})
}

// parallel runs f(i) for i in [0, n) on nproc goroutines.
func parallel(n int, f func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	wg.Wait()
}
