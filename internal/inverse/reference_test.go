package inverse

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/logictree"
	"repro/internal/schema"
)

// referenceSolutions is the enumerate-then-check search the pruned one
// replaced: it tries every parent assignment of the non-root groups,
// (n−1)^(n−1) of them, and checks the arrow rules, the depth bound and
// (with validate) Validate only on complete ones. It is the reference
// the pruned search must match, tree for tree and error for error.
func referenceSolutions(ctx context.Context, d *core.Diagram, validate bool, budget int) ([]*logictree.LT, int, error) {
	g, err := buildGraph(d)
	if err != nil {
		return nil, 0, err
	}
	st := &search{ctx: ctx, budget: budget}
	n := len(g.groups)
	type keyed struct {
		key string
		lt  *logictree.LT
	}
	var found []keyed
	var seen map[string]bool
	buf := make([]int, 2*n)
	parent, depth := buf[:n], buf[n:]
	parent[0] = -1

	var rec func(i int) error
	rec = func(i int) error {
		if err := st.step(); err != nil {
			return err
		}
		if i == n {
			if !g.consistent(parent, depth) {
				return nil
			}
			lt := g.ltFromAssignment(parent, depth)
			if validate && lt.Validate() != nil {
				return nil
			}
			if len(found) == 0 {
				found = append(found, keyed{lt: lt})
				return nil
			}
			if seen == nil {
				found[0].key = found[0].lt.Canonical()
				seen = map[string]bool{found[0].key: true}
			}
			key := lt.Canonical()
			if !seen[key] {
				seen[key] = true
				found = append(found, keyed{key, lt})
			}
			return nil
		}
		for p := 0; p < n; p++ {
			if p == i {
				continue
			}
			parent[i] = p
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(1); err != nil {
		return nil, st.nodes, err
	}
	sort.Slice(found, func(i, j int) bool { return found[i].key < found[j].key })
	var out []*logictree.LT
	for _, f := range found {
		out = append(out, f.lt)
	}
	return out, st.nodes, nil
}

// consistent reports whether a parent assignment (parent[i] for each
// non-root group; parent[0] = -1) yields depths and ancestry that satisfy
// the arrow rules for every cross-group edge. It writes each group's
// depth into depth, which ltFromAssignment reads when it holds; the reference enumerator
// checks every complete assignment with it.
func (g *graph) consistent(parent, depth []int) bool {
	n := len(g.groups)
	depth[0] = 0
	// Compute depths; detect cycles and the depth bound.
	for i := 1; i < n; i++ {
		d, v := 0, i
		for v != 0 {
			v = parent[v]
			d++
			if d > n {
				return false // cycle
			}
		}
		depth[i] = d
		if d > logictree.MaxSupportedDepth {
			return false
		}
	}
	anc := func(a, b int) bool { // a is a proper ancestor of b
		for b != 0 {
			b = parent[b]
			if b == a {
				return true
			}
		}
		return a == 0
	}
	for _, ge := range g.edges {
		u, v := ge.from, ge.to
		du, dv := depth[u], depth[v]
		switch {
		case dv == du+1 && anc(u, v):
			// shallower → one-level-deeper descendant: ok
		case du >= dv+2 && anc(v, u):
			// deeper (≥2 levels) → ancestor: ok
		default:
			return false
		}
	}
	return true
}

// search carries the per-call resource accounting of the tree search: a
// visited-node counter checked against the budget, and an amortized
// context check (the first node, then one ctx.Err() poll every 256
// nodes, so the fast path stays an increment).
type search struct {
	ctx    context.Context
	budget int // <= 0: unbounded
	nodes  int
	err    error // first budget/context error; sticky
}

// step accounts for one visited search node. It returns a non-nil error —
// sticky across calls — once the budget is exhausted or the context is
// done.
func (st *search) step() error {
	if st.err != nil {
		return st.err
	}
	st.nodes++
	if st.budget > 0 && st.nodes > st.budget {
		st.err = &BudgetError{Nodes: st.nodes, Budget: st.budget}
		return st.err
	}
	if st.ctx != nil && st.nodes&255 == 1 {
		if err := st.ctx.Err(); err != nil {
			st.err = err
			return st.err
		}
	}
	return nil
}

// differentialCase is one diagram of the differential corpus.
type differentialCase struct {
	name string
	d    *core.Diagram
}

// differentialCorpus gathers the diagrams the pruned search is checked
// on: the paper's figures and questions, the Fig. 24 variants, App. G,
// every App. B.1 path pattern (valid and degenerate), a disconnected
// subquery, the wide sibling queries up to 7 blocks, and seeded
// RandomValid trees at depth ≤ 3, raw and simplified then unsimplified.
func differentialCorpus(t *testing.T, seed int64, trees int) []differentialCase {
	t.Helper()
	var out []differentialCase
	add := func(name string, lt *logictree.LT) {
		d, err := core.Build(lt)
		if err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		out = append(out, differentialCase{name, d})
	}
	sql := func(name, src string, s *schema.Schema) { add(name, ltFor(t, src, s)) }

	sql("fig1", corpus.Fig1UniqueSet, schema.Beers())
	sql("fig3-qsome", corpus.Fig3QSome, schema.Beers())
	sql("fig3-qonly", corpus.Fig3QOnly, schema.Beers())
	for i, v := range corpus.Fig24Variants() {
		sql(fmt.Sprintf("fig24-%d", i), v, schema.Sailors())
	}
	for _, q := range corpus.QualificationQuestions() {
		sql("appD-"+q.ID, q.SQL, q.Schema())
	}
	for _, q := range corpus.StudyQuestions() {
		sql("appF-"+q.ID, q.SQL, q.Schema())
	}
	for i, q := range corpus.AppendixG() {
		sql(fmt.Sprintf("appG-%d-%s", i, q.Pattern), q.SQL, q.Schema)
	}
	for _, p := range AllPathPatterns() {
		add("path-"+patternKey(p), BuildPathLT(p))
	}
	sql("disconnected", `
		SELECT F.person FROM Frequents F
		WHERE NOT EXISTS (SELECT * FROM Serves S WHERE S.bar = 'Owl')`, schema.Beers())
	for n := 1; n <= 7; n++ {
		sql(fmt.Sprintf("wide-%d", n), wideQuery(n), schema.Beers())
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < trees; i++ {
		lt := logictree.RandomValid(rng, rng.Intn(logictree.MaxSupportedDepth+1))
		add(fmt.Sprintf("random-%d-%d", seed, i), lt)
		add(fmt.Sprintf("random-%d-%d-unsimplified", seed, i), lt.Simplified().Unsimplify())
	}
	return out
}

// keysOf is the canonical key of each tree, in order.
func keysOf(lts []*logictree.LT) []string {
	out := make([]string, len(lts))
	for i, lt := range lts {
		out[i] = lt.Canonical()
	}
	return out
}

// sameKind reports whether two errors are both nil or of one type.
func sameKind(a, b error) bool {
	return fmt.Sprintf("%T", a) == fmt.Sprintf("%T", b)
}

// TestPrunedSearchMatchesReference: over the whole differential corpus
// the pruned search returns the reference enumerator's trees, in its
// order, and its error kind — validated and relaxed — and Recover agrees
// with the reference on the one tree or on the ambiguity. The seed
// follows the test's -count iteration, so repeated runs draw new trees.
func TestPrunedSearchMatchesReference(t *testing.T) {
	seed := nextDifferentialSeed()
	for _, c := range differentialCorpus(t, seed, 60) {
		for _, validate := range []bool{true, false} {
			want, _, werr := referenceSolutions(context.Background(), c.d, validate, -1)
			got, _, gerr := solve(context.Background(), c.d, validate, -1, 0)
			if !sameKind(werr, gerr) {
				t.Fatalf("%s (validate=%t): error %v, reference %v", c.name, validate, gerr, werr)
			}
			if fmt.Sprint(keysOf(got)) != fmt.Sprint(keysOf(want)) {
				t.Fatalf("%s (validate=%t): %d trees, reference %d\n got  %q\n want %q",
					c.name, validate, len(got), len(want), keysOf(got), keysOf(want))
			}
			if !validate {
				continue
			}
			rec, rerr := Recover(c.d)
			switch {
			case werr != nil:
				if !sameKind(werr, rerr) {
					t.Fatalf("%s: Recover error %v, reference %v", c.name, rerr, werr)
				}
			case len(want) == 1:
				if rerr != nil || rec.Canonical() != want[0].Canonical() {
					t.Fatalf("%s: Recover = %v, want the reference's one tree", c.name, rerr)
				}
			default:
				var amb *AmbiguityError
				if !errors.As(rerr, &amb) || (amb.Solutions == 0) != (len(want) == 0) {
					t.Fatalf("%s: Recover error %v, reference found %d trees", c.name, rerr, len(want))
				}
			}
		}
	}
}

// differentialSeed advances once per run of TestPrunedSearchMatchesReference,
// so `go test -count=N` covers N distinct seeded samples.
var differentialSeed int64 = 20200614

func nextDifferentialSeed() int64 {
	differentialSeed++
	return differentialSeed
}
