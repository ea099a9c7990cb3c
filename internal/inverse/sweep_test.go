package inverse

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/logictree"
	"repro/internal/sqlparse"
	"repro/internal/trc"
)

// The adversarial sweep: diagram families at the edges of the serving
// path's default limits (127 tables, nesting 24, 512 predicates), valid
// and degenerate, each recovered under the constant bound. It logs the
// worst search nodes and time per family; EXPERIMENTS.md ("Verify by
// following the arrows") records a run.

// sweepTree describes a query block tree: par[b] is block b's parent
// (block 0 is the root), tables[b] its table count, and each link
// (b, x, y) a predicate of block b joining a table of block x to one of
// block y, both in b's scope.
type sweepTree struct {
	par, tables []int
	links       [][3]int
}

// block appends a block under p with n tables and returns its index.
func (s *sweepTree) block(p, n int) int {
	s.par = append(s.par, p)
	s.tables = append(s.tables, n)
	return len(s.par) - 1
}

func (s *sweepTree) link(b, x, y int) { s.links = append(s.links, [3]int{b, x, y}) }

// ancestors lists b's proper ancestors, nearest first.
func (s *sweepTree) ancestors(b int) []int {
	var out []int
	for b != 0 {
		b = s.par[b]
		out = append(out, b)
	}
	return out
}

func (s *sweepTree) lt() *logictree.LT {
	nodes := make([]*logictree.Node, len(s.par))
	for b := range s.par {
		q := trc.NotExists
		if b == 0 {
			q = trc.Exists
		}
		nodes[b] = &logictree.Node{Quant: q}
		for k := 0; k < s.tables[b]; k++ {
			nodes[b].Tables = append(nodes[b].Tables,
				logictree.Table{Var: fmt.Sprintf("B%dT%d", b, k), Relation: "R"})
		}
		if b > 0 {
			nodes[s.par[b]].Children = append(nodes[s.par[b]].Children, nodes[b])
		}
	}
	for i, l := range s.links {
		x, y := nodes[l[1]].Tables, nodes[l[2]].Tables
		a := trc.Attr{Var: x[i%len(x)].Var, Column: "k"}
		c := trc.Attr{Var: y[(i+1)%len(y)].Var, Column: "k"}
		nodes[l[0]].Preds = append(nodes[l[0]].Preds, trc.Pred{
			Left: trc.Term{Attr: &a}, Op: sqlparse.OpEq, Right: trc.Term{Attr: &c},
		})
	}
	return &logictree.LT{
		Root:   nodes[0],
		Select: []trc.SelectItem{{Attr: trc.Attr{Var: "B0T0", Column: "k"}}},
	}
}

// sweepFamilies builds each family's trees.
func sweepFamilies(seeds int) map[string][]*sweepTree {
	fam := map[string][]*sweepTree{}
	// Wide sibling blocks, each linked to the root: 126 blocks.
	for _, n := range []int{7, 32, 126} {
		s := &sweepTree{par: []int{-1}, tables: []int{1}}
		for i := 0; i < n; i++ {
			s.link(s.block(0, 1), i+1, 0)
		}
		fam["wide"] = append(fam["wide"], s)
	}
	// Deep chains to nesting 24 with 5 tables per block, linked to the
	// parent, to the root, or to every ancestor.
	for _, mode := range []string{"parent", "root", "all"} {
		s := &sweepTree{par: []int{-1}, tables: []int{5}}
		for d := 1; d <= 24; d++ {
			b := s.block(d-1, 5)
			switch mode {
			case "parent":
				s.link(b, b, d-1)
			case "root":
				s.link(b, b, 0)
			default:
				for _, a := range s.ancestors(b) {
					s.link(b, b, a)
				}
			}
		}
		fam["deep"] = append(fam["deep"], s)
	}
	// Blocks joined to their parent only through their children
	// (Property 5.2's second arm), at depth 1 and at depth 2: 63 pairs.
	for _, depth := range []int{1, 2} {
		s := &sweepTree{par: []int{-1}, tables: []int{1}}
		top := 0
		if depth == 2 {
			top = s.block(0, 1)
			s.link(top, top, 0)
		}
		for len(s.par) < 126 {
			a := s.block(top, 1)
			c := s.block(a, 1)
			s.link(c, c, a)
			s.link(c, c, top)
		}
		fam["through-children"] = append(fam["through-children"], s)
	}
	// Disconnected degenerate blocks: 126 blocks carrying no join, flat
	// and nested three deep.
	for _, nested := range []bool{false, true} {
		s := &sweepTree{par: []int{-1}, tables: []int{1}}
		for len(s.par) < 127 {
			p := 0
			if nested && len(s.par) > 1 && s.par[len(s.par)-1] < len(s.par)-3 {
				p = len(s.par) - 1
			}
			s.block(p, 1)
		}
		fam["disconnected"] = append(fam["disconnected"], s)
	}
	// 512 predicates: 42 blocks three deep, each linked to every
	// ancestor and to itself until the predicate limit.
	s := &sweepTree{par: []int{-1}, tables: []int{3}}
	for len(s.par) < 42 {
		p := 0
		if n := len(s.par); n > 1 && len(s.ancestors(n-1)) < 3 {
			p = n - 1
		}
		s.block(p, 3)
	}
	for len(s.links) < 512 {
		for b := 1; b < len(s.par) && len(s.links) < 512; b++ {
			for _, a := range append([]int{b}, s.ancestors(b)...) {
				s.link(b, b, a)
			}
		}
	}
	fam["512-predicates"] = []*sweepTree{s}
	// Random trees up to 126 blocks and nesting 6, each block linked to
	// a random subset of its scope, some predicates joining two outer
	// blocks (Property 5.1 violations).
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < seeds; i++ {
		s := &sweepTree{par: []int{-1}, tables: []int{1}}
		blocks, maxDepth := 2+rng.Intn(125), 1+rng.Intn(6)
		pLink, pOuter := rng.Float64(), rng.Float64()/2
		for len(s.par) < blocks {
			p := rng.Intn(len(s.par))
			if len(s.ancestors(p)) >= maxDepth {
				continue
			}
			b := s.block(p, 1+rng.Intn(2))
			scope := s.ancestors(b)
			for _, a := range scope {
				if rng.Float64() < pLink {
					s.link(b, b, a)
				}
			}
			if len(scope) >= 2 && rng.Float64() < pOuter {
				s.link(b, scope[rng.Intn(len(scope))], scope[rng.Intn(len(scope))])
			}
		}
		fam["random"] = append(fam["random"], s)
	}
	return fam
}

// TestAdversarialSweep: under the constant bound every family finishes
// far from it — a valid tree recovers to itself, and no diagram, valid
// or degenerate, comes within 10× of maxSearchNodes.
func TestAdversarialSweep(t *testing.T) {
	for name, trees := range sweepFamilies(2000) {
		worst, valid := 0, 0
		var slowest time.Duration
		for _, s := range trees {
			lt := s.lt()
			d, err := core.Build(lt)
			if err != nil {
				t.Fatalf("%s: build: %v", name, err)
			}
			start := time.Now()
			rec, nodes, err := RecoverContextStats(context.Background(), d, 0)
			slowest = max(slowest, time.Since(start))
			worst = max(worst, nodes)
			if nodes*10 > maxSearchNodes {
				t.Errorf("%s: %d search nodes, within 10× of the bound %d", name, nodes, maxSearchNodes)
			}
			if lt.Validate() == nil {
				valid++
				if err != nil || rec.Canonical() != lt.Canonical() {
					t.Errorf("%s: valid tree did not recover to itself: %v", name, err)
				}
			}
		}
		t.Logf("%-16s %4d trees (%4d valid): worst %4d nodes, slowest %v", name, len(trees), valid, worst, slowest)
	}
}
