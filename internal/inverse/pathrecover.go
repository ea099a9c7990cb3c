package inverse

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/logictree"
)

// This file implements the *literal* Appendix B.1 recovery procedure for
// path diagrams: instead of searching over candidate trees (Solutions),
// the nesting depth of each table group is deduced directly from the
// pattern family — the case analysis the paper's proof walks through.
// RecoverPathDepths and the search-based recovery are tested against each
// other on all 16 valid patterns.

// PathDepths maps group index → recovered nesting depth.
type PathDepths map[int]int

// RecoverPathDepths recovers the depth of every table group of a diagram
// whose logic tree is a path (each block has at most one nested block),
// using the Appendix B.1 case analysis:
//
//   - the root group (depth 0) is identified by its missing box;
//   - family ⟨A,B⟩ (root has an outgoing edge to a group that itself has a
//     one-step outgoing edge): depths follow the A→B→D chain;
//   - family ⟨A,B̄⟩ (edge B absent): the depth-2 group is the one with no
//     incoming arrow; the depth-3 group is D's target;
//   - family ⟨Ā⟩ (edge A absent): edges B and C must be present; the
//     depth-2 group is the source of the C edge into the root, the
//     depth-1 group is the source of B's edge into depth 2.
//
// It fails for non-path diagrams (branching trees need the Appendix B.2
// decompositions, which Solutions handles generally).
func RecoverPathDepths(d *core.Diagram) (PathDepths, error) {
	g, err := buildGraph(d)
	if err != nil {
		return nil, err
	}
	n := len(g.groups)
	if n > 4 {
		return nil, fmt.Errorf("path recovery supports up to depth 3 (4 groups), got %d groups", n)
	}
	depths := PathDepths{0: 0}
	if n == 1 {
		return depths, nil
	}

	// Adjacency at the group level.
	out := make(map[int][]int)
	in := make(map[int][]int)
	has := func(from, to int) bool {
		for _, e := range g.edges {
			if e.from == from && e.to == to {
				return true
			}
		}
		return false
	}
	for _, e := range g.edges {
		out[e.from] = append(out[e.from], e.to)
		in[e.to] = append(in[e.to], e.from)
	}

	nonRoot := make([]int, 0, n-1)
	for i := 1; i < n; i++ {
		nonRoot = append(nonRoot, i)
	}

	switch len(nonRoot) {
	case 1:
		// Depth-1 only: the single boxed group is depth 1.
		depths[nonRoot[0]] = 1
		return depths, nil

	case 2:
		// Depths 1 and 2. Edge A (0→1) present: follow it. Otherwise the
		// Ā family requires B (1→2) and C (2→0): depth 2 is the group
		// with an edge into the root.
		for _, v := range nonRoot {
			if has(0, v) {
				depths[v] = 1
				for _, w := range nonRoot {
					if w != v {
						depths[w] = 2
					}
				}
				return depths, nil
			}
		}
		for _, v := range nonRoot {
			if has(v, 0) {
				depths[v] = 2
				for _, w := range nonRoot {
					if w != v {
						depths[w] = 1
					}
				}
				return depths, nil
			}
		}
		return nil, fmt.Errorf("no identifying edge for a depth-2 path")

	case 3:
		// The full depth-3 case analysis.
		rootOut := out[0]
		if len(rootOut) > 0 {
			// Edge A present: its target is depth 1.
			d1 := rootOut[0]
			// Family ⟨A,B⟩: depth 1 has an outgoing edge to depth 2,
			// which has an outgoing edge (D) to depth 3.
			if len(out[d1]) > 0 {
				d2 := out[d1][0]
				depths[d1], depths[d2] = 1, 2
				for _, v := range nonRoot {
					if v != d1 && v != d2 {
						depths[v] = 3
					}
				}
				return depths, nil
			}
			// Family ⟨A,B̄⟩: B absent forces E (3→1) present; the depth-2
			// group has no incoming arrow, and D points 2→3.
			for _, v := range nonRoot {
				if v == d1 {
					continue
				}
				if len(in[v]) == 0 {
					d2 := v
					depths[d1], depths[d2] = 1, 2
					for _, w := range nonRoot {
						if w != d1 && w != d2 {
							depths[w] = 3
						}
					}
					return depths, nil
				}
			}
			return nil, fmt.Errorf("family ⟨A,B̄⟩: no source group found for depth 2")
		}
		// Family ⟨Ā⟩: B and C present. C is the edge from depth 2 into
		// the root; B goes depth 1 → depth 2; D goes depth 2 → depth 3.
		for _, d2 := range nonRoot {
			if !has(d2, 0) {
				continue
			}
			// depth 1 is the group with an edge into d2; depth 3 is d2's
			// other outgoing target.
			var d1v, d3v = -1, -1
			for _, v := range nonRoot {
				if v == d2 {
					continue
				}
				switch {
				case has(v, d2):
					d1v = v
				case has(d2, v):
					d3v = v
				}
			}
			if d1v == -1 || d3v == -1 {
				continue
			}
			depths[d1v], depths[d2], depths[d3v] = 1, 2, 3
			return depths, nil
		}
		return nil, fmt.Errorf("family ⟨Ā⟩: could not identify the depth-2 group")
	}
	return nil, fmt.Errorf("unreachable")
}

// RecoverPath recovers the full logic tree of a path diagram via the
// Appendix B.1 depth rules, then materializes it with the shared
// predicate-placement logic.
func RecoverPath(d *core.Diagram) (*logictree.LT, error) {
	depths, err := RecoverPathDepths(d)
	if err != nil {
		return nil, err
	}
	g, err := buildGraph(d)
	if err != nil {
		return nil, err
	}
	// Parent of the group at depth k is the group at depth k-1.
	byDepth := map[int]int{}
	for gi, dep := range depths {
		if _, dup := byDepth[dep]; dup {
			return nil, fmt.Errorf("two groups at depth %d: not a path", dep)
		}
		byDepth[dep] = gi
	}
	var s solver
	s.init(g, false, 0)
	for dep := 1; dep < len(g.groups); dep++ {
		gi, ok := byDepth[dep]
		if !ok {
			return nil, fmt.Errorf("no group at depth %d", dep)
		}
		if !s.join(gi, byDepth[dep-1]) {
			return nil, fmt.Errorf("recovered depths are inconsistent with the arrow rules")
		}
	}
	lt := g.ltFromAssignment(s.parent, s.rdep)
	if err := lt.Validate(); err != nil {
		return nil, fmt.Errorf("recovered tree is degenerate: %w", err)
	}
	return lt, nil
}
