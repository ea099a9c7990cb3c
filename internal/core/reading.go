package core

import (
	"repro/internal/logictree"
	"repro/internal/trc"
)

// ReadingOrder returns the table-node IDs (SELECT box first) in the
// paper's reading order (Section 4.6): a depth-first traversal starting
// from the SELECT box, with restarts from unvisited source nodes — nodes
// without incoming arrows. Directed join edges are followed in arrow
// direction only; undirected edges (same-block joins and SELECT links)
// are traversable both ways.
func (d *Diagram) ReadingOrder() []int {
	out := make([]int, 0, len(d.Tables))
	visited := make([]bool, len(d.Tables))

	// Adjacency: forward[t] lists tables reachable from t in one step.
	forward := make([][]int, len(d.Tables))
	hasIncoming := make([]bool, len(d.Tables))
	for _, e := range d.Edges {
		switch {
		case e.Kind == EdgeSelect || !e.Directed:
			forward[e.From.Table] = append(forward[e.From.Table], e.To.Table)
			forward[e.To.Table] = append(forward[e.To.Table], e.From.Table)
		default:
			forward[e.From.Table] = append(forward[e.From.Table], e.To.Table)
			hasIncoming[e.To.Table] = true
		}
	}

	var dfs func(t int)
	dfs = func(t int) {
		if visited[t] {
			return
		}
		visited[t] = true
		out = append(out, t)
		for _, n := range forward[t] {
			dfs(n)
		}
	}
	dfs(SelectBoxID)
	for {
		restarted := false
		// Restart from unvisited sources, lowest ID first.
		for t := range d.Tables {
			if !visited[t] && !hasIncoming[t] {
				dfs(t)
				restarted = true
			}
		}
		if restarted {
			continue
		}
		// Disconnected remainder with no source (cannot happen for valid
		// diagrams, but keep the traversal total).
		all := true
		for t := range d.Tables {
			if !visited[t] {
				dfs(t)
				all = false
				break
			}
		}
		if all {
			return out
		}
	}
}

// Interpret generates the natural-language reading of a logic tree, in
// the style the paper uses to explain Fig. 1b: quantifier phrases over
// each block joined by "such that" and "and".
func Interpret(lt *logictree.LT) string {
	// Most readings fit the stack buffer, so the returned string is the
	// only allocation.
	var buf [1024]byte
	b := append(buf[:0], "Return "...)
	if len(lt.Select) == 0 {
		b = append(b, "all attributes"...)
	}
	for i, s := range lt.Select {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = s.Append(b)
	}
	if len(lt.GroupBy) > 0 {
		b = append(b, " for each "...)
		for i, g := range lt.GroupBy {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = g.Append(b)
		}
	}
	b = appendTableList(append(b, " from "...), lt.Root)
	if len(lt.Root.Preds) > 0 {
		b = appendPredList(append(b, " where "...), lt.Root)
	}
	for i, c := range lt.Root.Children {
		if i == 0 {
			b = append(b, ", such that "...)
		} else {
			b = append(b, " and "...)
		}
		b = appendNode(b, c)
	}
	b = append(b, '.')
	return string(b)
}

func appendNode(b []byte, n *logictree.Node) []byte {
	switch n.Quant {
	case trc.NotExists:
		b = append(b, "there does not exist "...)
	case trc.ForAll:
		b = append(b, "for all "...)
	default:
		b = append(b, "there exists "...)
	}
	b = appendTableList(b, n)
	if len(n.Preds) > 0 {
		b = appendPredList(append(b, " with "...), n)
	}
	if n.Quant == trc.ForAll && len(n.Children) == 1 {
		b = append(b, ", it holds that "...)
		return appendNode(b, n.Children[0])
	}
	for i, c := range n.Children {
		if i == 0 {
			b = append(b, ", such that "...)
		} else {
			b = append(b, " and "...)
		}
		b = appendNode(b, c)
	}
	return b
}

func appendTableList(b []byte, n *logictree.Node) []byte {
	for i, t := range n.Tables {
		if i > 0 {
			b = append(b, " and "...)
		}
		b = append(b, "a "...)
		b = append(b, t.Relation...)
		b = append(b, " tuple "...)
		b = append(b, t.Var...)
	}
	return b
}

func appendPredList(b []byte, n *logictree.Node) []byte {
	for i, p := range n.Preds {
		if i > 0 {
			b = append(b, " and "...)
		}
		b = p.Append(b)
	}
	return b
}
