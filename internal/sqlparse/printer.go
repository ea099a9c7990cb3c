package sqlparse

import (
	"strings"
)

// Format pretty-prints the query in the paper's style: capitalized
// keywords, one clause per line, subqueries indented under the predicate
// that introduces them (compare Fig. 1a and Fig. 3b).
func Format(q *Query) string {
	var b strings.Builder
	formatQuery(&b, q, 0)
	b.WriteString(";")
	return b.String()
}

func indent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

func formatQuery(b *strings.Builder, q *Query, depth int) {
	indent(b, depth)
	b.WriteString("SELECT ")
	if q.Star {
		b.WriteString("*")
	} else {
		for i, s := range q.Select {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(s.String())
		}
	}
	b.WriteString("\n")
	indent(b, depth)
	b.WriteString("FROM ")
	for i, t := range q.From {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	if len(q.Where) > 0 {
		b.WriteString("\n")
		indent(b, depth)
		b.WriteString("WHERE ")
		for i, p := range q.Where {
			if i > 0 {
				b.WriteString("\n")
				indent(b, depth)
				b.WriteString("AND ")
			}
			formatPredicate(b, p, depth)
		}
	}
	if len(q.GroupBy) > 0 {
		b.WriteString("\n")
		indent(b, depth)
		b.WriteString("GROUP BY ")
		for i, c := range q.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.String())
		}
	}
}

func formatPredicate(b *strings.Builder, p Predicate, depth int) {
	switch p := p.(type) {
	case *Compare:
		b.WriteString(p.String())
	case *Exists:
		if p.Negated {
			b.WriteString("NOT EXISTS (\n")
		} else {
			b.WriteString("EXISTS (\n")
		}
		formatQuery(b, p.Sub, depth+1)
		b.WriteString(")")
	case *In:
		b.WriteString(p.Col.String())
		if p.Negated {
			b.WriteString(" NOT IN (\n")
		} else {
			b.WriteString(" IN (\n")
		}
		formatQuery(b, p.Sub, depth+1)
		b.WriteString(")")
	case *Quantified:
		if p.Negated {
			b.WriteString("NOT ")
		}
		b.WriteString(p.Col.String())
		b.WriteString(" ")
		b.WriteString(p.Op.String())
		if p.All {
			b.WriteString(" ALL (\n")
		} else {
			b.WriteString(" ANY (\n")
		}
		formatQuery(b, p.Sub, depth+1)
		b.WriteString(")")
	}
}

// wordSplitter pads punctuation with spaces for WordCount; a
// strings.Replacer is immutable and safe for concurrent use.
var wordSplitter = strings.NewReplacer(
	"(", " ", ")", " ", ",", " ", ";", " ",
	"=", " = ", "<>", " <> ", "<", " < ", ">", " > ",
)

// WordCount counts whitespace-separated words in SQL text after splitting
// punctuation-joined tokens apart. It is the metric behind the paper's
// Section 4.8 claim that Qonly's SQL text has 167% more words than Qsome's.
func WordCount(sql string) int {
	n := 0
	for _, f := range strings.Fields(wordSplitter.Replace(sql)) {
		if f != "" {
			n++
		}
	}
	return n
}
