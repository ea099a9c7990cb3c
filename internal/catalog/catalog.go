// Package catalog implements the paper's motivating application
// (Section 1): browsing a repository of existing SQL queries by their
// *logical pattern*. Systems like CQMS, SQL QuerIE, DBease, and SQLshare
// let users re-use stored queries; QueryVis diagrams make the stored
// queries recognizable. The catalog indexes each stored query by the
// canonical fingerprint of its diagram's pattern, so all queries with the
// same logical shape — across schemas — land in one bucket, and
// look-alike queries can be retrieved in O(1) rather than by pairwise
// isomorphism tests.
package catalog

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/logictree"
	"repro/internal/pipeline"
	"repro/internal/schema"
)

// Entry is one stored query with its derived artifacts.
type Entry struct {
	Name    string
	SQL     string
	Schema  *schema.Schema
	Tree    *logictree.LT
	Diagram *core.Diagram
	Key     string // canonical pattern fingerprint
}

// Catalog is a pattern-indexed query repository.
type Catalog struct {
	entries []*Entry
	byKey   map[string][]*Entry
	byName  map[string]*Entry
}

// New creates an empty catalog.
func New() *Catalog {
	return &Catalog{
		byKey:  make(map[string][]*Entry),
		byName: make(map[string]*Entry),
	}
}

// Add runs a query through the pipeline to its diagram and indexes it.
// Names must be unique.
func (c *Catalog) Add(name, sql string, s *schema.Schema) (*Entry, error) {
	if _, dup := c.byName[name]; dup {
		return nil, fmt.Errorf("catalog already has an entry named %q", name)
	}
	var a pipeline.Artifacts
	if err := pipeline.Run(context.TODO(), &a, sql, s, pipeline.Options{}, pipeline.Build, nil); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	entry := &Entry{
		Name: name, SQL: sql, Schema: s,
		Tree: a.Tree, Diagram: a.Diagram,
		Key: core.PatternKey(a.Diagram),
	}
	c.entries = append(c.entries, entry)
	c.byKey[entry.Key] = append(c.byKey[entry.Key], entry)
	c.byName[name] = entry
	return entry, nil
}

// Len returns the number of stored queries.
func (c *Catalog) Len() int { return len(c.entries) }

// Lookup returns the entry with the given name.
func (c *Catalog) Lookup(name string) (*Entry, bool) {
	e, ok := c.byName[name]
	return e, ok
}

// SimilarTo returns every stored query sharing the entry's logical
// pattern, excluding the entry itself.
func (c *Catalog) SimilarTo(name string) []*Entry {
	e, ok := c.byName[name]
	if !ok {
		return nil
	}
	var out []*Entry
	for _, other := range c.byKey[e.Key] {
		if other != e {
			out = append(out, other)
		}
	}
	return out
}

// SimilarToSQL indexes an ad-hoc query (without storing it) and returns
// the stored queries sharing its pattern — "find a past query like this
// one".
func (c *Catalog) SimilarToSQL(sql string, s *schema.Schema) ([]*Entry, error) {
	var a pipeline.Artifacts
	if err := pipeline.Run(context.TODO(), &a, sql, s, pipeline.Options{}, pipeline.Build, nil); err != nil {
		return nil, err
	}
	return append([]*Entry(nil), c.byKey[core.PatternKey(a.Diagram)]...), nil
}

// Group is one pattern bucket.
type Group struct {
	Key     string
	Entries []*Entry
}

// Groups returns the pattern buckets, largest first (ties by key), each
// with entries in insertion order.
func (c *Catalog) Groups() []Group {
	out := make([]Group, 0, len(c.byKey))
	for k, es := range c.byKey {
		out = append(out, Group{Key: k, Entries: es})
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Entries) != len(out[j].Entries) {
			return len(out[i].Entries) > len(out[j].Entries)
		}
		return out[i].Key < out[j].Key
	})
	return out
}
