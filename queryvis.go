// Package queryvis is the public API of this QueryVis reproduction: it
// turns SQL queries in the paper's fragment (nested conjunctive queries
// with inequalities, plus GROUP BY/aggregates) into logic-based visual
// diagrams, following the pipeline of Fig. 8:
//
//	SQL → tuple relational calculus → logic tree →
//	[∄∄ → ∀∃ simplification] → QueryVis diagram → GraphViz DOT
//
// Quick start:
//
//	s, _ := queryvis.SchemaByName("beers")
//	res, err := queryvis.FromSQL(sql, s, queryvis.Options{Simplify: true})
//	fmt.Println(res.DOT())           // GraphViz program
//	fmt.Println(res.Interpretation)  // natural-language reading
//
// The heavy lifting lives in the internal packages (sqlparse, trc,
// logictree, core, inverse, dot, rel, study, ...); this package re-exports
// the types a downstream user needs and wires the pipeline together.
package queryvis

import (
	"context"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/inverse"
	"repro/internal/logictree"
	"repro/internal/pipeline"
	"repro/internal/rel"
	"repro/internal/schema"
	"repro/internal/sqlparse"
	"repro/internal/svg"
	"repro/internal/telemetry"
	"repro/internal/trc"
)

// Re-exported types. The aliases let callers use the full functionality
// of the underlying packages through this package's namespace.
type (
	// Schema is a relational schema queries are resolved against.
	Schema = schema.Schema
	// Query is a parsed SQL query in the supported fragment.
	Query = sqlparse.Query
	// TRC is a tuple-relational-calculus expression.
	TRC = trc.Expr
	// LogicTree is the logic-tree representation of a query (Fig. 5).
	LogicTree = logictree.LT
	// Diagram is a QueryVis diagram.
	Diagram = core.Diagram
	// DOTOptions controls GraphViz rendering.
	DOTOptions = dot.Options
	// Database is an in-memory database for executing queries.
	Database = rel.Database
	// EvalResult is the output of executing a query.
	EvalResult = rel.Result
)

// NewSchema creates an empty schema; add tables with AddTable.
func NewSchema(name string) *Schema { return schema.New(name) }

// SchemaByName returns one of the paper's built-in schemas: "beers",
// "chinook", "sailors", "students", or "actors".
func SchemaByName(name string) (*Schema, bool) { return schema.ByName(name) }

// BuiltinSchemaNames lists the names SchemaByName accepts.
func BuiltinSchemaNames() []string { return schema.BuiltinNames() }

// Parse parses a SQL query in the supported fragment (Fig. 4 grammar).
func Parse(sql string) (*Query, error) { return sqlparse.Parse(sql) }

// Options controls the FromSQL pipeline.
type Options struct {
	// Simplify applies the ∄∄ → ∀∃ rewrite (Section 4.7), producing the
	// ∀-form diagrams of Fig. 2c / Fig. 12b.
	Simplify bool
	// KeepExistsBlocks disables the flattening of ∃ subquery blocks into
	// their parent. Flattening (the default) matches the rendered
	// diagrams, which draw no box for ∃, and is required for diagram → LT
	// recovery.
	KeepExistsBlocks bool
	// Limits bounds the resources the pipeline may spend on this query;
	// nil disables all bounds. See DefaultLimits for the service defaults.
	Limits *Limits
	// Verify selects the self-verification mode: VerifyOff (default) skips
	// the check, VerifyDegrade proves the diagram via inverse recovery and
	// walks the degradation ladder when it cannot, VerifyStrict fails the
	// pipeline with a *VerifyError instead of degrading. See verify.go.
	Verify VerifyMode
	// Tracer, when non-nil, records one timed span per pipeline stage
	// (parse, resolve, convert, logictree, build, verify, render), with
	// verification annotated by outcome, ladder rung, and inverse-search
	// budget spent. Nil disables tracing at near-zero cost.
	Tracer *telemetry.Tracer
	// Cache, when non-nil, is the request-keyed diagram cache consulted
	// by FromSQLCached / FromSQLCachedContext (see cached.go). The plain
	// FromSQL entry points never touch it.
	Cache *DiagramCache
}

// Result bundles every pipeline stage for one query: the embedded
// artifacts are the parsed Query, its TRC, the RawTree (before
// simplification), the Tree (after options are applied), the Diagram
// and its natural-language Interpretation (Section 4.6).
type Result struct {
	pipeline.Artifacts

	// Recovered is the logic tree inverse-recovered from the diagram when
	// verification succeeded (Proposition 5.1's witness), nil otherwise.
	Recovered *LogicTree
	// VerifyStatus reports the verification outcome: one of the
	// VerifyStatus* constants ("off" unless Options.Verify was enabled).
	VerifyStatus string
	// VerifyDetail carries the human-readable reason behind a
	// non-verified status.
	VerifyDetail string
	// Degraded names the degradation-ladder rung that served this result
	// ("" when the requested artifact itself was served): RungSimplified,
	// RungExistsForm, or RungTRC.
	Degraded string
	// TRCText is the Fig. 9-style calculus rendering served by the RungTRC
	// rung, where no diagram could be produced.
	TRCText string

	limits *Limits // bounds applied by the pipeline; nil = unbounded
}

// FromSQL runs the full pipeline: parse, resolve against the schema,
// convert to TRC, build and (optionally) simplify the logic tree, and
// construct the diagram. It is FromSQLContext without a deadline; like
// it, FromSQL contains internal panics and returns them as errors.
func FromSQL(sql string, s *Schema, opts Options) (*Result, error) {
	return FromSQLContext(context.Background(), sql, s, opts)
}

// DOT renders the diagram as a GraphViz program with default options.
func (r *Result) DOT() string { return dot.Render(r.Diagram) }

// DOTWith renders the diagram with explicit options.
func (r *Result) DOTWith(o DOTOptions) string { return dot.RenderWith(r.Diagram, o) }

// Text renders the diagram as indented plain text for terminals.
func (r *Result) Text() string { return dot.Text(r.Diagram) }

// SVG renders the diagram as a standalone SVG document with a layered
// layout — no GraphViz needed.
func (r *Result) SVG() string { return svg.Render(r.Diagram) }

// ReadingOrder returns the diagram's table IDs in the Section 4.6
// reading order (SELECT box first).
func (r *Result) ReadingOrder() []int { return r.Diagram.ReadingOrder() }

// Validate checks the query's logic tree for the non-degeneracy
// properties (5.1, 5.2) and the depth bound under which diagrams are
// provably unambiguous.
func (r *Result) Validate() error { return r.Tree.Validate() }

// RecoverLT maps a diagram back to its unique logic tree (Proposition
// 5.1). The diagram must be in ∄ form — built without Options.Simplify.
func RecoverLT(d *Diagram) (*LogicTree, error) { return inverse.Recover(d) }

// SamePattern reports whether two diagrams share the same logical
// pattern: isomorphic up to renaming of tables, attributes, and constant
// values (the Section 1.1 "common visual patterns" notion).
func SamePattern(a, b *Diagram) bool { return core.Isomorphic(a, b, core.Pattern) }

// EqualDiagrams reports whether two diagrams are isomorphic including
// names and constants.
func EqualDiagrams(a, b *Diagram) bool { return core.Isomorphic(a, b, core.Exact) }

// Execute evaluates the query over an in-memory database under the
// paper's semantics (set semantics, 2-valued logic).
func Execute(db *Database, sql string, s *Schema) (*EvalResult, error) {
	return rel.EvalSQL(db, sql, s, false)
}

// NewDatabase creates an empty in-memory database.
func NewDatabase() *Database { return rel.NewDatabase() }

// Catalog is a pattern-indexed query repository: stored queries sharing a
// logical pattern — across schemas — land in one bucket (the paper's
// Section 1 repository-browsing use case).
type Catalog = catalog.Catalog

// CatalogEntry is one stored repository query.
type CatalogEntry = catalog.Entry

// NewCatalog creates an empty query repository.
func NewCatalog() *Catalog { return catalog.New() }

// PatternFingerprint returns a canonical key for the diagram's logical
// pattern: equal keys iff SamePattern holds.
func PatternFingerprint(d *Diagram) string { return core.PatternKey(d) }

// PatternFingerprintBounded is PatternFingerprint with a cost bound for
// untrusted input: canonical labeling costs one serialization per
// signature-preserving table permutation, so a diagram of k mutually
// symmetric tables costs k! of them. When that count exceeds maxPerms it
// returns ("", false) without searching. The decision is made on an
// isomorphism invariant, so pattern-equal diagrams agree on whether a
// key exists and any key produced is still canonical.
func PatternFingerprintBounded(d *Diagram, maxPerms int) (string, bool) {
	return core.PatternKeyBounded(d, maxPerms)
}
