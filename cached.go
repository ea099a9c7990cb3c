package queryvis

import (
	"context"
	"strconv"

	"repro/internal/diagcache"
	"repro/internal/faults"
)

// This file is the facade's cached entry point: FromSQLCachedContext
// memoizes fully rendered results keyed on the exact request (schema,
// option flags, limits, SQL text; see
// internal/diagcache), so a hit returns the bytes a fresh build of the
// same request would. Cacheability is strict: only verified (or
// verify-off) non-degraded results are ever inserted, and a request
// carrying an injected fault plan bypasses the cache entirely in both
// directions.

// DiagramCache re-exports the request-keyed diagram cache.
type DiagramCache = diagcache.Cache

// DiagramCacheConfig re-exports its configuration.
type DiagramCacheConfig = diagcache.Config

// CachedEntry is one immutable cached result (all three rendered
// formats plus the verify status the build earned).
type CachedEntry = diagcache.Entry

// CacheOutcome classifies one cached lookup.
type CacheOutcome = diagcache.Outcome

// NewDiagramCache builds a request-keyed diagram cache.
func NewDiagramCache(cfg DiagramCacheConfig) *DiagramCache { return diagcache.New(cfg) }

// DefaultFingerprintPerms caps the canonical-labeling search of
// PatternFingerprintBounded for callers that must stay fast on
// arbitrary input, such as the server's quarantine dedup: 720 = 6!
// keeps the worst case around a millisecond while covering every paper
// query with room to spare. Diagrams too symmetric to key under the
// bound get no key.
const DefaultFingerprintPerms = 720

// cacheKey is the cache's request key: the full schema rendering (not
// just its name — two ad-hoc schemas may share one; Schema.String
// returns it without rendering again), the option flags, the limits,
// and the literal SQL.
func cacheKey(sql string, s *Schema, opts Options) string {
	return diagcache.Key(s.String(), opts.Simplify, opts.KeepExistsBlocks,
		configKey(opts.Limits), sql)
}

// configKey fingerprints the bounds a build runs under: every limit
// ("-" for nil limits). It formats with strconv, not fmt, because it
// runs on every cached call, hits included.
func configKey(l *Limits) string {
	if l == nil {
		return "-"
	}
	b := make([]byte, 0, 64)
	for i, v := range [...]int{l.MaxQueryBytes, l.MaxNestingDepth, l.MaxPredicates,
		l.MaxDiagramNodes, l.MaxDiagramEdges, l.MaxOutputBytes} {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return string(b)
}

// This conversion stops compiling when Limits gains or renames a field,
// so a new limit cannot be left out of configKey.
var _ = struct {
	MaxQueryBytes, MaxNestingDepth, MaxPredicates,
	MaxDiagramNodes, MaxDiagramEdges, MaxOutputBytes int
}(Limits{})

// BuildEntryContext renders every format of a cacheable Result into a
// cache entry. The caller is responsible for checking cacheability
// (diagcache.CacheableStatus) first; rendering failures — output-size
// limits, cancellation — surface as errors and the result stays
// uncached.
func BuildEntryContext(ctx context.Context, res *Result) (*CachedEntry, error) {
	dotOut, err := res.DOTContext(ctx, DOTOptions{})
	if err != nil {
		return nil, err
	}
	svgOut, err := res.SVGContext(ctx)
	if err != nil {
		return nil, err
	}
	textOut, err := res.TextContext(ctx)
	if err != nil {
		return nil, err
	}
	return &CachedEntry{
		DOT:            dotOut,
		SVG:            svgOut,
		Text:           textOut,
		Interpretation: res.Interpretation,
		ReadingOrder:   res.ReadingOrder(),
		Tables:         len(res.Diagram.Tables),
		Edges:          len(res.Diagram.Edges),
		VerifyStatus:   res.VerifyStatus,
	}, nil
}

// FromSQLCached is FromSQLCachedContext without a deadline.
func FromSQLCached(sql string, s *Schema, opts Options) (*CachedEntry, *Result, CacheOutcome, error) {
	return FromSQLCachedContext(context.Background(), sql, s, opts)
}

// FromSQLCachedContext runs the pipeline through Options.Cache:
//
//   - on a cache hit the returned *CachedEntry carries the rendered
//     formats and the Result is nil — no pipeline work ran;
//   - on a cacheable miss this caller (or a concurrent singleflight
//     leader) runs FromSQLContext once, renders every format, and the
//     fresh entry is returned;
//   - when the outcome is uncacheable — a degraded or skipped result, a
//     fault plan on the context, no cache — the *Result is returned
//     instead, exactly as FromSQLContext would have produced it, and
//     nothing is inserted.
//
// Exactly one of entry and result is non-nil on success.
func FromSQLCachedContext(ctx context.Context, sql string, s *Schema, opts Options) (*CachedEntry, *Result, CacheOutcome, error) {
	bypass := faults.FromContext(ctx) != nil
	var built *Result
	entry, outcome, err := opts.Cache.GetOrBuild(ctx, cacheKey(sql, s, opts),
		opts.Verify.String(), opts.Verify != VerifyOff, bypass,
		func(ctx context.Context) (*CachedEntry, error) {
			r, err := FromSQLContext(ctx, sql, s, opts)
			built = r
			if err != nil || opts.Cache == nil || bypass ||
				!diagcache.CacheableStatus(r.VerifyStatus, r.Degraded) {
				return nil, err
			}
			e, rerr := BuildEntryContext(ctx, r)
			if rerr != nil {
				return nil, nil // serve the result uncached; rendering is bounded
			}
			return e, nil
		})
	if entry != nil {
		return entry, nil, outcome, nil
	}
	return nil, built, outcome, err
}
