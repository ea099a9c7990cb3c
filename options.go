package queryvis

import (
	"repro/internal/diagcache"
	"repro/internal/telemetry"
)

// Option is a functional setting for NewOptions, the composable way to
// assemble an Options value:
//
//	opts := queryvis.NewOptions(
//		queryvis.WithSimplify(true),
//		queryvis.WithVerify(queryvis.VerifyDegrade),
//		queryvis.WithCache(cache),
//	)
type Option func(*Options)

// NewOptions applies the given options over the zero Options value.
func NewOptions(opts ...Option) Options {
	var o Options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// WithSimplify toggles the ∄∄ → ∀∃ rewrite (Section 4.7).
func WithSimplify(v bool) Option { return func(o *Options) { o.Simplify = v } }

// WithKeepExistsBlocks disables flattening of ∃ subquery blocks.
func WithKeepExistsBlocks(v bool) Option { return func(o *Options) { o.KeepExistsBlocks = v } }

// WithLimits bounds the pipeline's resource use; nil disables bounds.
func WithLimits(l *Limits) Option { return func(o *Options) { o.Limits = l } }

// WithVerify selects the self-verification mode.
func WithVerify(m VerifyMode) Option { return func(o *Options) { o.Verify = m } }

// WithVerifyBudget bounds the inverse search in nodes.
func WithVerifyBudget(n int) Option { return func(o *Options) { o.VerifyBudget = n } }

// WithTracer attaches a telemetry tracer recording per-stage spans.
func WithTracer(t *telemetry.Tracer) Option { return func(o *Options) { o.Tracer = t } }

// WithCache attaches a request-keyed diagram cache: FromSQLCached and
// FromSQLCachedContext serve a repeated request's rendered result from
// it, and insert newly verified builds.
// Plain FromSQL/FromSQLContext ignore the cache — memoization is only
// ever an explicit opt-in.
func WithCache(c *diagcache.Cache) Option { return func(o *Options) { o.Cache = c } }
