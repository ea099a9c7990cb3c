package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	queryvis "repro"
	"repro/internal/diagcache"
	"repro/internal/faults"
	"repro/internal/schema"
)

// This file is the server's cached diagram path: /v1/diagram and every
// /v1/diagrams:batch item funnel through serveDiagram, which consults
// the request-keyed cache (internal/diagcache) when one is configured
// and otherwise behaves exactly like the historical handler. The
// correctness rules are the cache's — only verified (or verify-off)
// non-degraded results are inserted — plus two server-level ones:
// fault-seeded requests bypass the cache in both directions, and the
// breaker/quarantine/verify-metric integrations fire for real builds
// only, never for hits.

// headerCache is the response header the cached path adds: "hit" or
// "miss" whenever a cache is configured and the request was eligible
// (absent when caching is off or the request bypassed it).
const headerCache = "X-Queryvis-Cache"

// configFingerprint identifies the configuration an entry was proven
// under: the per-query limits, the verification budget, and the schema
// catalog. BindConfig flushes the cache when any of it changes.
func (s *Server) configFingerprint() string {
	names := append([]string(nil), schema.BuiltinNames()...)
	sort.Strings(names)
	return fmt.Sprintf("limits=%+v unlimited=%t budget=%d schemas=%v",
		s.cfg.Limits, s.cfg.Unlimited, s.cfg.VerifyBudget, names)
}

// cacheKey is the request key. Server schemas are built-in,
// so the name identifies the catalog entry; simplify is the only option
// that changes the artifact (format does not: entries carry all three
// renderings, and verify mode is handled by the cache's acceptance
// check, not the key).
func (s *Server) cacheKey(req *diagramRequest) string {
	flag := byte('0')
	if req.Simplify {
		flag = '1'
	}
	return req.Schema + "\x00" + string(flag) + "\x00" + req.SQL
}

// served is one fully determined diagram response: the JSON body plus
// the out-of-band headers the handler sets. Batch items reuse it with
// the headers folded into the item instead.
type served struct {
	resp         diagramResponse
	verifyStatus string // X-QueryVis-Verify-Status (pre-hide value)
	degraded     string // X-QueryVis-Degraded
	cache        string // X-QueryVis-Cache: "hit", "miss", or "" (ineligible)
}

func (sv *served) writeHeaders(w http.ResponseWriter) {
	if sv.verifyStatus != "" && sv.verifyStatus != queryvis.VerifyStatusOff {
		w.Header().Set("X-QueryVis-Verify-Status", sv.verifyStatus)
	}
	if sv.degraded != "" {
		w.Header().Set("X-QueryVis-Degraded", sv.degraded)
	}
	if sv.cache != "" {
		w.Header().Set(headerCache, sv.cache)
	}
}

// serveDiagram resolves one validated diagram request into a response,
// through the cache when possible:
//
//   - cache off → the historical runVerified + render path;
//   - fault plan on the context → same, with the cache bypassed in both
//     directions (an injected fault must neither be masked by cached
//     bytes nor poison them);
//   - otherwise GetOrBuild: a hit, a singleflight wait, or a build
//     this caller leads through runVerified. Uncacheable outcomes
//     (degraded, breaker-skipped, failed) serve this caller's own result
//     and insert nothing.
func (s *Server) serveDiagram(ctx context.Context, req *diagramRequest, sch *schema.Schema, started time.Time) (*served, error) {
	if s.cache == nil {
		return s.serveUncached(ctx, req, sch, started, "")
	}
	if faults.FromContext(ctx) != nil {
		s.cache.NoteBypass()
		return s.serveUncached(ctx, req, sch, started, "")
	}
	requested, err := s.verifyMode(req)
	if err != nil {
		return nil, err
	}

	var built *queryvis.Result
	build := func(ctx context.Context) (*diagcache.Entry, error) {
		r, _, err := s.runVerified(ctx, req, sch)
		if err != nil {
			return nil, err
		}
		built = r
		if !diagcache.CacheableStatus(r.VerifyStatus, r.Degraded) {
			return nil, nil
		}
		e, rerr := queryvis.BuildEntryContext(ctx, r)
		if rerr != nil {
			return nil, nil // serve uncached; rendering failures degrade below
		}
		return e, nil
	}
	entry, outcome, err := s.cache.GetOrBuild(ctx, s.cacheKey(req),
		requested.String(), requested != queryvis.VerifyOff, build)
	switch {
	case err != nil:
		return nil, err
	case entry != nil && outcome.Hit():
		return s.respondEntry(req, entry, requested, started, "hit"), nil
	case entry != nil:
		return s.respondEntry(req, entry, requested, started, "miss"), nil
	case built == nil:
		// A follower whose leader's build was uncacheable builds its own.
		return s.serveUncached(ctx, req, sch, started, "miss")
	}
	return s.renderResult(ctx, req, built, requested, started, "miss")
}

// serveUncached is the historical path: full pipeline with breaker,
// quarantine, and verify metrics, then render.
func (s *Server) serveUncached(ctx context.Context, req *diagramRequest, sch *schema.Schema, started time.Time, hdr string) (*served, error) {
	res, mode, err := s.runVerified(ctx, req, sch)
	if err != nil {
		return nil, err
	}
	return s.renderResult(ctx, req, res, mode, started, hdr)
}

// respondEntry shapes a cache entry into the response. Entries are
// immutable and carry every format, so this is a field selection, not a
// render.
func (s *Server) respondEntry(req *diagramRequest, e *diagcache.Entry, mode queryvis.VerifyMode, started time.Time, hdr string) *served {
	out := e.DOT
	switch req.Format {
	case "svg":
		out = e.SVG
	case "text":
		out = e.Text
	}
	resp := diagramResponse{
		Format:         req.Format,
		Diagram:        out,
		Interpretation: e.Interpretation,
		ReadingOrder:   e.ReadingOrder,
		Tables:         e.Tables,
		Edges:          e.Edges,
		ElapsedMS:      time.Since(started).Milliseconds(),
		VerifyStatus:   e.VerifyStatus,
	}
	sv := &served{resp: resp, verifyStatus: e.VerifyStatus, cache: hdr}
	if mode == queryvis.VerifyOff || e.VerifyStatus == queryvis.VerifyStatusOff {
		// Keep the historical wire shape: a request that asked for no
		// verification reports none, even when the entry happens to carry a
		// proof.
		resp.VerifyStatus, sv.resp.VerifyStatus, sv.verifyStatus = "", "", ""
	}
	return sv
}

// renderResult turns a live pipeline result into the response,
// including the degrade-mode render fallback to the TRC rung.
func (s *Server) renderResult(ctx context.Context, req *diagramRequest, res *queryvis.Result, mode queryvis.VerifyMode, started time.Time, hdr string) (*served, error) {
	format, out := req.Format, ""
	var err error
	if res.Degraded == queryvis.RungTRC {
		// The ladder bottomed out below diagrams: serve the calculus text.
		format, out = "trc", res.TRCText
	} else {
		switch format {
		case "svg":
			out, err = res.SVGContext(ctx)
		case "text":
			out, err = res.TextContext(ctx)
		default:
			out, err = res.DOTContext(ctx, queryvis.DOTOptions{})
		}
		if err != nil {
			// In degrade mode a broken renderer drops the response to the TRC
			// rung rather than erroring; limit and context errors stay errors
			// (a policy bound or a dead client, not a degradable fault).
			var le *queryvis.LimitError
			if mode != queryvis.VerifyDegrade ||
				errors.As(err, &le) || ctx.Err() != nil || res.TRC == nil {
				return nil, err
			}
			format, out = "trc", res.TRC.String()
			res.Degraded = queryvis.RungTRC
			res.Diagram = nil
		}
	}

	resp := diagramResponse{
		Format:         format,
		Diagram:        out,
		Interpretation: res.Interpretation,
		ElapsedMS:      time.Since(started).Milliseconds(),
		VerifyStatus:   res.VerifyStatus,
		Degraded:       res.Degraded,
	}
	if res.VerifyStatus == queryvis.VerifyStatusOff {
		resp.VerifyStatus = "" // keep the historical wire shape for verify=off
	}
	if res.Diagram != nil {
		resp.ReadingOrder = res.ReadingOrder()
		resp.Tables = len(res.Diagram.Tables)
		resp.Edges = len(res.Diagram.Edges)
	}
	return &served{resp: resp, verifyStatus: res.VerifyStatus,
		degraded: res.Degraded, cache: hdr}, nil
}
