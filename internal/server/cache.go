package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	queryvis "repro"
	"repro/internal/diagcache"
	"repro/internal/faults"
	"repro/internal/schema"
	"repro/internal/workerpool"
)

// This file is the server's cached diagram path: /v1/diagram and every
// /v1/diagrams:batch item funnel through serveDiagram, which consults
// the request-keyed cache (internal/diagcache) when one is configured
// and otherwise behaves exactly like the historical handler. It runs in
// the process that owns the listener under either isolation mode, so an
// instance has one cache and process isolation only changes where a
// miss is built. The correctness rules are the cache's — only verified
// (or verify-off) non-degraded results are inserted — plus two
// server-level ones: fault-seeded requests bypass the cache in both
// directions, and the breaker/quarantine/verify-metric integrations
// fire for real builds only, never for hits.

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

// headerBuild is the response header naming an instance's answer
// identity: two instances that send the same value answer the same
// request with the same bytes. The router keeps a response it has seen
// until this value changes (see internal/router).
const headerBuild = "X-Queryvis-Build"

// executableBuildID identifies the running executable; it is read
// once per process.
var executableBuildID = sync.OnceValue(func() string {
	exe, err := os.Executable()
	if err != nil {
		return ""
	}
	return fileBuildID(exe)
})

// fileBuildID identifies the executable at path: the Go build ID in the
// ELF note (type 4, name "Go") the Go linker writes near the start of
// the file, or, where there is none, a hash of the whole file, so two
// different binaries never share an identity. It is "" when the file
// cannot be read.
func fileBuildID(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	head := make([]byte, 32<<10)
	n, _ := io.ReadFull(f, head)
	head = head[:n]
	if i := bytes.Index(head, []byte("\x04\x00\x00\x00Go\x00\x00")); i >= 8 {
		size := int(binary.LittleEndian.Uint32(head[i-4:]))
		if binary.LittleEndian.Uint32(head[i-8:]) == 4 && i+8+size <= n {
			return string(head[i+8 : i+8+size])
		}
	}
	h := sha256.New()
	h.Write(head)
	if _, err := io.Copy(h, f); err != nil {
		return ""
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// buildIdentity is the X-Queryvis-Build value: a short hash of
// everything that decides a response's bytes besides the request
// itself, namely the binary, the configuration an entry is proven
// under, and the verify mode a request gets when it names none. It is
// "" when the binary is unknown: such a server sends no header, and a
// router neither counts it nor caches its answers.
func buildIdentity(fingerprint string, verify queryvis.VerifyMode) string {
	exe := executableBuildID()
	if exe == "" {
		return ""
	}
	sum := sha256.Sum256([]byte(exe + "\x00" + fingerprint + "\x00" + verify.String()))
	return hex.EncodeToString(sum[:8])
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
// the out-of-band headers the handler sets, or a worker's verbatim reply
// under process isolation. Batch items reuse it with the headers folded
// into the item instead.
type served struct {
	resp         diagramResponse
	verifyStatus string // X-QueryVis-Verify-Status (pre-hide value)
	degraded     string // X-QueryVis-Degraded
	cache        string // X-QueryVis-Cache: "hit", "miss", or "" (ineligible)
	// raw, when non-nil, is the worker's reply, passed through in place
	// of the fields above.
	raw *workerpool.Response
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

// write sends the response.
func (sv *served) write(w http.ResponseWriter) {
	if sv.raw != nil {
		writeWorkerResponse(w, sv.raw)
		return
	}
	sv.writeHeaders(w)
	writeJSON(w, http.StatusOK, sv.resp)
}

// serveDiagram resolves one validated diagram request into a response,
// through the cache when possible:
//
//   - cache off → the request is produced directly (in a worker that was
//     asked for an entry, the entry goes back to the parent);
//   - injected fault (a fault plan on the context, or a worker fault
//     header) → same, with the cache bypassed in both directions (an
//     injected fault must neither be masked by cached bytes nor poison
//     them);
//   - otherwise GetOrBuild: a hit, a singleflight wait, or a build
//     this caller leads. Uncacheable outcomes (degraded, breaker-skipped,
//     failed) serve this caller's own result and insert nothing.
//
// Under process isolation this runs in the parent, so a hit never
// reaches a worker; only the builds do.
func (s *Server) serveDiagram(r *http.Request, req *diagramRequest, sch *schema.Schema, started time.Time) (*served, error) {
	ctx := r.Context()
	if s.cache == nil {
		slot := workerpool.EntrySlotFrom(ctx)
		sv, e, err := s.produce(r, req, sch, started, slot != nil)
		if slot != nil {
			slot.Entry = e
		}
		return sv, err
	}
	if s.faultInjected(r) {
		s.cache.NoteBypass()
		sv, _, err := s.produce(r, req, sch, started, false)
		return sv, err
	}
	requested, err := s.verifyMode(req)
	if err != nil {
		return nil, err
	}

	var built *served
	build := func(context.Context) (*diagcache.Entry, error) {
		sv, e, err := s.produce(r, req, sch, started, true)
		if err != nil {
			return nil, err
		}
		built = sv
		return e, nil
	}
	entry, outcome, err := s.cache.GetOrBuild(ctx, s.cacheKey(req),
		requested.String(), requested != queryvis.VerifyOff, build)
	switch {
	case err != nil:
		return nil, err
	case outcome.Hit():
		return s.respondEntry(req, entry, requested, started, "hit"), nil
	case built != nil:
		return built, nil
	}
	// A follower whose leader's build was uncacheable builds its own.
	sv, _, err := s.produce(r, req, sch, started, true)
	return sv, err
}

// faultInjected reports whether the request carries an injected fault:
// a pipeline fault plan, or — on a listener that honors chaos headers —
// a worker fault for the pool to act out.
func (s *Server) faultInjected(r *http.Request) bool {
	return faults.FromContext(r.Context()) != nil ||
		(s.cfg.AllowFaultInjection && r.Header.Get(faults.HeaderWorkerFault) != "")
}

// produce builds one diagram response: in this process, or in a worker
// when a pool is attached. forCache marks a build for a diagram cache:
// the response says X-QueryVis-Cache: miss, and a result that may be
// cached also comes back as its entry.
func (s *Server) produce(r *http.Request, req *diagramRequest, sch *schema.Schema, started time.Time, forCache bool) (*served, *diagcache.Entry, error) {
	if s.cfg.Pool != nil {
		body, err := json.Marshal(req)
		if err != nil {
			return nil, nil, err
		}
		resp, err := s.dispatch(r, "/v1/diagram", body, forCache)
		if err != nil {
			return nil, nil, err
		}
		return &served{raw: resp}, resp.Entry, nil
	}
	ctx := r.Context()
	hdr := ""
	if forCache {
		hdr = "miss"
	}
	res, mode, err := s.runVerified(ctx, req, sch)
	if err != nil {
		return nil, nil, err
	}
	if forCache && diagcache.CacheableStatus(res.VerifyStatus, res.Degraded) {
		// A rendering failure here serves the result uncached; the render
		// below degrades it as usual.
		if e, rerr := queryvis.BuildEntryContext(ctx, res); rerr == nil {
			return s.respondEntry(req, e, mode, started, hdr), e, nil
		}
	}
	sv, err := s.renderResult(ctx, req, res, mode, started, hdr)
	return sv, nil, err
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
