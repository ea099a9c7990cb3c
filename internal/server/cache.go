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
// /v1/diagrams:batch item funnel through serveDiagram, which serves
// them through diagcache.GetOrBuild — a hit when the instance's cache
// holds the request, otherwise this request's own build. It runs in the
// process that owns the listener under either isolation mode, so an
// instance has one cache and process isolation only changes where a
// miss is built. The correctness rules are the cache's — only verified
// (or verify-off) non-degraded results are inserted, and fault-seeded
// requests bypass it in both directions — plus one server-level rule:
// the quarantine and verify-metric integrations fire for real builds
// only, never for hits.

// headerCache is the response header the cached path adds: "hit" or
// "miss" whenever a cache is configured and the request was eligible
// (absent when caching is off or the request bypassed it).
const headerCache = "X-Queryvis-Cache"

// configFingerprint identifies the configuration a response is built
// under: the per-query limits and the schema catalog. Its hash is part
// of every cache key and of the answer identity.
func (s *Server) configFingerprint() string {
	names := append([]string(nil), schema.BuiltinNames()...)
	sort.Strings(names)
	return fmt.Sprintf("limits=%+v unlimited=%t schemas=%v",
		s.cfg.Limits, s.cfg.Unlimited, names)
}

// headerVerifyStatus is the response header carrying a response's
// verify status, in canonical form because worker replies are read
// back by key.
const headerVerifyStatus = "X-Queryvis-Verify-Status"

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

// served is one fully determined diagram response: the JSON body plus
// the cache disposition the handler sets as a header, or a worker's
// verbatim reply under process isolation. Batch items reuse it with the
// headers folded into the item instead.
type served struct {
	resp  diagramResponse
	cache string // X-QueryVis-Cache: "hit", "miss", or "" (ineligible)
	// raw, when non-nil, is the worker's reply, passed through in place
	// of the fields above.
	raw *workerpool.Response
}

// write sends the response.
func (sv *served) write(w http.ResponseWriter) {
	if sv.raw != nil {
		writeWorkerResponse(w, sv.raw)
		return
	}
	setResultHeaders(w, sv.resp.VerifyStatus, sv.resp.Degraded, sv.cache)
	writeJSON(w, http.StatusOK, sv.resp)
}

// setResultHeaders exposes a result's outcome out-of-band so clients
// (and proxies) can spot degraded artifacts without parsing the body:
// the verify status as reported (see reportedStatus), the degradation
// rung, and the cache disposition. Empty values set no header.
func setResultHeaders(w http.ResponseWriter, verifyStatus, degraded, cache string) {
	if verifyStatus != "" {
		w.Header().Set(headerVerifyStatus, verifyStatus)
	}
	if degraded != "" {
		w.Header().Set("X-QueryVis-Degraded", degraded)
	}
	if cache != "" {
		w.Header().Set(headerCache, cache)
	}
}

// reportedStatus is the verify status a response reports: none when
// the request asked for no verification or the result carries no
// proof, keeping the historical wire shape, even when a cached entry
// happens to carry one.
func reportedStatus(mode queryvis.VerifyMode, status string) string {
	if mode == queryvis.VerifyOff || status == queryvis.VerifyStatusOff {
		return ""
	}
	return status
}

// serveDiagram resolves one validated diagram request into a response
// through the instance's cache (see diagcache.GetOrBuild): a hit, a
// singleflight wait, or this request's own build. A worker building for
// its parent's cache has no cache of its own and hands the entry of its
// build back through the request's entry slot. Under process isolation
// this runs in the parent, so a hit never reaches a worker; only the
// builds do.
func (s *Server) serveDiagram(r *http.Request, req *diagramRequest, sch *schema.Schema, started time.Time) (*served, error) {
	ctx := r.Context()
	requested, err := s.verifyMode(req)
	if err != nil {
		return nil, err
	}
	slot := workerpool.EntrySlotFrom(ctx)
	bypass := s.faultInjected(r)
	forCache := slot != nil || (s.cache != nil && !bypass)
	var built *served
	var key string
	if s.cache != nil { // a cache-less server, such as a worker, keys nothing
		key = diagcache.Key(req.Schema, req.Simplify, false, s.config, req.SQL)
	}
	entry, outcome, err := s.cache.GetOrBuild(ctx, key, requested.String(),
		requested != queryvis.VerifyOff, bypass,
		func(context.Context) (*diagcache.Entry, error) {
			sv, e, err := s.produce(r, req, sch, started, forCache)
			built = sv
			if slot != nil {
				slot.Entry = e
			}
			return e, err
		})
	switch {
	case err != nil:
		return nil, err
	case outcome.Hit():
		return s.respondEntry(req, entry, requested, started, "hit"), nil
	}
	return built, nil
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
		s.recordVerifyOutcome(resp.Header[headerVerifyStatus])
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
	return &served{resp: diagramResponse{
		Format:         req.Format,
		Diagram:        out,
		Interpretation: e.Interpretation,
		ReadingOrder:   e.ReadingOrder,
		Tables:         e.Tables,
		Edges:          e.Edges,
		ElapsedMS:      time.Since(started).Milliseconds(),
		VerifyStatus:   reportedStatus(mode, e.VerifyStatus),
	}, cache: hdr}
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
		VerifyStatus:   reportedStatus(mode, res.VerifyStatus),
		Degraded:       res.Degraded,
	}
	if res.Diagram != nil {
		resp.ReadingOrder = res.ReadingOrder()
		resp.Tables = len(res.Diagram.Tables)
		resp.Edges = len(res.Diagram.Edges)
	}
	return &served{resp: resp, cache: hdr}, nil
}
