package workerpool

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"time"

	"repro/internal/diagcache"
	"repro/internal/faults"
	"repro/internal/telemetry"
)

// RunOptions tunes the child-side loop.
type RunOptions struct {
	// AllowFaultHeaders honors the X-Worker-Fault request header (see
	// internal/faults.WorkerFault): the worker deliberately crashes,
	// wedges, or corrupts its pipe instead of serving. Chaos tests only —
	// the production daemon enables it solely behind the same flag that
	// gates pipeline fault injection.
	AllowFaultHeaders bool
	// DefaultDeadline bounds a request that carries no deadline header
	// (0 = 30s). The supervisor always sends one; this is the backstop
	// against a buggy or hostile parent.
	DefaultDeadline time.Duration
}

// headerDeadlineMS carries the supervisor's remaining per-request budget
// into the child, in milliseconds.
const headerDeadlineMS = "X-Worker-Deadline-Ms"

// RunWorker is the child process's main loop: read one request frame,
// serve it through h (the same hardened http.Handler the in-process path
// uses), answer with one response frame, repeat until stdin closes.
// A clean EOF — the supervisor closing stdin to drain — returns nil;
// anything else is a protocol failure the child should die loudly over,
// because from the supervisor's side a confused worker and a dead worker
// must look the same (crash-only design).
//
// The first frame written is a ready marker, so the supervisor can tell
// a live child from one that crashed during initialization.
func RunWorker(r io.Reader, w io.Writer, h http.Handler, opts RunOptions) error {
	if opts.DefaultDeadline <= 0 {
		opts.DefaultDeadline = 30 * time.Second
	}
	br := bufio.NewReader(r)
	bw := bufio.NewWriter(w)
	if err := writeFrame(bw, &frame{Ready: true}); err != nil {
		return err
	}
	for {
		f, err := readFrame(br)
		if err == io.EOF {
			return nil // supervisor closed stdin: graceful drain
		}
		if err != nil {
			return err
		}
		if f.Req == nil {
			continue // stray frame: ignore rather than guess
		}
		if opts.AllowFaultHeaders {
			if wf, ok := faults.ParseWorkerFault(f.Req.Header[faults.HeaderWorkerFault]); ok {
				actWorkerFault(wf, bw)
			}
		}
		resp := serveOne(h, f.Req, opts.DefaultDeadline)
		if err := writeFrame(bw, &frame{ID: f.ID, Resp: resp}); err != nil {
			return err
		}
	}
}

// actWorkerFault performs the injected worker-level fault. Crash and
// garbage never return; wedge blocks forever (the supervisor's deadline
// SIGKILLs the process).
func actWorkerFault(wf faults.WorkerFault, bw *bufio.Writer) {
	switch wf {
	case faults.WorkerFaultCrash:
		os.Exit(3)
	case faults.WorkerFaultWedge:
		select {} // hold the request forever; SIGKILL is the only exit
	case faults.WorkerFaultGarbage:
		// Not a frame: a length prefix claiming 4 GiB, a few stray bytes,
		// then an abrupt exit — the worst shape for a frame parser, and
		// one the supervisor must reject by the cap, not by allocating.
		_, _ = bw.Write([]byte{0xff, 0xff, 0xff, 0xff, 'g', 'a', 'r', 'b'})
		_ = bw.Flush()
		os.Exit(3)
	}
}

// serveOne runs one request through the handler with the supervisor's
// deadline applied, collecting status, headers, and body.
//
// When the request carries a sampled trace context, the worker's
// pipeline runs under a Tracer rooted at a "worker" span parented on the
// supervisor's dispatch span, and the recorded spans ride back in the
// response frame. The worker's own handler runs with telemetry disabled
// (metrics/logging belong to the parent), but the pipeline stages read
// the tracer straight off the context, so stage spans record regardless.
func serveOne(h http.Handler, req *Request, defaultDeadline time.Duration) *Response {
	deadline := defaultDeadline
	if ms, err := strconv.Atoi(req.Header[headerDeadlineMS]); err == nil && ms > 0 {
		deadline = time.Duration(ms) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	var tr *telemetry.Tracer
	var root telemetry.SpanHandle
	if tc, ok := telemetry.ParseTraceHeader(req.Header[telemetry.TraceHeader]); ok && tc.Sampled {
		tr = telemetry.NewTracerForTrace(tc.TraceID, tc.SpanID)
		root = tr.StartRoot("worker")
		ctx = telemetry.WithTracer(ctx, tr)
		if rid := req.Header["X-Request-ID"]; rid != "" {
			ctx = telemetry.WithRequestID(ctx, rid)
		}
	}

	hr := (&http.Request{
		Method: http.MethodPost,
		URL:    &url.URL{Path: req.Endpoint},
		Header: make(http.Header, len(req.Header)),
		Body:   io.NopCloser(bytes.NewReader(req.Body)),
	}).WithContext(ctx)
	hr.ContentLength = int64(len(req.Body))
	for k, v := range req.Header {
		hr.Header.Set(k, v)
	}

	var slot *EntrySlot
	if req.WantEntry {
		slot = &EntrySlot{}
		hr = hr.WithContext(context.WithValue(ctx, entrySlotKey{}, slot))
	}

	rec := &recorder{status: http.StatusOK, header: make(http.Header)}
	h.ServeHTTP(rec, hr)
	resp := &Response{Status: rec.status, Body: rec.body, Header: map[string]string{}}
	for k := range rec.header {
		resp.Header[k] = rec.header.Get(k)
	}
	if slot != nil && slot.Entry != nil && entryFits(slot.Entry, len(resp.Body)) {
		resp.Entry = slot.Entry
	}
	if tr != nil {
		root.End()
		resp.Spans = tr.Spans()
	}
	return resp
}

// EntrySlot receives the cache entry a worker builds for its parent. A
// request frame with WantEntry set reaches the handler with an empty
// slot on its context; a handler whose result may be cached fills it,
// and the response frame carries the entry back for the parent's
// diagram cache.
type EntrySlot struct {
	Entry *diagcache.Entry
}

type entrySlotKey struct{}

// EntrySlotFrom returns the request's entry slot, or nil when the
// parent did not ask for an entry.
func EntrySlotFrom(ctx context.Context) *EntrySlot {
	slot, _ := ctx.Value(entrySlotKey{}).(*EntrySlot)
	return slot
}

// entryFits keeps a response frame with its entry well inside
// MaxFrameBytes: JSON escaping can double rendered markup, so an entry
// whose renderings and body together pass a quarter of the cap stays
// behind and the parent serves that result uncached.
func entryFits(e *diagcache.Entry, body int) bool {
	return len(e.DOT)+len(e.SVG)+len(e.Text)+len(e.Interpretation)+body <= MaxFrameBytes/4
}

// recorder is a minimal ResponseWriter (httptest would drag a testing
// dependency into the daemon binary).
type recorder struct {
	status int
	header http.Header
	body   []byte
	wrote  bool
}

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(code int) {
	if !r.wrote {
		r.status, r.wrote = code, true
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	r.wrote = true
	r.body = append(r.body, b...)
	return len(b), nil
}
