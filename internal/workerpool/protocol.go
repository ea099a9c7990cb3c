// Package workerpool runs diagram compilation in a pool of child
// processes so that one pathological query — stack exhaustion, runaway
// heap, an unforeseen panic path — kills a worker, never the daemon.
//
// The supervisor (Pool) dispatches each request to an idle worker over a
// length-prefixed JSON protocol on the child's stdin/stdout, with a hard
// wall-clock deadline and an RSS ceiling enforced by a /proc watchdog. A
// worker that crashes, wedges, overruns, or corrupts its pipe is
// SIGKILLed and respawned with exponential backoff plus jitter; its
// request is transparently retried once on a fresh worker before a typed
// *WorkerError surfaces. Workers are also recycled after a request count
// or an RSS growth bound — recycling is deliberately the same code path
// as crash recovery (crash-only design), so the recovery path is
// exercised continuously, not only on disaster.
//
// Wire protocol, both directions: a 4-byte big-endian frame length
// followed by that many bytes of JSON. The worker answers every request
// frame with exactly one response frame carrying the same ID, and sends
// one ready frame (ID 0) at startup so the supervisor can distinguish a
// live child from one that died during initialization. The frame size is
// capped: a corrupt length prefix is detected as a protocol error, not
// an attempted multi-gigabyte allocation.
//
// Workers keep no diagram cache: the parent owns the instance's one
// cache, answers its hits without a dispatch, and sends only misses. A
// miss travels with WantEntry set, and its response frame carries the
// rendered cache entry beside the verbatim reply when the result may be
// cached, so a recycled worker takes nothing with it. The pool places
// requests on whichever worker is free; no request prefers a worker.
package workerpool

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/diagcache"
	"repro/internal/telemetry"
)

// MaxFrameBytes caps a single protocol frame in either direction.
// Rendered outputs are bounded by queryvis.Limits.MaxOutputBytes (1 MiB
// by default) and request bodies by the server's body cap, so 16 MiB is
// far above anything legitimate while still rejecting garbage length
// prefixes immediately.
const MaxFrameBytes = 16 << 20

// Request is one unit of work dispatched to a worker: an opaque HTTP
// request body for one of the service's POST endpoints. The supervisor
// does not interpret the body — parsing adversarial input is exactly
// what must happen inside the sacrificial child.
type Request struct {
	// Endpoint is the API route the body targets ("/v1/diagram" or
	// "/v1/interpret").
	Endpoint string `json:"endpoint"`
	// Header carries the allow-listed request headers the worker needs
	// (request ID, fault-injection seeds).
	Header map[string]string `json:"header,omitempty"`
	// Body is the raw JSON request body.
	Body []byte `json:"body"`
	// WantEntry asks the worker to build for the parent's diagram cache:
	// the handler finds an EntrySlot on its context, and a cacheable
	// result comes back in Response.Entry beside the verbatim reply.
	WantEntry bool `json:"want_entry,omitempty"`
}

// Response is the worker's verbatim answer: the status, headers, and
// body its in-process handler produced. The supervisor copies it through
// to the client untouched, so process isolation cannot change the wire
// contract.
type Response struct {
	Status int               `json:"status"`
	Header map[string]string `json:"header,omitempty"`
	Body   []byte            `json:"body"`
	// Spans are the worker-side trace spans for this request, recorded
	// when the request carried a sampled telemetry.TraceHeader. The
	// parent merges them into the request's trace tree; they never reach
	// the client body.
	Spans []telemetry.Span `json:"spans,omitempty"`
	// Entry is the rendered cache entry the worker built for a WantEntry
	// request whose result may be cached; nil otherwise. The parent
	// inserts it into its own cache and never shows it to the client.
	Entry *diagcache.Entry `json:"entry,omitempty"`
}

// frame is the on-pipe envelope for both directions: a request frame
// populates Req, a response frame Resp. ID matches a response frame to
// its request frame — a mismatch means the pipe carries garbage and the
// worker is retired.
type frame struct {
	ID   uint64    `json:"id"`
	Req  *Request  `json:"req,omitempty"`
	Resp *Response `json:"resp,omitempty"`
	// Ready marks the worker's startup frame (ID 0).
	Ready bool `json:"ready,omitempty"`
}

// writeFrame encodes f with its length prefix and flushes.
func writeFrame(w *bufio.Writer, f *frame) error {
	data, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("workerpool: encode frame: %w", err)
	}
	if len(data) > MaxFrameBytes {
		return fmt.Errorf("workerpool: frame of %d bytes exceeds cap %d", len(data), MaxFrameBytes)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(data)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return err
	}
	return w.Flush()
}

// readFrame decodes the next length-prefixed frame. io.EOF is returned
// verbatim on a clean end-of-stream (nothing read); any malformed
// prefix, oversized length, or undecodable payload is an error.
func readFrame(r *bufio.Reader) (*frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("workerpool: read frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrameBytes {
		return nil, fmt.Errorf("workerpool: frame length %d out of range (garbage on the pipe?): %w", n, errMalformed)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, fmt.Errorf("workerpool: read frame body: %w", err)
	}
	f := &frame{}
	if err := json.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("workerpool: decode frame (%w): %v", errMalformed, err)
	}
	return f, nil
}
