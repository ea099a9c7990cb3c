package workerpool

import (
	"bufio"
	"context"
	"io"
	"os"
	"time"

	"repro/internal/faults"
	"repro/internal/telemetry"
)

// Func runs one job inside a worker: it decodes the caller's job, does
// the work under ctx and returns the encoded outcome. A failure of the
// work itself belongs in the outcome; an error return means the job or
// its outcome could not be encoded at all, and the worker exits over it.
type Func func(ctx context.Context, job []byte) ([]byte, error)

// RunOptions tunes the child-side loop.
type RunOptions struct {
	// AllowFaults acts out a request's injected worker fault (see
	// internal/faults.WorkerFault): the worker deliberately crashes,
	// wedges, or corrupts its pipe instead of running the job. Chaos
	// tests only — the production daemon enables it solely behind the
	// same flag that gates pipeline fault injection.
	AllowFaults bool
}

// defaultDeadline bounds a job whose request carries no deadline. The
// pool always stamps one; this is the backstop against a buggy or
// hostile parent.
const defaultDeadline = 30 * time.Second

// RunWorker is the child process's main loop: read one request frame,
// run its job through run, answer with one response frame, repeat until
// stdin closes. A clean EOF — the supervisor closing stdin to drain —
// returns nil; anything else is a protocol failure the child should die
// loudly over, because from the supervisor's side a confused worker and
// a dead worker must look the same (crash-only design).
//
// The first frame written is a ready marker, so the supervisor can tell
// a live child from one that crashed during initialization.
func RunWorker(r io.Reader, w io.Writer, run Func, opts RunOptions) error {
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
		if opts.AllowFaults {
			if wf, ok := faults.ParseWorkerFault(f.Req.Fault); ok {
				actWorkerFault(wf, bw)
			}
		}
		resp, err := serveOne(run, f.Req)
		if err != nil {
			return err
		}
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

// serveOne runs one job under the request's deadline.
//
// When the request carries a trace context, the job runs under a Tracer
// rooted at a "worker" span parented on the supervisor's dispatch span,
// and the recorded spans ride back in the response frame. The pipeline
// stages read the tracer straight off the context, so their spans land
// under that root.
func serveOne(run Func, req *Request) (*Response, error) {
	deadline := defaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	if req.RequestID != "" {
		ctx = telemetry.WithRequestID(ctx, req.RequestID)
	}
	var tr *telemetry.Tracer
	var root telemetry.SpanHandle
	if tc := req.Trace; tc != nil {
		tr = telemetry.NewTracerForTrace(tc.TraceID, tc.SpanID)
		root = tr.StartRoot("worker")
		ctx = telemetry.WithTracer(ctx, tr)
	}
	out, err := run(ctx, req.Job)
	if err != nil {
		return nil, err
	}
	resp := &Response{Outcome: out}
	if tr != nil {
		root.End()
		resp.Spans = tr.Spans()
	}
	return resp, nil
}
