package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// TraceRecord is one completed request trace as held in a process's
// trace ring and served from /v1/traces.
type TraceRecord struct {
	TraceID   string        `json:"trace_id"`
	RequestID string        `json:"request_id,omitempty"`
	Start     time.Time     `json:"start"`
	Duration  time.Duration `json:"duration_ns"`
	Spans     []Span        `json:"spans"`
}

// TraceRing is a bounded ring buffer of completed traces. Writers pay
// one mutex acquisition and one slot assignment — no allocation, no
// sorting — so it sits on the request path without showing up in
// profiles. Readers (the /v1/traces handler, slow-trace logging) copy
// out under the same mutex.
type TraceRing struct {
	mu    sync.Mutex
	recs  []TraceRecord
	next  int
	full  bool
	total uint64
}

// DefaultTraceRingSize bounds per-process trace retention. At ~10 spans
// a trace this is a few hundred KB resident, enough to hold the last
// few seconds of a saturated instance.
const DefaultTraceRingSize = 256

// NewTraceRing creates a ring holding the last n traces (n<=0 uses
// DefaultTraceRingSize).
func NewTraceRing(n int) *TraceRing {
	if n <= 0 {
		n = DefaultTraceRingSize
	}
	return &TraceRing{recs: make([]TraceRecord, n)}
}

// Put records a completed trace, evicting the oldest when full. Safe on
// a nil ring (no-op), so untraced configurations skip the lock.
func (r *TraceRing) Put(rec TraceRecord) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.recs[r.next] = rec
	r.next++
	if r.next == len(r.recs) {
		r.next = 0
		r.full = true
	}
	r.total++
	r.mu.Unlock()
}

// Total returns the number of traces ever recorded.
func (r *TraceRing) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Len returns the number of traces currently held.
func (r *TraceRing) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.recs)
	}
	return r.next
}

// TraceFilter selects traces out of a ring. Zero fields match anything.
type TraceFilter struct {
	TraceID     string
	RequestID   string
	MinDuration time.Duration
}

func (f TraceFilter) match(rec TraceRecord) bool {
	if f.TraceID != "" && rec.TraceID != f.TraceID {
		return false
	}
	if f.RequestID != "" && rec.RequestID != f.RequestID {
		return false
	}
	if rec.Duration < f.MinDuration {
		return false
	}
	return true
}

// Snapshot returns matching traces, newest first.
func (r *TraceRing) Snapshot(f TraceFilter) []TraceRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.full {
		n = len(r.recs)
	}
	out := make([]TraceRecord, 0, n)
	// Walk backwards from the most recent slot.
	for i := 0; i < n; i++ {
		idx := r.next - 1 - i
		if idx < 0 {
			idx += len(r.recs)
		}
		if f.match(r.recs[idx]) {
			out = append(out, r.recs[idx])
		}
	}
	return out
}

// FormatTree renders spans as an indented tree, one line per span:
//
//	router 2.412ms {instance=http://...}
//	  instance 1.981ms
//	    dispatch 1.733ms
//	      worker 1.412ms
//	        parse 0.118ms
//
// Children keep insertion (start) order. Spans whose parent is absent
// from the set — the cross-process root, or an orphan — print at the
// top level, so a partial trace still renders usefully. Open spans
// (entered, never ended) are marked "(open)".
func FormatTree(spans []Span) string {
	children := make(map[string][]int, len(spans))
	ids := make(map[string]bool, len(spans))
	for _, sp := range spans {
		if sp.ID != "" {
			ids[sp.ID] = true
		}
	}
	var roots []int
	for i, sp := range spans {
		if sp.Parent != "" && ids[sp.Parent] {
			children[sp.Parent] = append(children[sp.Parent], i)
		} else {
			roots = append(roots, i)
		}
	}
	var b strings.Builder
	var walk func(idx, depth int)
	walk = func(idx, depth int) {
		sp := spans[idx]
		for i := 0; i < depth; i++ {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%s %.3fms", sp.Name, float64(sp.Duration)/1e6)
		if !sp.Done {
			b.WriteString(" (open)")
		}
		if len(sp.Attrs) > 0 {
			b.WriteString(" {")
			for i, a := range sp.Attrs {
				if i > 0 {
					b.WriteString(" ")
				}
				b.WriteString(a.Key)
				b.WriteString("=")
				b.WriteString(a.Value)
			}
			b.WriteString("}")
		}
		b.WriteString("\n")
		for _, c := range children[sp.ID] {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return b.String()
}
