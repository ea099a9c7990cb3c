package telemetry

import (
	"strings"
	"testing"
	"time"
)

func TestTraceHeaderRoundTrip(t *testing.T) {
	tc := TraceContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: true}
	got, ok := ParseTraceHeader(tc.Header())
	if !ok || got != tc {
		t.Fatalf("round trip: got %+v ok=%v want %+v", got, ok, tc)
	}
	tc.Sampled = false
	got, ok = ParseTraceHeader(tc.Header())
	if !ok || got != tc {
		t.Fatalf("unsampled round trip: got %+v ok=%v want %+v", got, ok, tc)
	}
}

func TestParseTraceHeaderGarbage(t *testing.T) {
	for _, v := range []string{
		"", "nonsense", "a-b", "a-b-2", "a-b-1-c", "-b-1", "a--1", "a-b-",
	} {
		if _, ok := ParseTraceHeader(v); ok {
			t.Errorf("ParseTraceHeader(%q) accepted garbage", v)
		}
	}
}

func TestNewSpanIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewSpanID()
		if len(id) != 16 {
			t.Fatalf("span id %q: want 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate span id %q", id)
		}
		seen[id] = true
	}
}

func TestStartRootParenting(t *testing.T) {
	tr := NewTracerForTrace("trace1", "remote-span")
	if tr.TraceID() != "trace1" {
		t.Fatalf("TraceID = %q", tr.TraceID())
	}
	root := tr.StartRoot("instance")
	child := tr.Start("parse")
	child.End()
	root.End()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	if spans[0].Parent != "remote-span" {
		t.Errorf("root parent = %q, want remote-span", spans[0].Parent)
	}
	if spans[1].Parent != spans[0].ID {
		t.Errorf("child parent = %q, want root id %q", spans[1].Parent, spans[0].ID)
	}
	if root.ID() != spans[0].ID {
		t.Errorf("handle ID %q != recorded %q", root.ID(), spans[0].ID)
	}
}

func TestTracerMergeAndSetParent(t *testing.T) {
	tr := NewTracerForTrace("t", "")
	root := tr.StartRoot("instance")
	item := tr.Start("item")
	old := tr.Parent()
	tr.SetParent(item.ID())
	inner := tr.Start("parse")
	inner.End()
	tr.SetParent(old)
	item.End()
	root.End()

	remote := []Span{{Name: "worker", ID: "w1", Parent: item.ID(), Done: true}}
	tr.Merge(remote)

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans", len(spans))
	}
	if spans[2].Parent != item.ID() {
		t.Errorf("nested span parent = %q, want %q", spans[2].Parent, item.ID())
	}
	if spans[3].Name != "worker" || spans[3].Parent != item.ID() {
		t.Errorf("merged span = %+v", spans[3])
	}
}

func TestNilTracerDistributedOps(t *testing.T) {
	var tr *Tracer
	if tr.TraceID() != "" || tr.Parent() != "" {
		t.Error("nil tracer leaked identity")
	}
	tr.SetParent("x")
	tr.Merge([]Span{{Name: "n"}})
	h := tr.StartRoot("r")
	if h.ID() != "" {
		t.Error("nil StartRoot returned live handle")
	}
}

func TestTraceRingBoundAndFilters(t *testing.T) {
	r := NewTraceRing(4)
	for i := 0; i < 6; i++ {
		r.Put(TraceRecord{
			TraceID:   string(rune('a' + i)),
			RequestID: "rid" + string(rune('a'+i)),
			Duration:  time.Duration(i) * time.Millisecond,
		})
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Total() != 6 {
		t.Fatalf("Total = %d, want 6", r.Total())
	}
	all := r.Snapshot(TraceFilter{})
	if len(all) != 4 || all[0].TraceID != "f" || all[3].TraceID != "c" {
		t.Fatalf("snapshot order wrong: %+v", all)
	}
	if got := r.Snapshot(TraceFilter{TraceID: "e"}); len(got) != 1 || got[0].TraceID != "e" {
		t.Fatalf("TraceID filter: %+v", got)
	}
	if got := r.Snapshot(TraceFilter{RequestID: "ridd"}); len(got) != 1 || got[0].TraceID != "d" {
		t.Fatalf("RequestID filter: %+v", got)
	}
	if got := r.Snapshot(TraceFilter{MinDuration: 4 * time.Millisecond}); len(got) != 2 {
		t.Fatalf("MinDuration filter: %+v", got)
	}
	var nilRing *TraceRing
	nilRing.Put(TraceRecord{})
	if nilRing.Snapshot(TraceFilter{}) != nil || nilRing.Len() != 0 || nilRing.Total() != 0 {
		t.Error("nil ring not inert")
	}
}

func TestFormatTree(t *testing.T) {
	spans := []Span{
		{Name: "router", ID: "r1", Parent: "upstream", Duration: 2 * time.Millisecond, Done: true,
			Attrs: []Attr{{"instance", "http://i1"}}},
		{Name: "instance", ID: "i1", Parent: "r1", Duration: time.Millisecond, Done: true},
		{Name: "parse", ID: "p1", Parent: "i1", Duration: 100 * time.Microsecond, Done: true},
		{Name: "render", ID: "x1", Parent: "i1", Duration: 50 * time.Microsecond, Done: false},
	}
	tree := FormatTree(spans)
	lines := strings.Split(strings.TrimRight(tree, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("tree:\n%s", tree)
	}
	if !strings.HasPrefix(lines[0], "router ") || !strings.Contains(lines[0], "{instance=http://i1}") {
		t.Errorf("root line %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  instance ") {
		t.Errorf("instance line %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "    parse ") {
		t.Errorf("parse line %q", lines[2])
	}
	if !strings.Contains(lines[3], "(open)") {
		t.Errorf("open marker missing: %q", lines[3])
	}
}

func TestFormatTreeOrphans(t *testing.T) {
	spans := []Span{
		{Name: "a", ID: "1", Parent: "gone", Done: true},
		{Name: "b", ID: "2", Parent: "1", Done: true},
	}
	tree := FormatTree(spans)
	if !strings.HasPrefix(tree, "a ") || !strings.Contains(tree, "\n  b ") {
		t.Fatalf("orphan tree:\n%s", tree)
	}
}
