package workerpool

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/diagcache"
)

// TestServeOneEntrySlot: only a WantEntry request reaches the handler
// with an entry slot, a filled slot rides back in the response, and an
// entry too large for a frame stays behind while the reply still goes.
func TestServeOneEntrySlot(t *testing.T) {
	var size int
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		slot := EntrySlotFrom(r.Context())
		if slot != nil {
			slot.Entry = &diagcache.Entry{DOT: strings.Repeat("d", size), VerifyStatus: "verified"}
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte(`{}`))
	})
	serve := func(want bool) *Response {
		return serveOne(h, &Request{Endpoint: "/v1/diagram", Body: []byte(`{}`), WantEntry: want}, time.Second)
	}

	size = 10
	if resp := serve(false); resp.Entry != nil {
		t.Fatal("a request without WantEntry came back with an entry")
	}
	if resp := serve(true); resp.Entry == nil || len(resp.Entry.DOT) != size {
		t.Fatalf("WantEntry response entry = %+v, want the handler's", resp.Entry)
	}
	size = MaxFrameBytes / 2
	if resp := serve(true); resp.Entry != nil || resp.Status != http.StatusOK {
		t.Fatalf("oversized entry: status %d, entry kept %v; want 200 without the entry",
			resp.Status, resp.Entry != nil)
	}
}
