package router_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	queryvis "repro"
	"repro/internal/leak"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// swappable is one member URL whose instance can be replaced in place,
// as a restart on the same address replaces it. It counts the probes
// and POSTs it receives.
type swappable struct {
	srv           atomic.Pointer[server.Server]
	probes, posts atomic.Int64
}

func (sw *swappable) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/healthz" {
		sw.probes.Add(1)
	} else {
		sw.posts.Add(1)
	}
	sw.srv.Load().ServeHTTP(w, r)
}

// TestResponseCacheFollowsAnswerIdentity: two real instances behind the
// router. Once a request is cached, its owner is replaced by an
// instance whose limits refuse the query. Within one probe round the
// router must see the new X-Queryvis-Build, leave the fleet identity,
// and stop replaying the old bytes: the repeat reaches the new instance
// and gets its answer.
func TestResponseCacheFollowsAnswerIdentity(t *testing.T) {
	t.Cleanup(leak.Check(t))
	cfg := server.Config{CacheEntries: 64}
	members := make([]*swappable, 2)
	urls := make([]string, 2)
	for i := range members {
		members[i] = &swappable{}
		members[i].srv.Store(server.New(cfg))
		ts := httptest.NewServer(members[i])
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	rt, err := router.New(router.Config{
		Backends:       urls,
		HealthInterval: 20 * time.Millisecond,
		ResponseCache:  true,
		Metrics:        telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)
	url := front.URL + "/v1/diagram"

	waitUntil(t, 10*time.Second, func() bool { return rt.State().Stampede.Identity != "" })
	st0 := rt.State().Stampede
	code, hdr, first := postJSON(t, url, diagramReq(qSome))
	if code != http.StatusOK || hdr.Get("X-Queryvis-Build") != st0.Identity {
		t.Fatalf("first request: status %d build %q, want 200 from the fleet's identity %q",
			code, hdr.Get("X-Queryvis-Build"), st0.Identity)
	}
	code, hdr, again := postJSON(t, url, diagramReq(qSome))
	if code != http.StatusOK || hdr.Get("X-Queryvis-Router-Cache") != "hit" || !bytes.Equal(again, first) {
		t.Fatalf("repeat: status %d router cache %q, want a 200 hit with the same bytes",
			code, hdr.Get("X-Queryvis-Router-Cache"))
	}
	owner := members[0]
	if members[1].posts.Load() == 1 {
		owner = members[1]
	}
	if owner.posts.Load() != 1 {
		t.Fatalf("POSTs reached the members %d and %d times, want one in total",
			members[0].posts.Load(), members[1].posts.Load())
	}

	// Replace the owner. The prober visits members one at a time, so once
	// a second probe reaches the new instance, the first one's answer
	// has been recorded.
	limits := queryvis.DefaultLimits()
	limits.MaxQueryBytes = 16
	owner.srv.Store(server.New(server.Config{CacheEntries: 64, Limits: limits}))
	probed := owner.probes.Load()
	waitUntil(t, 10*time.Second, func() bool { return owner.probes.Load() >= probed+2 })

	st := rt.State().Stampede
	if st.Identity != "" || st.Generation != st0.Generation+1 || st.Entries != 0 {
		t.Fatalf("after one probe round of a mixed fleet: %+v, want no identity, generation %d and no entries",
			st, st0.Generation+1)
	}
	code, hdr, _ = postJSON(t, url, diagramReq(qSome))
	if via := hdr.Get("X-Queryvis-Router-Cache"); via != "" || code != http.StatusUnprocessableEntity {
		t.Fatalf("after the swap: status %d router cache %q, want the new instance's own 422", code, via)
	}
	if got := rt.State().Stampede.Bypassed; got != st.Bypassed+1 {
		t.Fatalf("bypassed lookups %d → %d, want the repeat counted", st.Bypassed, got)
	}
	if b := hdr.Get("X-Queryvis-Build"); b == "" || b == st0.Identity {
		t.Fatalf("after the swap: build %q, want the new instance's, not %q", b, st0.Identity)
	}
}
