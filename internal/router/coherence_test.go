package router_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
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
// router must see the owner's new X-Queryvis-Build and stop replaying
// the old bytes: the repeat reaches the new instance and gets its
// answer.
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

	code, hdr, first := postJSON(t, url, diagramReq(qSome))
	build := hdr.Get("X-Queryvis-Build")
	if code != http.StatusOK || build == "" {
		t.Fatalf("first request: status %d build %q, want 200 naming its build", code, build)
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

	// Replace the owner. A member's next probe starts only once its
	// previous one has finished, so once a second probe reaches the new
	// instance, the first one's answer has been recorded.
	limits := queryvis.DefaultLimits()
	limits.MaxQueryBytes = 16
	owner.srv.Store(server.New(server.Config{CacheEntries: 64, Limits: limits}))
	probed := owner.probes.Load()
	waitUntil(t, 10*time.Second, func() bool { return owner.probes.Load() >= probed+2 })

	code, hdr, _ = postJSON(t, url, diagramReq(qSome))
	if via := hdr.Get("X-Queryvis-Router-Cache"); via != "" || code != http.StatusUnprocessableEntity {
		t.Fatalf("after the swap: status %d router cache %q, want the new instance's own 422", code, via)
	}
	if owner.posts.Load() != 2 {
		t.Fatalf("the repeat after the swap reached the owner %d times in total, want 2", owner.posts.Load())
	}
	if b := hdr.Get("X-Queryvis-Build"); b == "" || b == build {
		t.Fatalf("after the swap: build %q, want the new instance's, not %q", b, build)
	}
}

// fakeMember is an instance whose build and health the test sets. It
// stamps its build on every response and names itself in
// X-Fake-Member, and it counts probes and POSTs.
type fakeMember struct {
	name          string
	build         atomic.Value // string
	down          atomic.Bool
	probes, posts atomic.Int64
}

func (f *fakeMember) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	build := f.build.Load().(string)
	w.Header().Set("X-Queryvis-Build", build)
	if r.URL.Path == "/v1/healthz" {
		f.probes.Add(1)
		if f.down.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		return
	}
	f.posts.Add(1)
	body, _ := io.ReadAll(r.Body)
	w.Header().Set("X-Fake-Member", f.name)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]string{"request": string(body), "build": build})
}

// fakeFleet starts one fakeMember per build behind a router with its
// response cache on, and waits until the prober has recorded every
// member's build: a member's second probe starts only after its first
// has finished.
func fakeFleet(t *testing.T, builds ...string) (*router.Router, string, []*fakeMember) {
	t.Helper()
	members := make([]*fakeMember, len(builds))
	urls := make([]string, len(builds))
	for i, b := range builds {
		members[i] = &fakeMember{name: strconv.Itoa(i)}
		members[i].build.Store(b)
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
	waitUntil(t, 10*time.Second, func() bool {
		for _, m := range members {
			if m.probes.Load() < 2 {
				return false
			}
		}
		return true
	})
	return rt, front.URL + "/v1/diagram", members
}

// ownedKeys sends distinct requests until each member has answered one
// and returns, per member, the request it answered. Every member is
// healthy, so each request reached its key's ring owner.
func ownedKeys(t *testing.T, url string, n int) []map[string]any {
	t.Helper()
	keys := make([]map[string]any, n)
	for i, found := 0, 0; found < n; i++ {
		if i == 1000 {
			t.Fatalf("1000 requests reached only %d of %d members", found, n)
		}
		req := map[string]any{"sql": fmt.Sprintf("q%d", i)}
		code, hdr, _ := postJSON(t, url, req)
		m, err := strconv.Atoi(hdr.Get("X-Fake-Member"))
		if code != http.StatusOK || err != nil {
			t.Fatalf("request %d: status %d from member %q", i, code, hdr.Get("X-Fake-Member"))
		}
		if keys[m] == nil {
			keys[m] = req
			found++
		}
	}
	return keys
}

// expectServed posts req and checks how it was served: via is the
// X-Queryvis-Router-Cache marker ("" for a forward) and build the
// answer's X-Queryvis-Build.
func expectServed(t *testing.T, url string, req map[string]any, via, build string) {
	t.Helper()
	code, hdr, body := postJSON(t, url, req)
	if code != http.StatusOK || hdr.Get("X-Queryvis-Router-Cache") != via || hdr.Get("X-Queryvis-Build") != build {
		t.Fatalf("%v: status %d router cache %q build %q, want 200 %q from %s (%s)",
			req, code, hdr.Get("X-Queryvis-Router-Cache"), hdr.Get("X-Queryvis-Build"), via, build, body)
	}
	if !bytes.Contains(body, []byte(`"build":"`+build+`"`)) {
		t.Fatalf("%v: body %s is not %s's answer", req, body, build)
	}
}

// TestMixedFleetRepeatsAreHits: in a fleet whose two members run
// different builds, as during a rolling deploy, repeats of every
// member's keys are router hits carrying that member's bytes.
func TestMixedFleetRepeatsAreHits(t *testing.T) {
	t.Cleanup(leak.Check(t))
	rt, url, members := fakeFleet(t, "b0", "b1")
	const keys = 32
	owner := make([]string, keys)
	for i := range owner {
		code, hdr, _ := postJSON(t, url, map[string]any{"sql": fmt.Sprintf("q%d", i)})
		if code != http.StatusOK || hdr.Get("X-Queryvis-Router-Cache") != "" {
			t.Fatalf("first request %d: status %d router cache %q, want a 200 forward",
				i, code, hdr.Get("X-Queryvis-Router-Cache"))
		}
		owner[i] = hdr.Get("X-Queryvis-Build")
	}
	if members[0].posts.Load() == 0 || members[1].posts.Load() == 0 {
		t.Fatalf("%d keys reached only one member: %d and %d POSTs",
			keys, members[0].posts.Load(), members[1].posts.Load())
	}
	for i, b := range owner {
		expectServed(t, url, map[string]any{"sql": fmt.Sprintf("q%d", i)}, "hit", b)
	}
	if n := members[0].posts.Load() + members[1].posts.Load(); n != keys {
		t.Fatalf("members saw %d POSTs, want only the %d first requests", n, keys)
	}
	if st := rt.State().Stampede; st.Hits != keys || st.Entries != keys {
		t.Fatalf("cache state %+v, want %d hits and %d entries", st, keys, keys)
	}
}

// TestProbedBuildChangeReplacesEntry: a probe that reports a new build
// for a key's owner makes that key's next lookup a miss; the miss
// reaches the owner, and its answer replaces the entry. The other
// member's keys keep hitting throughout.
func TestProbedBuildChangeReplacesEntry(t *testing.T) {
	t.Cleanup(leak.Check(t))
	_, url, members := fakeFleet(t, "b1", "b1")
	keys := ownedKeys(t, url, 2)
	for _, k := range keys {
		expectServed(t, url, k, "hit", "b1")
	}

	a := members[0]
	a.build.Store("b2")
	probed := a.probes.Load()
	waitUntil(t, 10*time.Second, func() bool { return a.probes.Load() >= probed+2 })

	posts := a.posts.Load()
	expectServed(t, url, keys[0], "", "b2")
	if got := a.posts.Load(); got != posts+1 {
		t.Fatalf("the miss reached the owner %d times, want once", got-posts)
	}
	expectServed(t, url, keys[0], "hit", "b2")
	expectServed(t, url, keys[1], "hit", "b1")
}

// TestOwnerDownEntryNotReplayedForOtherBuild: while a key's owner is
// down, the member a forward reaches is its successor, so the owner's
// entry is not replayed for the successor's other build. The
// successor's answer replaces it, and the owner's return replaces it
// again.
func TestOwnerDownEntryNotReplayedForOtherBuild(t *testing.T) {
	t.Cleanup(leak.Check(t))
	rt, url, members := fakeFleet(t, "b1", "b2")
	key := ownedKeys(t, url, 2)[0]
	expectServed(t, url, key, "hit", "b1")

	a, b := members[0], members[1]
	healthy := func(want bool) func() bool {
		return func() bool { return rt.State().Instances[0].Healthy == want }
	}
	a.down.Store(true)
	waitUntil(t, 10*time.Second, healthy(false))
	posts := b.posts.Load()
	expectServed(t, url, key, "", "b2")
	if got := b.posts.Load(); got != posts+1 {
		t.Fatalf("the miss reached the successor %d times, want once", got-posts)
	}
	expectServed(t, url, key, "hit", "b2")

	a.down.Store(false)
	waitUntil(t, 10*time.Second, healthy(true))
	expectServed(t, url, key, "", "b1")
	expectServed(t, url, key, "hit", "b1")
}

// TestRingDownServesOwnersEntry: with every member down, the key's ring
// owner decides, so each key is still answered from its owner's entry,
// in a mixed fleet too; a key with no entry is shed.
func TestRingDownServesOwnersEntry(t *testing.T) {
	t.Cleanup(leak.Check(t))
	rt, url, members := fakeFleet(t, "b1", "b2")
	keys := ownedKeys(t, url, 2)
	for _, m := range members {
		m.down.Store(true)
	}
	waitUntil(t, 10*time.Second, func() bool { return rt.State().Status == "unhealthy" })
	expectServed(t, url, keys[0], "hit", "b1")
	expectServed(t, url, keys[1], "hit", "b2")
	if code, _, _ := postJSON(t, url, map[string]any{"sql": "never sent"}); code != http.StatusServiceUnavailable {
		t.Fatalf("a key without an entry: status %d, want the router's 503", code)
	}
}
