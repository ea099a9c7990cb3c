// Black-box tests for the live-membership tentpole against
// controllable httptest backends: the authenticated admin surface,
// runtime join/eject with minimal key movement, drain's
// zero-movement-then-removal contract, probe hysteresis, and the
// response cache collapsing a failover stampede.
package router_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leak"
	"repro/internal/router"
	"repro/internal/telemetry"
)

const adminToken = "test-ring-secret"

// adminDo issues one admin call and returns status plus decoded body.
func adminDo(t *testing.T, method, url, token string, body any) (int, http.Header, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp.StatusCode, resp.Header, buf.Bytes()
}

func ringStatusOf(t *testing.T, raw []byte) router.RingStatus {
	t.Helper()
	var rs router.RingStatus
	if err := json.Unmarshal(raw, &rs); err != nil {
		t.Fatalf("malformed ring admin body %.200s: %v", raw, err)
	}
	return rs
}

// TestAdminSurfaceAuth: no token configured ⇒ 403 for everyone; wrong
// token ⇒ 401; the right token works — and every router-originated
// error body carries a category and an X-Request-Id.
func TestAdminSurfaceAuth(t *testing.T) {
	t.Cleanup(leak.Check(t))
	var hits [8]atomic.Int64

	// Router without a token: the surface is disabled outright.
	_, frontOff, _ := fakeRing(t, 1, okBackend(&hits), nil)
	st, hdr, raw := adminDo(t, http.MethodPost, frontOff.URL+"/v1/ring/instances",
		"whatever", map[string]string{"url": "http://127.0.0.1:1"})
	if st != http.StatusForbidden {
		t.Fatalf("tokenless router: admin status %d body %.200s, want 403", st, raw)
	}
	if hdr.Get("X-Request-Id") == "" {
		t.Fatal("admin 403 without X-Request-Id")
	}
	var eb struct {
		Error struct {
			Category  string `json:"category"`
			RequestID string `json:"request_id"`
		} `json:"error"`
	}
	if err := json.Unmarshal(raw, &eb); err != nil || eb.Error.Category != "admin_disabled" {
		t.Fatalf("403 body %.200s, want category admin_disabled", raw)
	}
	if eb.Error.RequestID != hdr.Get("X-Request-Id") {
		t.Fatal("request_id in body disagrees with the X-Request-Id header")
	}

	// Router with a token: wrong creds bounce, right creds act.
	extra := httptest.NewServer(okBackend(&hits)(7))
	t.Cleanup(extra.Close)
	rt, front, _ := fakeRing(t, 1, okBackend(&hits), func(c *router.Config) {
		c.AdminToken = adminToken
	})
	if st, _, _ := adminDo(t, http.MethodPost, front.URL+"/v1/ring/instances",
		"wrong", map[string]string{"url": extra.URL}); st != http.StatusUnauthorized {
		t.Fatalf("wrong token: status %d, want 401", st)
	}
	st, _, raw = adminDo(t, http.MethodPost, front.URL+"/v1/ring/instances",
		adminToken, map[string]string{"url": extra.URL})
	if st != http.StatusOK {
		t.Fatalf("join: status %d body %.200s", st, raw)
	}
	rs := ringStatusOf(t, raw)
	if rs.Status != "joined" || len(rs.Members) != 2 || rs.Epoch != 2 {
		t.Fatalf("join reported %+v", rs)
	}
	if got := rt.State().Epoch; got != 2 {
		t.Fatalf("healthz epoch %d after join, want 2", got)
	}

	// Unknown member and last-member refusals keep their categories.
	if st, _, _ = adminDo(t, http.MethodDelete,
		front.URL+"/v1/ring/instances?url=http://127.0.0.1:9", adminToken, nil); st != http.StatusNotFound {
		t.Fatalf("eject of a stranger: status %d, want 404", st)
	}
	if st, _, _ = adminDo(t, http.MethodDelete,
		front.URL+"/v1/ring/instances?url="+extra.URL, adminToken, nil); st != http.StatusOK {
		t.Fatalf("eject: status %d", st)
	}
	if st, _, _ = adminDo(t, http.MethodDelete,
		front.URL+"/v1/ring/instances?url="+rt.State().Instances[0].URL, adminToken, nil); st != http.StatusConflict {
		t.Fatalf("last-member eject: status %d, want 409", st)
	}
}

// TestLiveJoinShiftsBoundedKeyspace: joining a fourth instance on a
// live router moves traffic onto it — but only the newcomer's share.
// Keys are replayed against the same router before and after the join;
// every key that changed owner must have moved TO the newcomer, and at
// most ~K/(N+1)+ε of them.
func TestLiveJoinShiftsBoundedKeyspace(t *testing.T) {
	t.Cleanup(leak.Check(t))
	const keys = 120
	var mu sync.Mutex
	owner := make(map[string]string) // sql → backend URL that served it
	hf := func(self string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/healthz" {
				w.WriteHeader(http.StatusOK)
				return
			}
			var req struct {
				SQL string `json:"sql"`
			}
			_ = json.NewDecoder(r.Body).Decode(&req)
			mu.Lock()
			owner[req.SQL] = self
			mu.Unlock()
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(map[string]any{"diagram": "digraph {}"})
		}
	}
	backends := make([]*httptest.Server, 4)
	urls := make([]string, 4)
	for i := range backends {
		srv := httptest.NewUnstartedServer(nil)
		srv.Start()
		urls[i] = srv.URL
		srv.Config.Handler = hf(srv.URL)
		backends[i] = srv
		t.Cleanup(srv.Close)
	}

	rt, err := router.New(router.Config{
		Backends:       urls[:3],
		HealthInterval: 25 * time.Millisecond,
		AdminToken:     adminToken,
		Metrics:        telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)

	sqls := make([]string, keys)
	for i := range sqls {
		sqls[i] = fmt.Sprintf("%s -- key %d", qSome, i)
	}
	route := func() map[string]string {
		for _, sql := range sqls {
			if st, _, raw := postJSON(t, front.URL+"/v1/diagram", diagramReq(sql)); st != 200 {
				t.Fatalf("status %d body %.120s", st, raw)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		snap := make(map[string]string, len(owner))
		for k, v := range owner {
			snap[k] = v
		}
		return snap
	}

	before := route()
	if st, _, raw := adminDo(t, http.MethodPost, front.URL+"/v1/ring/instances",
		adminToken, map[string]string{"url": urls[3]}); st != http.StatusOK {
		t.Fatalf("join: status %d body %.200s", st, raw)
	}
	after := route()

	moved := 0
	for _, sql := range sqls {
		if before[sql] != after[sql] {
			moved++
			if after[sql] != urls[3] {
				t.Errorf("key %.40q moved %s → %s, not to the newcomer", sql, before[sql], after[sql])
			}
		}
	}
	// Expectation K/(N+1) = 30; allow ×1.5 + ε slack for vnode variance.
	if limit := keys*3/(2*4) + 6; moved == 0 || moved > limit {
		t.Fatalf("join moved %d of %d keys (limit %d)", moved, keys, limit)
	}
}

// TestDrainMovesNothingUntilRemoval: draining a member instantly stops
// new assignments to it while every other key keeps its owner (the
// ring itself is untouched); once idle, the member leaves the ring and
// the epoch bumps.
func TestDrainMovesNothingUntilRemoval(t *testing.T) {
	t.Cleanup(leak.Check(t))
	const keys = 90
	var mu sync.Mutex
	owner := make(map[string]string)
	hf := func(self string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/healthz" {
				w.WriteHeader(http.StatusOK)
				return
			}
			var req struct {
				SQL string `json:"sql"`
			}
			_ = json.NewDecoder(r.Body).Decode(&req)
			mu.Lock()
			owner[req.SQL] = self
			mu.Unlock()
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(map[string]any{"diagram": "digraph {}"})
		}
	}
	backends := make([]*httptest.Server, 3)
	urls := make([]string, 3)
	for i := range backends {
		srv := httptest.NewUnstartedServer(nil)
		srv.Start()
		urls[i] = srv.URL
		srv.Config.Handler = hf(srv.URL)
		backends[i] = srv
		t.Cleanup(srv.Close)
	}
	rt, err := router.New(router.Config{
		Backends:          urls,
		HealthInterval:    25 * time.Millisecond,
		DrainPollInterval: 10 * time.Millisecond,
		AdminToken:        adminToken,
		Metrics:           telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)

	sqls := make([]string, keys)
	for i := range sqls {
		sqls[i] = fmt.Sprintf("%s -- drainkey %d", qSome, i)
	}
	route := func() map[string]string {
		for _, sql := range sqls {
			if st, _, raw := postJSON(t, front.URL+"/v1/diagram", diagramReq(sql)); st != 200 {
				t.Fatalf("status %d body %.120s", st, raw)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		snap := make(map[string]string, len(owner))
		for k, v := range owner {
			snap[k] = v
		}
		return snap
	}

	before := route()
	victim := urls[1]
	st, _, raw := adminDo(t, http.MethodPost, front.URL+"/v1/ring/drain",
		adminToken, map[string]string{"url": victim})
	if st != http.StatusAccepted {
		t.Fatalf("drain: status %d body %.200s", st, raw)
	}
	after := route()

	// Zero movement for keys the victim did not own; the victim's own
	// keys reroute to their ring successors, not to one scapegoat.
	for _, sql := range sqls {
		switch {
		case before[sql] == victim && after[sql] == victim:
			t.Errorf("key %.40q still routed to the draining member", sql)
		case before[sql] != victim && after[sql] != before[sql]:
			t.Errorf("drain moved unrelated key %.40q: %s → %s", sql, before[sql], after[sql])
		}
	}

	// With in-flight at zero, the waiter removes the member: epoch bumps
	// and the member list shrinks.
	waitUntil(t, 5*time.Second, func() bool { return len(rt.State().Instances) == 2 })
	if st := rt.State(); st.Epoch < 2 {
		t.Fatalf("epoch %d after drain removal, want ≥ 2", st.Epoch)
	}
	for _, in := range rt.State().Instances {
		if in.URL == victim {
			t.Fatal("victim still in the member list after drain completed")
		}
	}
	// Readmitting the drained URL is a plain join: keys flow back.
	if st, _, _ := adminDo(t, http.MethodPost, front.URL+"/v1/ring/instances",
		adminToken, map[string]string{"url": victim}); st != http.StatusOK {
		t.Fatalf("rejoin after drain: status %d", st)
	}
	waitUntil(t, 5*time.Second, func() bool { return len(rt.State().Instances) == 3 })
}

// TestProbeHysteresisFiltersFlapping: an instance whose healthz flaps
// pass/fail on alternate probes never accumulates the consecutive
// streak needed to flip the verdict — the ring's eligibility set holds
// steady. A solid failure streak still marks it down.
func TestProbeHysteresisFiltersFlapping(t *testing.T) {
	t.Cleanup(leak.Check(t))
	var flap atomic.Int64 // alternation counter while flapping
	var flapping atomic.Bool
	var solid atomic.Bool // healthz always fails when true
	flapping.Store(true)
	hf := func(i int) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/healthz" {
				if solid.Load() || (i == 0 && flapping.Load() && flap.Add(1)%2 == 0) {
					w.WriteHeader(http.StatusServiceUnavailable)
					return
				}
				w.WriteHeader(http.StatusOK)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(map[string]any{"diagram": "digraph {}"})
		}
	}
	rt, _, _ := fakeRing(t, 1, hf, func(c *router.Config) {
		c.HealthInterval = 10 * time.Millisecond
		c.ProbeDownAfter = 2
	})

	// Flapping phase: ~30 probe cycles, verdict must never flip.
	deadline := time.Now().Add(400 * time.Millisecond)
	for time.Now().Before(deadline) {
		if !rt.State().Instances[0].Healthy {
			t.Fatal("alternating probe failures flipped the verdict despite hysteresis")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Solid failure: two consecutive misses mark it down…
	solid.Store(true)
	waitUntil(t, 5*time.Second, func() bool { return !rt.State().Instances[0].Healthy })
	// …and a solid recovery streak readmits it.
	flapping.Store(false)
	solid.Store(false)
	waitUntil(t, 5*time.Second, func() bool { return rt.State().Instances[0].Healthy })
}

// TestStampedeCollapsesColdWindow: with the response cache on, N
// concurrent identical requests produce one backend call; followers
// replay the leader's verified response and the cache answers every
// repeat after it. Unshareable responses are never replayed, and
// fault-injected requests bypass the layer.
func TestStampedeCollapsesColdWindow(t *testing.T) {
	t.Cleanup(leak.Check(t))
	var slowHits atomic.Int64
	var degrade atomic.Bool
	hf := func(i int) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/healthz" {
				w.WriteHeader(http.StatusOK)
				return
			}
			slowHits.Add(1)
			time.Sleep(80 * time.Millisecond) // wide window for followers to pile in
			if degrade.Load() {
				w.Header().Set("X-QueryVis-Degraded", "worker_crash")
			}
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(map[string]any{"diagram": "digraph {}"})
		}
	}
	rt, front, _ := fakeRing(t, 1, hf, func(c *router.Config) {
		c.ResponseCache = true
	})

	const stormers = 10
	var wg sync.WaitGroup
	codes := make([]int, stormers)
	for g := 0; g < stormers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			codes[g], _, _ = postJSON(t, front.URL+"/v1/diagram", diagramReq(qSome))
		}(g)
	}
	wg.Wait()
	for g, st := range codes {
		if st != 200 {
			t.Fatalf("stormer %d: status %d", g, st)
		}
	}
	if n := slowHits.Load(); n != 1 {
		t.Fatalf("%d identical concurrent requests made %d backend calls, want 1", stormers, n)
	}
	st := rt.State()
	if st.Stampede == nil || st.Stampede.Coalesced+st.Stampede.Hits != stormers-1 {
		t.Fatalf("stampede accounting %+v, want %d followers served", st.Stampede, stormers-1)
	}

	// A repeat is answered by the router alone.
	code, hdr, _ := postJSON(t, front.URL+"/v1/diagram", diagramReq(qSome))
	if code != 200 || hdr.Get("X-Queryvis-Router-Cache") != "hit" {
		t.Fatalf("repeat: status %d cache header %q, want 200/hit", code, hdr.Get("X-Queryvis-Router-Cache"))
	}
	if slowHits.Load() != 1 {
		t.Fatal("repeat reached the backend")
	}

	// Degraded responses are never shared: every stormer pays its own
	// trip once the leader's answer comes back unshareable.
	degrade.Store(true)
	slowHits.Store(0)
	distinct := diagramReq(qSome + " -- degraded round")
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			postJSON(t, front.URL+"/v1/diagram", distinct)
		}()
	}
	wg.Wait()
	if n := slowHits.Load(); n != 4 {
		t.Fatalf("degraded responses coalesced: %d backend calls for 4 stormers, want 4", n)
	}

	// Fault-injected requests bypass the layer entirely.
	degrade.Store(false)
	slowHits.Store(0)
	req, _ := json.Marshal(diagramReq(qSome + " -- faulted"))
	for i := 0; i < 2; i++ {
		hreq, err := http.NewRequest(http.MethodPost, front.URL+"/v1/diagram", strings.NewReader(string(req)))
		if err != nil {
			t.Fatal(err)
		}
		hreq.Header.Set("X-Fault-Seed", "7")
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if n := slowHits.Load(); n != 2 {
		t.Fatalf("fault-injected requests were cached: %d backend calls, want 2", n)
	}
}
