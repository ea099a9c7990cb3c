// Black-box tests for live membership against controllable httptest
// backends: the membership methods' refusals, runtime join/eject with
// minimal key movement, a joined member's admission by the prober,
// drain's zero-movement-then-removal contract, probe hysteresis,
// concurrency and cancellation, and the response cache collapsing a
// failover stampede.
package router_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
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

// TestMembershipRefusals: the membership methods refuse what would
// corrupt the ring — a stranger, a duplicate, a malformed URL, removing
// the last member — and a refusal leaves the epoch where it was.
func TestMembershipRefusals(t *testing.T) {
	t.Cleanup(leak.Check(t))
	var hits [8]atomic.Int64
	extra := httptest.NewServer(okBackend(&hits)(7))
	t.Cleanup(extra.Close)
	rt, _, _ := fakeRing(t, 1, okBackend(&hits), nil)
	only := rt.State().Instances[0].URL

	if err := rt.Eject("http://127.0.0.1:9"); !errors.Is(err, router.ErrUnknownMember) {
		t.Fatalf("eject of a stranger: %v, want ErrUnknownMember", err)
	}
	if err := rt.Drain("http://127.0.0.1:9"); !errors.Is(err, router.ErrUnknownMember) {
		t.Fatalf("drain of a stranger: %v, want ErrUnknownMember", err)
	}
	if err := rt.Eject(only); !errors.Is(err, router.ErrLastMember) {
		t.Fatalf("last-member eject: %v, want ErrLastMember", err)
	}
	if err := rt.Join(only + "/"); err == nil {
		t.Fatal("joining a member already on the ring (trailing slash) succeeded")
	}
	if err := rt.Join("ftp://127.0.0.1:1"); err == nil {
		t.Fatal("joining a non-http URL succeeded")
	}
	if ep := rt.State().Epoch; ep != 1 {
		t.Fatalf("epoch %d after refused changes only, want 1", ep)
	}

	if err := rt.Join(extra.URL); err != nil {
		t.Fatal(err)
	}
	if st := rt.State(); st.Epoch != 2 || len(st.Instances) != 2 {
		t.Fatalf("after join: epoch %d, %d members; want 2, 2", st.Epoch, len(st.Instances))
	}
	if err := rt.Eject(extra.URL); err != nil {
		t.Fatal(err)
	}
	if st := rt.State(); st.Epoch != 3 || len(st.Instances) != 1 {
		t.Fatalf("after eject: epoch %d, %d members; want 3, 1", st.Epoch, len(st.Instances))
	}
}

// admitted reports whether the router's prober holds url healthy.
func admitted(rt *router.Router, url string) bool {
	for _, in := range rt.State().Instances {
		if in.URL == url {
			return in.Healthy
		}
	}
	return false
}

// TestLiveJoinShiftsBoundedKeyspace: joining a fourth instance on a
// live router moves traffic onto it once the prober admits it — but
// only the newcomer's share. Keys are replayed against the same router
// before the join and after the admission; every key that changed owner
// must have moved TO the newcomer, and at most ~K/(N+1)+ε of them.
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
	if err := rt.Join(urls[3]); err != nil {
		t.Fatalf("join: %v", err)
	}
	waitUntil(t, 5*time.Second, func() bool { return admitted(rt, urls[3]) })
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

// TestJoinedMemberWaitsForAdmission: a live backend joined at runtime
// starts out of rotation. It is forwarded nothing until it has passed
// two probes (probeUpAfter), then takes its keys. Its admission is not
// a heal: the heal histogram counts only members the prober marked down.
func TestJoinedMemberWaitsForAdmission(t *testing.T) {
	t.Cleanup(leak.Check(t))
	var probes, forwarded, early atomic.Int64
	newcomer := httptest.NewServer(sameBuild(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/healthz" {
			probes.Add(1)
			w.WriteHeader(http.StatusOK)
			return
		}
		forwarded.Add(1)
		if probes.Load() < 2 {
			early.Add(1)
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{"diagram": "digraph {}"})
	}))
	t.Cleanup(newcomer.Close)
	var hits [8]atomic.Int64
	rt, front, _ := fakeRing(t, 2, okBackend(&hits), func(c *router.Config) {
		c.HealthInterval = 50 * time.Millisecond
	})

	sqls := make([]string, 48)
	for i := range sqls {
		sqls[i] = fmt.Sprintf("%s -- admitkey %d", qSome, i)
	}
	route := func() {
		for _, sql := range sqls {
			if st, _, raw := postJSON(t, front.URL+"/v1/diagram", diagramReq(sql)); st != 200 {
				t.Fatalf("status %d body %.120s", st, raw)
			}
		}
	}

	if err := rt.Join(newcomer.URL); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for !admitted(rt, newcomer.URL) {
		if time.Since(start) > 5*time.Second {
			t.Fatal("the joined member was never admitted")
		}
		route()
	}
	route()
	if n := early.Load(); n != 0 {
		t.Fatalf("%d requests forwarded to the newcomer before its second passing probe", n)
	}
	if forwarded.Load() == 0 {
		t.Fatal("the admitted newcomer took none of its keys")
	}
	if n := rt.Registry().Value("queryvis_router_heal_duration_seconds"); n != 0 {
		t.Fatalf("heal histogram count = %v after a newcomer's admission, want 0", n)
	}
}

// TestDrainMovesNothingUntilRemoval: draining a member instantly stops
// new assignments to it while every other key keeps its owner (the
// ring itself is untouched, the epoch holds); the eject that finishes
// the drain removes it and bumps the epoch. That the eject waits for
// zero in flight is the fleet supervisor's job and is tested there
// (TestDrainCompletesOnceIdle).
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
		Backends:       urls,
		HealthInterval: 25 * time.Millisecond,
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
	if err := rt.Drain(victim); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := rt.Drain(victim); err != nil {
		t.Fatalf("repeated drain: %v", err)
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

	// Draining moved no ring key, so the epoch holds and the victim is
	// still a (draining, idle) member.
	st := rt.State()
	if st.Epoch != 1 || len(st.Instances) != 3 {
		t.Fatalf("while draining: epoch %d, %d members; want 1, 3", st.Epoch, len(st.Instances))
	}
	for _, in := range st.Instances {
		if in.URL == victim && (!in.Draining || in.Inflight != 0) {
			t.Fatalf("victim state %+v, want draining with nothing in flight", in)
		}
	}

	// The eject that finishes the drain: epoch bumps, the list shrinks.
	if err := rt.Eject(victim); err != nil {
		t.Fatalf("eject: %v", err)
	}
	st = rt.State()
	if st.Epoch != 2 || len(st.Instances) != 2 {
		t.Fatalf("after eject: epoch %d, %d members; want 2, 2", st.Epoch, len(st.Instances))
	}
	for _, in := range st.Instances {
		if in.URL == victim {
			t.Fatal("victim still in the member list after the eject")
		}
	}
	// Readmitting the drained URL is a plain join: its keys flow back
	// once the prober admits it.
	if err := rt.Join(victim); err != nil {
		t.Fatalf("rejoin after drain: %v", err)
	}
	waitUntil(t, 5*time.Second, func() bool { return admitted(rt, victim) })
	back := route()
	for _, sql := range sqls {
		if back[sql] != before[sql] {
			t.Errorf("key %.40q owned by %s after rejoin, %s before the drain", sql, back[sql], before[sql])
		}
	}
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
	// …and a solid recovery streak readmits it, timed as one heal.
	flapping.Store(false)
	solid.Store(false)
	waitUntil(t, 5*time.Second, func() bool { return rt.State().Instances[0].Healthy })
	if n := rt.Registry().Value("queryvis_router_heal_duration_seconds"); n != 1 {
		t.Fatalf("heal histogram count = %v after one down-and-up, want 1", n)
	}
}

// TestProbeNotQueuedBehindBlackhole: a round probes its members
// concurrently, so a member whose probe hangs for the full probe
// timeout does not delay another member's verdict. A dead member
// listed after a blackholed one is marked down within a few probe
// intervals.
func TestProbeNotQueuedBehindBlackhole(t *testing.T) {
	t.Cleanup(leak.Check(t))
	// The blackhole accepts connections (the kernel completes the
	// handshake into the backlog) and never answers.
	hole, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hole.Close() })
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + dead.Addr().String()
	dead.Close()

	rt, err := router.New(router.Config{
		Backends:       []string{"http://" + hole.Addr().String(), deadURL},
		HealthInterval: 20 * time.Millisecond,
		Metrics:        telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	down := func() bool {
		for _, in := range rt.State().Instances {
			if in.URL == deadURL {
				return !in.Healthy
			}
		}
		return false
	}
	for !down() {
		if time.Since(start) > 5*time.Second {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	took := time.Since(start)
	rt.Close()
	if took > 500*time.Millisecond {
		t.Fatalf("dead member marked down after %v, want within 500ms (its probes queued behind the blackhole)", took)
	}
}

// TestBlackholedMemberDownWithinThreeIntervals: a member whose healthz
// stops answering leaves rotation within 3 × HealthInterval, because a
// probe still outstanding at its member's next round counts as a miss.
// The hole opens half an interval after an answered probe, so the
// member is down 2.5 intervals later: the next round's probe hangs and
// the ProbeDownAfter (2) rounds after it find it outstanding.
func TestBlackholedMemberDownWithinThreeIntervals(t *testing.T) {
	t.Cleanup(leak.Check(t))
	const interval = 100 * time.Millisecond
	var holed atomic.Bool
	answered := make(chan struct{}, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if holed.Load() {
			<-r.Context().Done()
			return
		}
		w.WriteHeader(http.StatusOK)
		select {
		case answered <- struct{}{}:
		default:
		}
	}))
	defer srv.Close()
	rt, err := router.New(router.Config{
		Backends:       []string{srv.URL},
		HealthInterval: interval,
		Metrics:        telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for i := 0; i < 2; i++ { // the second answer is a fresh one
		select {
		case <-answered:
		case <-time.After(5 * time.Second):
			t.Fatal("no probe answered")
		}
	}
	time.Sleep(interval / 2)
	holed.Store(true)
	start := time.Now()
	for rt.State().Instances[0].Healthy && time.Since(start) < 5*time.Second {
		time.Sleep(2 * time.Millisecond)
	}
	if took := time.Since(start); took > 3*interval {
		t.Fatalf("blackholed member out of rotation after %v, want within %v (3 × HealthInterval)", took, 3*interval)
	}
}

// TestCloseCancelsOutstandingProbe: Close cancels a probe still waiting
// on a blackholed member instead of waiting out the probe timeout.
func TestCloseCancelsOutstandingProbe(t *testing.T) {
	t.Cleanup(leak.Check(t))
	hole, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	probed := make(chan struct{})
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		for {
			c, err := hole.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			if len(conns) == 1 {
				close(probed)
			}
			mu.Unlock()
		}
	}()
	defer func() {
		hole.Close()
		<-acceptDone
		for _, c := range conns {
			c.Close()
		}
	}()

	rt, err := router.New(router.Config{
		Backends:       []string{"http://" + hole.Addr().String()},
		HealthInterval: 20 * time.Millisecond,
		Metrics:        telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-probed:
	case <-time.After(5 * time.Second):
		rt.Close()
		t.Fatal("no probe reached the blackhole")
	}
	start := time.Now()
	rt.Close()
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Fatalf("Close took %v with a probe outstanding, want under 100ms", took)
	}
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
