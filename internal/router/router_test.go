// Black-box router behavior against controllable httptest backends:
// sticky sharding, failover, the one health streak, and the honest
// fully-unhealthy 503.
package router_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
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

// fakeRing builds n httptest backends whose handler is hf(i), plus a
// router over them; both are torn down with the test.
func fakeRing(t testing.TB, n int, hf func(i int) http.HandlerFunc, tune func(*router.Config)) (*router.Router, *httptest.Server, []*httptest.Server) {
	t.Helper()
	backends := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		backends[i] = httptest.NewServer(sameBuild(hf(i)))
		t.Cleanup(backends[i].Close)
		urls[i] = backends[i].URL
	}
	cfg := router.Config{
		Backends:       urls,
		HealthInterval: 25 * time.Millisecond,
		Metrics:        telemetry.NewRegistry(),
	}
	if tune != nil {
		tune(&cfg)
	}
	rt, err := router.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)
	return rt, front, backends
}

// sameBuild stamps every response with one X-Queryvis-Build value, as
// a fleet of identical instances does, so a router's response cache
// over fakes stores their answers.
func sameBuild(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Queryvis-Build", "fake")
		h(w, r)
	}
}

// okBackend answers every POST with a 200 JSON body naming itself and a
// healthz with 200.
func okBackend(hits *[8]atomic.Int64) func(i int) http.HandlerFunc {
	return func(i int) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/healthz" {
				w.WriteHeader(http.StatusOK)
				return
			}
			hits[i].Add(1)
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(map[string]any{"diagram": "digraph {}", "instance": i})
		}
	}
}

// TestStickySharding: one body always lands on one backend; distinct
// bodies use more than one backend.
func TestStickySharding(t *testing.T) {
	t.Cleanup(leak.Check(t))
	var hits [8]atomic.Int64
	_, front, _ := fakeRing(t, 3, okBackend(&hits), nil)

	for i := 0; i < 10; i++ {
		if st, _, _ := postJSON(t, front.URL+"/v1/diagram", diagramReq(qSome)); st != 200 {
			t.Fatalf("request %d: status %d", i, st)
		}
	}
	owners := 0
	for i := range hits {
		if n := hits[i].Load(); n > 0 {
			owners++
			if n != 10 {
				t.Fatalf("backend %d saw %d of 10 identical requests", i, n)
			}
		}
	}
	if owners != 1 {
		t.Fatalf("identical body spread across %d backends, want 1", owners)
	}

	for i := range hits {
		hits[i].Store(0)
	}
	for i := 0; i < 40; i++ {
		sql := strings.Replace(qSome, "F.person", "F.person /*"+strings.Repeat("x", i)+"*/", 1)
		if st, _, _ := postJSON(t, front.URL+"/v1/diagram", diagramReq(sql)); st != 200 {
			t.Fatalf("distinct request %d: status %d", i, st)
		}
	}
	owners = 0
	for i := range hits {
		if hits[i].Load() > 0 {
			owners++
		}
	}
	if owners < 2 {
		t.Fatalf("40 distinct bodies all hit %d backend(s); hashing is not spreading", owners)
	}
}

// TestFailoverOnSheddingInstance: an instance answering 503 loses the
// request to its ring successor; the client sees only 200s.
func TestFailoverOnSheddingInstance(t *testing.T) {
	t.Cleanup(leak.Check(t))
	const sick = 0
	var hits [8]atomic.Int64
	hf := func(i int) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/healthz" {
				w.WriteHeader(http.StatusOK) // healthz lies; forwarded outcomes tell
				return
			}
			if i == sick {
				w.Header().Set("Retry-After", "0")
				http.Error(w, `{"error":{"category":"overloaded","message":"shedding"}}`,
					http.StatusServiceUnavailable)
				return
			}
			hits[i].Add(1)
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(map[string]any{"diagram": "digraph {}"})
		}
	}
	rt, front, _ := fakeRing(t, 2, hf, nil)

	for i := 0; i < 20; i++ {
		sql := qSome + strings.Repeat(" ", i+1) // distinct keys: some own the sick instance
		if st, _, raw := postJSON(t, front.URL+"/v1/diagram", diagramReq(sql)); st != 200 {
			t.Fatalf("request %d: status %d body %.120s", i, st, raw)
		}
	}
	st := rt.State()
	if st.Failovers == 0 {
		t.Fatalf("no failover recorded despite a shedding instance: %+v", st)
	}
	if rt.Registry().Value("queryvis_router_failovers_total") != float64(st.Failovers) {
		t.Fatal("healthz and registry disagree on failovers")
	}
}

// sickMember is a two-member ring whose member 1 answers every healthz
// with 200 but every forwarded request with the status code holds; member
// 0 serves. posts counts the requests member 1 was forwarded and probes
// its healthz hits. A POST whose body names "hold" while hold is set
// parks until free is called, then passes with a 200; parked reports it
// arrived.
type sickMember struct {
	rt            *router.Router
	front         *httptest.Server
	url           string
	code          atomic.Int32
	posts, probes atomic.Int64
	hold          atomic.Bool
	parked        chan struct{}
	release       chan struct{}
	free          func()
	n             int
}

func newSickMember(t *testing.T, tune func(*router.Config)) *sickMember {
	t.Helper()
	s := &sickMember{parked: make(chan struct{}, 1), release: make(chan struct{})}
	s.free = sync.OnceFunc(func() { close(s.release) })
	s.code.Store(http.StatusServiceUnavailable)
	hf := func(i int) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/healthz" {
				if i == 1 {
					s.probes.Add(1)
				}
				w.WriteHeader(http.StatusOK) // member 1's healthz lies
				return
			}
			if i == 1 {
				s.posts.Add(1)
				raw, _ := io.ReadAll(r.Body)
				if s.hold.Load() && strings.Contains(string(raw), "hold") {
					s.parked <- struct{}{}
					<-s.release
				} else {
					w.Header().Set("Retry-After", "0")
					http.Error(w, `{"error":{"category":"overloaded","message":"sick"}}`, int(s.code.Load()))
					return
				}
			}
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(map[string]any{"diagram": "digraph {}"})
		}
	}
	var backends []*httptest.Server
	s.rt, s.front, backends = fakeRing(t, 2, hf, tune)
	s.url = backends[1].URL
	t.Cleanup(s.free) // runs before the servers close, so none waits on a parked request
	return s
}

// settle waits out the prober's first round, whose passing verdict
// would otherwise reset a streak the test is counting.
func (s *sickMember) settle(t *testing.T) {
	t.Helper()
	waitUntil(t, 5*time.Second, func() bool { return s.probes.Load() > 0 })
	time.Sleep(50 * time.Millisecond)
}

// state returns member 1's row of the router's healthz.
func (s *sickMember) state() router.InstanceState {
	for _, in := range s.rt.State().Instances {
		if in.URL == s.url {
			return in
		}
	}
	return router.InstanceState{}
}

// post sends one request on a fresh key; the client sees member 0's
// answer, or member 1's when member 1 owns the key and answers other
// than 502/503.
func (s *sickMember) post(t *testing.T, tag string) int {
	t.Helper()
	s.n++
	st, _, _ := postJSON(t, s.front.URL+"/v1/diagram", diagramReq(fmt.Sprintf("%s -- %s %d", qSome, tag, s.n)))
	return st
}

// hitSick posts fresh keys until member 1 has been forwarded n more
// requests; a member out of rotation fails the test instead of hanging
// it.
func (s *sickMember) hitSick(t *testing.T, n int64) {
	t.Helper()
	want := s.posts.Load() + n
	for i := 0; s.posts.Load() < want; i++ {
		if i == 500 {
			t.Fatalf("member 1 was forwarded nothing in 500 requests: %+v", s.state())
		}
		s.post(t, "key")
	}
}

// TestForwardedFailuresTakeMemberDown: a member whose healthz passes but
// whose forwarded requests answer 503 goes Healthy=false after exactly
// ProbeDownAfter forwarded failures. While it is down it is forwarded
// nothing, and a forwarded pass that lands after it went down — a
// request that was in flight — does not readmit it: admission is the
// prober's alone.
func TestForwardedFailuresTakeMemberDown(t *testing.T) {
	t.Cleanup(leak.Check(t))
	const downAfter = 3
	s := newSickMember(t, func(c *router.Config) {
		c.HealthInterval = time.Hour // one probe round, at start
		c.ProbeDownAfter = downAfter
	})
	s.settle(t)

	// Park one request on the sick member; it passes later.
	s.hold.Store(true)
	held := make(chan int, 1)
	for i := 0; ; i++ {
		body, _ := json.Marshal(diagramReq(fmt.Sprintf("%s -- hold %d", qSome, i)))
		go func() {
			resp, err := http.Post(s.front.URL+"/v1/diagram", "application/json", bytes.NewReader(body))
			if err != nil {
				held <- 0
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			held <- resp.StatusCode
		}()
		select {
		case <-s.parked:
		case st := <-held: // the key went to member 0
			if st != http.StatusOK {
				t.Fatalf("status %d from the serving member", st)
			}
			continue
		}
		break
	}
	s.hold.Store(false)
	before := s.posts.Load()

	for i := 1; i <= downAfter; i++ {
		s.hitSick(t, 1)
		if got := s.state().Healthy; got != (i < downAfter) {
			t.Fatalf("after %d forwarded 503s: healthy = %v, want %v", i, got, i < downAfter)
		}
	}
	if st := s.rt.State(); st.Status != "degraded" {
		t.Fatalf("status %q with one member down, want degraded", st.Status)
	}

	// Down: every key goes to the serving member.
	down := s.posts.Load()
	for i := 0; i < 40; i++ {
		if st := s.post(t, "down"); st != http.StatusOK {
			t.Fatalf("request %d while one member is down: status %d", i, st)
		}
	}
	if got := s.posts.Load(); got != down || down-before != downAfter {
		t.Fatalf("sick member forwarded %d requests to go down and %d while down, want %d and 0",
			down-before, got-down, downAfter)
	}

	// The parked request passes now; the member stays down.
	s.free()
	if st := <-held; st != http.StatusOK {
		t.Fatalf("parked request: status %d", st)
	}
	if s.state().Healthy {
		t.Fatal("a forwarded pass readmitted a member marked down")
	}
	if n := s.rt.Registry().Value("queryvis_router_heal_duration_seconds"); n != 0 {
		t.Fatalf("heal histogram count = %v with no readmission, want 0", n)
	}
}

// TestNeutralOutcomesLeaveStreak: a 429, 500 or 504 from a member
// neither fails nor passes its streak. However many it answers, it
// stays in rotation, and two 503s with neutral answers between them
// are still two consecutive failures.
func TestNeutralOutcomesLeaveStreak(t *testing.T) {
	t.Cleanup(leak.Check(t))
	s := newSickMember(t, func(c *router.Config) {
		c.HealthInterval = time.Hour // one probe round, at start
		c.ProbeDownAfter = 2
	})
	s.settle(t)

	neutral := []int32{http.StatusTooManyRequests, http.StatusInternalServerError, http.StatusGatewayTimeout}
	for _, code := range neutral {
		s.code.Store(code)
		s.hitSick(t, 10)
		if !s.state().Healthy {
			t.Fatalf("10 forwarded %ds took the member down", code)
		}
	}

	s.code.Store(http.StatusServiceUnavailable)
	s.hitSick(t, 1)
	for _, code := range neutral {
		s.code.Store(code)
		s.hitSick(t, 3)
	}
	if !s.state().Healthy {
		t.Fatal("one 503 and neutral answers took the member down")
	}
	s.code.Store(http.StatusServiceUnavailable)
	s.hitSick(t, 1)
	if s.state().Healthy {
		t.Fatal("two 503s with only neutral answers between them left the member in rotation")
	}
}

// TestLyingMemberReadmittedByProbes: with the prober running, a member
// whose healthz passes but whose requests 5xx leaves rotation on its
// forwarded failures, is forwarded nothing while down, and comes back
// only through passing probes, the interval landing in the heal
// histogram.
func TestLyingMemberReadmittedByProbes(t *testing.T) {
	t.Cleanup(leak.Check(t))
	s := newSickMember(t, func(c *router.Config) {
		c.HealthInterval = 25 * time.Millisecond
		c.ProbeDownAfter = 2
	})
	waitUntil(t, 5*time.Second, func() bool {
		s.post(t, "key")
		return !s.state().Healthy
	})
	probesAtDown := s.probes.Load()
	// Serial requests: one that starts and ends with the member down
	// was routed against the down verdict, so it must not reach it. A
	// readmitted member needs two failures to go down again, so one
	// request cannot straddle a readmission.
	for !s.state().Healthy {
		posts := s.posts.Load()
		if st := s.post(t, "down"); st != http.StatusOK {
			t.Fatalf("request while one member is down: status %d", st)
		}
		if !s.state().Healthy && s.posts.Load() != posts {
			t.Fatal("a request reached the member while the router held it down")
		}
	}
	// Two passing probes admit it; one of them may have been in flight
	// when it went down.
	if got := s.probes.Load() - probesAtDown; got < 1 {
		t.Fatalf("readmitted after %d new probes, want at least 1", got)
	}
	if n := s.rt.Registry().Value("queryvis_router_heal_duration_seconds"); n < 1 {
		t.Fatalf("heal histogram count = %v after a down-and-up, want at least 1", n)
	}
}

// TestCallerDeadlineLeavesStreak: attempts cut short by the caller's
// own deadline budget are not the member's failures. However many
// callers give up on a slow member, it stays in rotation.
func TestCallerDeadlineLeavesStreak(t *testing.T) {
	t.Cleanup(leak.Check(t))
	var probes atomic.Int64
	rt, front, _ := fakeRing(t, 1, func(int) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/healthz" {
				probes.Add(1)
				w.WriteHeader(http.StatusOK)
				return
			}
			select {
			case <-time.After(100 * time.Millisecond):
			case <-r.Context().Done():
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(map[string]any{"diagram": "digraph {}"})
		}
	}, func(c *router.Config) {
		c.HealthInterval = time.Hour // one probe round, at start
		c.ProbeDownAfter = 2
	})
	waitUntil(t, 5*time.Second, func() bool { return probes.Load() > 0 })
	time.Sleep(50 * time.Millisecond) // the first round's verdict lands

	for i := 0; i < 4; i++ {
		st, _, raw := postWithHeaders(t, front.URL+"/v1/diagram", diagramReq(qSome),
			map[string]string{telemetry.DeadlineHeader: "10"})
		if st != http.StatusGatewayTimeout {
			t.Fatalf("request %d: status %d, want the router's 504\n%s", i, st, raw)
		}
	}
	if !rt.State().Instances[0].Healthy {
		t.Fatal("callers' expired deadline budgets took the member down")
	}
	if st, _, raw := postJSON(t, front.URL+"/v1/diagram", diagramReq(qSome)); st != http.StatusOK {
		t.Fatalf("without a budget: status %d\n%s", st, raw)
	}
}

// TestHonest503WhenRingFullyUnhealthy: with every instance down, the
// router answers its own categorized 503 with Retry-After — and its
// healthz goes unhealthy/503 — rather than hanging or dropping.
func TestHonest503WhenRingFullyUnhealthy(t *testing.T) {
	t.Cleanup(leak.Check(t))
	var hits [8]atomic.Int64
	rt, front, backends := fakeRing(t, 2, okBackend(&hits), nil)
	for _, b := range backends {
		b.Close() // the whole ring goes away
	}
	// Wait for the prober to notice both instances are gone.
	waitUntil(t, 5*time.Second, func() bool { return rt.State().Status == "unhealthy" })

	st, hdr, raw := postJSON(t, front.URL+"/v1/diagram", diagramReq(qSome))
	if st != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", st)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After — clients cannot back off honestly")
	}
	var eb struct {
		Error struct {
			Category string `json:"category"`
		} `json:"error"`
	}
	if err := json.Unmarshal(raw, &eb); err != nil || eb.Error.Category != "overloaded" {
		t.Fatalf("malformed shed body %.200s (err %v)", raw, err)
	}

	hst, _, hraw := getJSON(t, front.URL+"/v1/healthz")
	if hst != http.StatusServiceUnavailable {
		t.Fatalf("healthz status %d for a dead ring, want 503", hst)
	}
	var hz router.State
	if err := json.Unmarshal(hraw, &hz); err != nil || hz.Status != "unhealthy" {
		t.Fatalf("healthz %.200s (err %v)", hraw, err)
	}
	for _, in := range hz.Instances {
		if in.Healthy {
			t.Fatalf("healthz claims %s healthy after its death", in.URL)
		}
	}
	if rt.Registry().Value("queryvis_router_no_healthy_total") == 0 {
		t.Fatal("shed request not counted in the registry")
	}
}

// TestRouterRejectsOversizedBody: the router's own body cap answers 413
// without consuming a backend.
func TestRouterRejectsOversizedBody(t *testing.T) {
	t.Cleanup(leak.Check(t))
	var hits [8]atomic.Int64
	_, front, _ := fakeRing(t, 1, okBackend(&hits), func(c *router.Config) {
		c.MaxBodyBytes = 128
	})
	st, _, raw := postJSON(t, front.URL+"/v1/diagram", diagramReq(qSome+strings.Repeat(" ", 4096)))
	if st != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d body %.120s, want 413", st, raw)
	}
	var eb struct {
		Error struct {
			Category string `json:"category"`
		} `json:"error"`
	}
	if err := json.Unmarshal(raw, &eb); err != nil || eb.Error.Category != "too_large" {
		t.Fatalf("malformed 413 body %.200s", raw)
	}
	if hits[0].Load() != 0 {
		t.Fatal("oversized body reached a backend")
	}
}

// idEchoBackend answers POSTs the way a queryvisd instance treats IDs:
// it echoes the forwarded X-Request-Id and the trace ID it joined. Each
// POST takes delay, leaving a window for identical requests to
// coalesce.
func idEchoBackend(hits *atomic.Int64, delay time.Duration) func(i int) http.HandlerFunc {
	return func(i int) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/healthz" {
				w.WriteHeader(http.StatusOK)
				return
			}
			hits.Add(1)
			time.Sleep(delay)
			tc, _ := telemetry.ParseTraceHeader(r.Header.Get(telemetry.TraceHeader))
			w.Header().Set("X-Request-Id", r.Header.Get("X-Request-Id"))
			w.Header().Set(telemetry.TraceIDHeader, tc.TraceID)
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(map[string]any{"diagram": "digraph {}"})
		}
	}
}

// TestReplayCarriesCallersIDs: a response the router replays, from a
// leader's flight ("coalesced") or from its cache ("hit"), keeps the
// leader's body but carries the caller's own X-Request-Id and the trace
// ID of the caller's router hop, so every caller can find its own trace
// in /v1/traces. A live proxied response keeps the instance's headers.
func TestReplayCarriesCallersIDs(t *testing.T) {
	t.Cleanup(leak.Check(t))
	var hits atomic.Int64
	_, front, _ := fakeRing(t, 1, idEchoBackend(&hits, 80*time.Millisecond), func(c *router.Config) {
		c.ResponseCache = true
	})
	url := front.URL + "/v1/diagram"
	body := diagramReq(qSome)

	// A storm of identical requests: one leader reaches the backend, and
	// every other caller is served a replay of its response.
	const callers = 6
	var wg sync.WaitGroup
	codes := make([]int, callers)
	hdrs := make([]http.Header, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			codes[g], hdrs[g], _ = postWithHeaders(t, url, body,
				map[string]string{"X-Request-Id": fmt.Sprintf("storm-%d", g)})
		}(g)
	}
	wg.Wait()
	if n := hits.Load(); n != 1 {
		t.Fatalf("%d identical requests made %d backend calls, want 1", callers, n)
	}
	traces := map[string]bool{}
	replays := 0
	for g, hdr := range hdrs {
		if codes[g] != http.StatusOK {
			t.Fatalf("caller %d: status %d", g, codes[g])
		}
		if got, want := hdr.Get("X-Request-Id"), fmt.Sprintf("storm-%d", g); got != want {
			t.Errorf("caller %d (router cache %q): X-Request-Id %q, want %q",
				g, hdr.Get("X-Queryvis-Router-Cache"), got, want)
		}
		tid := hdr.Get(telemetry.TraceIDHeader)
		if tid == "" || traces[tid] {
			t.Errorf("caller %d: trace ID %q is empty or another caller's", g, tid)
		}
		traces[tid] = true
		if hdr.Get("X-Queryvis-Router-Cache") != "" {
			replays++
		}
	}
	if replays != callers-1 {
		t.Fatalf("%d of %d callers were served replays, want %d", replays, callers, callers-1)
	}

	// A cache hit under a caller-supplied trace context answers with the
	// caller's trace, which /v1/traces holds under the caller's ID.
	const rid, traceID = "hit-rid", "feedfacecafebeef"
	st, hdr, _ := postWithHeaders(t, url, body, map[string]string{
		"X-Request-Id":        rid,
		telemetry.TraceHeader: traceID + "-00000000000000aa-1",
	})
	if st != http.StatusOK || hdr.Get("X-Queryvis-Router-Cache") != "hit" {
		t.Fatalf("repeat: status %d router cache %q, want 200/hit", st, hdr.Get("X-Queryvis-Router-Cache"))
	}
	if got := hdr.Get("X-Request-Id"); got != rid {
		t.Errorf("cache hit: X-Request-Id %q, want %q", got, rid)
	}
	if got := hdr.Get(telemetry.TraceIDHeader); got != traceID {
		t.Errorf("cache hit: trace ID %q, want the caller's %q", got, traceID)
	}
	st, _, raw := getJSON(t, front.URL+"/v1/traces?request_id="+rid)
	var tr struct {
		Traces []struct {
			TraceID string `json:"trace_id"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil || st != http.StatusOK || len(tr.Traces) != 1 {
		t.Fatalf("/v1/traces?request_id=%s = %d %.200s, want one trace", rid, st, raw)
	}
	if tr.Traces[0].TraceID != traceID {
		t.Errorf("router recorded trace %q for %s, response said %q", tr.Traces[0].TraceID, rid, traceID)
	}
}

// TestReplayCarriesFreshDate: a replayed response is dated when the
// router serves it, not when an instance answered. net/http keeps a
// Date the handler set, and cached entries no longer expire, so a
// stored Date would grow arbitrarily old.
func TestReplayCarriesFreshDate(t *testing.T) {
	t.Cleanup(leak.Check(t))
	const stale = "Mon, 02 Jan 2006 15:04:05 GMT"
	_, front, _ := fakeRing(t, 1, func(i int) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/healthz" {
				w.WriteHeader(http.StatusOK)
				return
			}
			w.Header().Set("Date", stale)
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(map[string]any{"diagram": "digraph {}"})
		}
	}, func(c *router.Config) { c.ResponseCache = true })
	url := front.URL + "/v1/diagram"

	// A live proxied response passes the instance's own Date through.
	if st, hdr, _ := postJSON(t, url, diagramReq(qSome)); st != http.StatusOK || hdr.Get("Date") != stale {
		t.Fatalf("proxied: status %d Date %q, want 200 with the instance's %q", st, hdr.Get("Date"), stale)
	}
	sent := time.Now().Truncate(time.Second) // Date has one-second resolution
	st, hdr, _ := postJSON(t, url, diagramReq(qSome))
	if st != http.StatusOK || hdr.Get("X-Queryvis-Router-Cache") != "hit" {
		t.Fatalf("repeat: status %d router cache %q, want 200/hit", st, hdr.Get("X-Queryvis-Router-Cache"))
	}
	date, err := http.ParseTime(hdr.Get("Date"))
	if err != nil || date.Before(sent) {
		t.Fatalf("replay Date %q (%v) is older than the request sent at %s", hdr.Get("Date"), err, sent)
	}
}

// routerHit returns one in-process router cache hit whose stored
// response carries eight headers, as an instance answer does, over a
// one-member fake ring with the cache already filled.
func routerHit(tb testing.TB) func() {
	rt, front, _ := fakeRing(tb, 1, func(i int) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/healthz" {
				w.WriteHeader(http.StatusOK)
				return
			}
			h := w.Header()
			h.Set("Content-Type", "application/json")
			h.Set("X-Request-Id", r.Header.Get("X-Request-Id"))
			h.Set(telemetry.TraceIDHeader, "0123456789abcdef")
			h.Set("X-Queryvis-Verify-Status", "verified")
			h.Set("X-Queryvis-Cache", "miss")
			_ = json.NewEncoder(w).Encode(map[string]any{"diagram": "digraph {}"})
		}
	}, func(c *router.Config) {
		c.ResponseCache = true
		c.HealthInterval = time.Hour // no probe round lands inside a measurement
	})
	body, err := json.Marshal(diagramReq(qSome))
	if err != nil {
		tb.Fatal(err)
	}
	waitUntil(tb, 5*time.Second, func() bool {
		_, hdr, _ := postJSON(tb, front.URL+"/v1/diagram", diagramReq(qSome))
		return hdr.Get("X-Queryvis-Router-Cache") == "hit"
	})
	return func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/diagram", strings.NewReader(string(body)))
		req.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		rt.ServeHTTP(w, req)
		if w.Code != http.StatusOK || w.Header().Get("X-Queryvis-Router-Cache") != "hit" {
			tb.Fatalf("status %d router cache %q, want 200/hit", w.Code, w.Header().Get("X-Queryvis-Router-Cache"))
		}
	}
}

// TestRouterHitAllocBudget pins the allocations of one router cache
// hit, owner check included. Entries are filtered of hop-by-hop headers
// once, when stored, so a replay assigns the stored value slices
// instead of copying each one.
func TestRouterHitAllocBudget(t *testing.T) {
	t.Cleanup(leak.Check(t))
	hit := routerHit(t)
	hit()
	// 43 measured, 45 under the race detector; the copying replay cost 51.
	const budget = 46
	if got := testing.AllocsPerRun(200, hit); got > budget {
		t.Errorf("router cache hit: %.0f allocs, budget %d", got, budget)
	}
}

func waitUntil(t testing.TB, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func getJSON(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, raw
}
