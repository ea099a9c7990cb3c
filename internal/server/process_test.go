package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	queryvis "repro"
	"repro/internal/corpus"
	"repro/internal/faults"
	"repro/internal/leak"
	"repro/internal/telemetry"
	"repro/internal/workerpool"
)

// envTestWorker marks a re-execution of this test binary as a pool
// worker: process isolation needs a real child, and the one binary a
// test reliably has on disk is itself.
const envTestWorker = "QUERYVIS_SERVER_TEST_WORKER"

func TestMain(m *testing.M) {
	if os.Getenv(envTestWorker) == "1" {
		// The worker half of a process-isolated server: the default
		// pipeline configuration, no telemetry and no cache of its own,
		// honoring injected worker faults.
		err := workerpool.RunWorker(os.Stdin, os.Stdout,
			New(Config{DisableTelemetry: true}), workerpool.RunOptions{AllowFaultHeaders: true})
		if err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// newTestPool starts a worker pool over re-executions of this test
// binary and drains it, children reaped, on cleanup. The leak checks are
// registered first so they run after the drain.
func newTestPool(t *testing.T, cfg workerpool.Config) *workerpool.Pool {
	t.Helper()
	t.Cleanup(leak.CheckChildren(t))
	t.Cleanup(leak.Check(t))
	cfg.Spawn = func() (*exec.Cmd, error) {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), envTestWorker+"=1")
		return cmd, nil
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 15 * time.Second
	}
	p, err := workerpool.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := p.Close(ctx); err != nil {
			t.Errorf("pool close: %v", err)
		}
	})
	return p
}

// newPoolTestServer is newTestServer for a server whose Config.Pool is
// set: its leak check belongs to newTestPool, which must run after the
// listener closes.
func newPoolTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	cfg.AllowFaultInjection = true
	ts := httptest.NewServer(New(cfg))
	t.Cleanup(ts.Close)
	return ts
}

// TestHandlerDigestsProcessColdWarm serves handlerDigests' request mix
// through a process-isolated server with the cache on, cold and then
// warm. Both passes must reproduce the in-process golden, verify and
// degraded headers included: the cold pass is built by workers and
// passed through, the warm pass is answered from the parent's cache
// without reaching a worker.
func TestHandlerDigestsProcessColdWarm(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	pool := newTestPool(t, workerpool.Config{Workers: 2})
	srv := New(Config{CacheEntries: 4096, Pool: pool})

	assertHandlerGolden(t, "process cold", handlerDigestsChecked(t, srv, func(i int, h http.Header) {
		if got := h.Get(headerCache); got != "miss" {
			t.Fatalf("cold request %d: %s = %q, want miss", i, headerCache, got)
		}
	}))
	trips := workerRoundTrips(pool)
	if trips < handlerGoldenRequests {
		t.Fatalf("cold pass made %v worker round trips, want one per request", trips)
	}
	assertHandlerGolden(t, "process warm", handlerDigestsChecked(t, srv, func(i int, h http.Header) {
		if got := h.Get(headerCache); got != "hit" {
			t.Fatalf("warm request %d: %s = %q, want hit", i, headerCache, got)
		}
	}))
	if after := workerRoundTrips(pool); after != trips {
		t.Fatalf("warm pass reached the workers: %v round trips after the cold pass, %v after the warm", trips, after)
	}
}

// workerRoundTrips counts the pool's completed worker exchanges over
// every slot.
func workerRoundTrips(pool *workerpool.Pool) float64 {
	var n float64
	for slot := 0; slot < pool.State().Workers; slot++ {
		n += pool.Registry().Value("queryvis_worker_request_duration_seconds", "slot", strconv.Itoa(slot))
	}
	return n
}

// jsonString renders s as a JSON string literal.
func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// TestErrorParityAcrossIsolation: requests the envelope rejects — or a
// pipeline rejects — get the same status and body under -isolation=none
// and -isolation=process, on every endpoint that takes a body.
func TestErrorParityAcrossIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	pool := newTestPool(t, workerpool.Config{Workers: 1})
	const maxBody = 4096
	inproc := newPoolTestServer(t, Config{CacheEntries: 64, MaxBodyBytes: maxBody})
	isolated := newPoolTestServer(t, Config{CacheEntries: 64, MaxBodyBytes: maxBody, Pool: pool})

	oversize := `{"sql":"` + strings.Repeat("x", 2*maxBody) + `","schema":"beers"}`
	cases := []struct{ name, path, body string }{
		{"malformed diagram", "/v1/diagram", `{"sql": "SELECT`},
		{"unknown field", "/v1/diagram", `{"sql":"SELECT 1","schema":"beers","nope":1}`},
		{"unknown schema", "/v1/diagram", `{"sql":"SELECT X.a FROM X","schema":"no-such-schema"}`},
		{"oversize diagram", "/v1/diagram", oversize},
		{"parse error", "/v1/diagram", `{"sql":"SELECT FROM WHERE (","schema":"beers"}`},
		{"malformed batch", "/v1/diagrams:batch", `{"items": [`},
		{"oversize batch", "/v1/diagrams:batch", oversize},
		{"batch items", "/v1/diagrams:batch", `{"schema":"beers","items":[` +
			`{"sql":` + jsonString(corpus.Fig1UniqueSet) + `},` +
			`{"sql":"SELECT FROM WHERE ("},` +
			`{"sql":"SELECT X.a FROM X","schema":"no-such-schema"},` +
			`{"sql":` + jsonString(corpus.Fig1UniqueSet) + `,"format":"text"}]}`},
		{"malformed interpret", "/v1/interpret", `{"sql": "SELECT`},
		{"unknown schema interpret", "/v1/interpret", `{"sql":"SELECT X.a FROM X","schema":"no-such-schema"}`},
		{"oversize interpret", "/v1/interpret", oversize},
	}
	for _, tc := range cases {
		wantSt, wantBody := post(t, inproc.Client(), inproc.URL+tc.path, tc.body, nil)
		gotSt, gotBody := post(t, isolated.Client(), isolated.URL+tc.path, tc.body, nil)
		want := elapsedField.ReplaceAllString(string(wantBody), `"elapsed_ms":0`)
		got := elapsedField.ReplaceAllString(string(gotBody), `"elapsed_ms":0`)
		if gotSt != wantSt || got != want {
			t.Errorf("%s: process isolation answered %d %s\nin-process answered %d %s",
				tc.name, gotSt, got, wantSt, want)
		}
	}
}

// TestProcessIsolationHealthzCache: a process-isolated server reports
// its cache on /v1/healthz and exports the cache series on /v1/metrics,
// because the cache lives in the parent.
func TestProcessIsolationHealthzCache(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	pool := newTestPool(t, workerpool.Config{Workers: 1})
	ts := newPoolTestServer(t, Config{CacheEntries: 64, Pool: pool, Metrics: pool.Registry()})

	for i, want := range []string{"miss", "hit"} {
		st, hdr, raw := postFull(t, ts.Client(), ts.URL+"/v1/diagram", diagramReq(corpus.Fig1UniqueSet, "degrade"), nil)
		if st != http.StatusOK || hdr.Get(headerCache) != want {
			t.Fatalf("request %d = %d with %s %q, want 200 %s\n%s", i, st, headerCache, hdr.Get(headerCache), want, raw)
		}
	}
	hz := getHealthz(t, ts)
	if hz.Cache == nil || hz.Cache.Hits != 1 || hz.Cache.Misses != 1 || hz.Cache.Entries != 1 {
		t.Fatalf("healthz cache = %+v, want 1 hit, 1 miss, 1 entry", hz.Cache)
	}
	if hz.Pool == nil {
		t.Fatal("healthz lost its pool object")
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := `queryvis_cache_requests_total{outcome="hit"} 1`; !strings.Contains(string(metrics), want) {
		t.Fatalf("metrics exposition lacks %q", want)
	}
}

// TestWorkerFaultBypassesCache: a request carrying an injected worker
// fault is never answered from the parent's cache, even when its key is
// resident — the crash it asks for must happen.
func TestWorkerFaultBypassesCache(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	pool := newTestPool(t, workerpool.Config{Workers: 1})
	ts := newPoolTestServer(t, Config{CacheEntries: 64, Pool: pool})
	url := ts.URL + "/v1/diagram"
	body := diagramReq(corpus.Fig1UniqueSet, "degrade")
	for _, want := range []string{"miss", "hit"} {
		if st, hdr, raw := postFull(t, ts.Client(), url, body, nil); st != http.StatusOK || hdr.Get(headerCache) != want {
			t.Fatalf("status %d with %s %q, want 200 %s\n%s", st, headerCache, hdr.Get(headerCache), want, raw)
		}
	}
	st, hdr, raw := postFull(t, ts.Client(), url, body,
		map[string]string{faults.HeaderWorkerFault: string(faults.WorkerFaultCrash)})
	if st != http.StatusServiceUnavailable || hdr.Get(headerCache) != "" {
		t.Fatalf("worker-fault request = %d with %s %q, want a 503 from a crashed worker\n%s",
			st, headerCache, hdr.Get(headerCache), raw)
	}
}

// TestVerifyCountsAcrossIsolation: the same requests count the same
// verification verdicts in the registry /v1/metrics serves, in-process
// and under process isolation, on every endpoint that runs the
// pipeline: a verified and an ambiguous diagram, a strict failure, a
// verify-off request (not counted), an interpretation and a batch.
func TestVerifyCountsAcrossIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	run := func(cfg Config) *telemetry.Registry {
		t.Helper()
		cfg.Metrics = telemetry.NewRegistry()
		var ts *httptest.Server
		if cfg.Pool != nil {
			ts = newPoolTestServer(t, cfg)
		} else {
			ts = newTestServer(t, cfg)
		}
		for _, req := range []struct {
			path string
			body any
		}{
			{"/v1/diagram", diagramReq(corpus.Fig1UniqueSet, "degrade")},
			{"/v1/diagram", diagramReq(disconnectedSQL, "degrade")},
			{"/v1/diagram", diagramReq(disconnectedSQL, "strict")},
			{"/v1/diagram", diagramReq(corpus.Fig1UniqueSet, "off")},
			{"/v1/interpret", diagramReq(corpus.Fig3QOnly, "strict")},
			{"/v1/diagrams:batch", map[string]any{"schema": "beers", "verify": "degrade", "items": []map[string]any{
				{"sql": corpus.Fig3QSome}, {"sql": disconnectedSQL},
			}}},
		} {
			postFull(t, ts.Client(), ts.URL+req.path, req.body, nil)
		}
		return cfg.Metrics
	}
	local := run(Config{})
	isolated := run(Config{Pool: newTestPool(t, workerpool.Config{Workers: 2})})
	want := map[string]float64{
		queryvis.VerifyStatusVerified:  3,
		queryvis.VerifyStatusAmbiguous: 3,
	}
	for _, status := range verifyOutcomes {
		l, i := local.Value(mVerify, "status", status), isolated.Value(mVerify, "status", status)
		if l != want[status] || i != want[status] {
			t.Errorf("verify_total{status=%q}: in-process %v, isolated %v, want %v", status, l, i, want[status])
		}
	}
}
