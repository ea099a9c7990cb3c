package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/corpus"
	"repro/internal/faults"
	"repro/internal/leak"
	"repro/internal/server"
)

// TestMain routes re-executions of this test binary into worker mode:
// with -isolation=process the daemon spawns os.Executable() as its
// workers, and when the daemon under test *is* the test binary, the
// children must run the real run() path — the QUERYVISD_WORKER marker
// (set by workerSpawner) diverts them before the test framework parses
// the -worker flag as its own.
func TestMain(m *testing.M) {
	if os.Getenv("QUERYVISD_WORKER") == "1" || os.Getenv("QUERYVISD_MEMBER") == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// testLogger keeps daemon chatter out of test output.
func testLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// TestServeHealthzShutdown drives the daemon's full lifecycle on an
// ephemeral port: start, answer /v1/healthz and /v1/diagram, then shut
// down gracefully and verify the serve loop exits clean with no
// goroutines left behind. CI runs this in place of a shell-scripted
// curl check.
func TestServeHealthzShutdown(t *testing.T) {
	defer leak.Check(t)()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())

	done := make(chan error, 1)
	go func() {
		done <- serveWith(ctx, ln, newHandler(server.Config{}, false), 5*time.Second, testLogger())
	}()

	base := "http://" + ln.Addr().String()
	hc := client.New(client.Config{})

	// Liveness.
	resp, err := hc.Get(context.Background(), base+"/v1/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	var h struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, h)
	}

	// One real diagram request through the running daemon.
	resp, err = hc.PostJSON(context.Background(), base+"/v1/diagram",
		map[string]any{"sql": corpus.Fig1UniqueSet, "schema": "beers"})
	if err != nil {
		t.Fatalf("diagram: %v", err)
	}
	var dr struct {
		Diagram string `json:"diagram"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatalf("decode diagram: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(dr.Diagram, "digraph") {
		t.Fatalf("diagram = %d %.80q", resp.StatusCode, dr.Diagram)
	}

	// Graceful shutdown: cancel the serve context and wait for a clean exit.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveWith: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down within 10s")
	}

	// The listener must actually be closed.
	if _, err := http.Get(base + "/v1/healthz"); err == nil {
		t.Fatal("server still answering after shutdown")
	}
	http.DefaultClient.CloseIdleConnections()
}

// TestShutdownDrainsInflight verifies an in-flight request completes
// during the drain window instead of being cut off.
func TestShutdownDrainsInflight(t *testing.T) {
	defer leak.Check(t)()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())

	done := make(chan error, 1)
	go func() {
		done <- serveWith(ctx, ln, newHandler(server.Config{RequestTimeout: 10 * time.Second}, false),
			5*time.Second, testLogger())
	}()
	base := "http://" + ln.Addr().String()

	// A request whose body arrives slowly, so it is still in flight when
	// shutdown starts.
	slow := make(chan struct{ code int }, 1)
	go func() {
		body, _ := json.Marshal(map[string]any{"sql": corpus.Fig1UniqueSet, "schema": "beers"})
		req, _ := http.NewRequest(http.MethodPost, base+"/v1/diagram", &trickleReader{data: body})
		req.Header.Set("Content-Type", "application/json")
		req.ContentLength = int64(len(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			slow <- struct{ code int }{0}
			return
		}
		defer resp.Body.Close()
		slow <- struct{ code int }{resp.StatusCode}
	}()

	time.Sleep(50 * time.Millisecond) // let the slow request reach the handler
	cancel()

	got := <-slow
	if got.code != http.StatusOK {
		t.Fatalf("in-flight request got %d, want 200 (drained)", got.code)
	}
	if err := <-done; err != nil {
		t.Fatalf("serveWith: %v", err)
	}
	http.DefaultClient.CloseIdleConnections()
}

// trickleReader drips its payload a few bytes at a time to keep a
// request in flight across a shutdown.
type trickleReader struct {
	data []byte
	off  int
}

func (r *trickleReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	time.Sleep(10 * time.Millisecond)
	if len(p) > 16 {
		p = p[:16]
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// startDaemon runs serveWith on an ephemeral port and returns its base
// URL; shutdown is registered with the test.
func startDaemon(t *testing.T, h http.Handler) string {
	t.Helper()
	// Registered before the shutdown cleanup, so — cleanups running LIFO —
	// the leak check fires after the daemon has fully drained.
	t.Cleanup(leak.Check(t))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serveWith(ctx, ln, h, 5*time.Second, testLogger()) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("serveWith: %v", err)
		}
		http.DefaultClient.CloseIdleConnections()
	})
	return "http://" + ln.Addr().String()
}

// TestMetricsSmoke is the CI metrics check: boot the daemon, serve one
// Fig. 1 diagram, and require /v1/metrics to expose the core families
// with a non-zero stage histogram — proof the whole telemetry path is
// live, not just compiled in.
func TestMetricsSmoke(t *testing.T) {
	base := startDaemon(t, newHandler(server.Config{}, false))
	hc := client.New(client.Config{})

	resp, err := hc.PostJSON(context.Background(), base+"/v1/diagram",
		map[string]any{"sql": corpus.Fig1UniqueSet, "schema": "beers"})
	if err != nil {
		t.Fatalf("diagram: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diagram status = %d", resp.StatusCode)
	}
	if id := resp.Header.Get("X-Request-ID"); id == "" {
		t.Fatal("diagram response missing X-Request-ID")
	}

	mresp, err := hc.Get(context.Background(), base+"/v1/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer mresp.Body.Close()
	raw, _ := io.ReadAll(mresp.Body)
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", mresp.StatusCode)
	}
	exposition := string(raw)
	for _, want := range []string{
		"# TYPE queryvis_http_requests_total counter",
		"# TYPE queryvis_stage_duration_seconds histogram",
		"queryvis_verify_total",
		"queryvis_http_errors_total",
		`queryvis_stage_duration_seconds_count{stage="parse"} 1`,
		`queryvis_stage_duration_seconds_count{stage="render"} 1`,
		`queryvis_http_requests_total{code="200",route="/v1/diagram"} 1`,
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// TestPprofGate: debug endpoints exist only behind -pprof.
func TestPprofGate(t *testing.T) {
	get := func(base, path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}

	gated := startDaemon(t, newHandler(server.Config{}, false))
	if st, _ := get(gated, "/debug/pprof/"); st != http.StatusNotFound {
		t.Fatalf("/debug/pprof/ without -pprof = %d, want 404", st)
	}
	if st, _ := get(gated, "/debug/goroutines"); st != http.StatusNotFound {
		t.Fatalf("/debug/goroutines without -pprof = %d, want 404", st)
	}

	open := startDaemon(t, newHandler(server.Config{}, true))
	if st, body := get(open, "/debug/pprof/"); st != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ with -pprof = %d", st)
	}
	if st, body := get(open, "/debug/goroutines"); st != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/goroutines with -pprof = %d\n%.200s", st, body)
	}
	// The API keeps working through the debug mux.
	if st, _ := get(open, "/v1/healthz"); st != http.StatusOK {
		t.Fatalf("/v1/healthz through debug mux = %d", st)
	}
}

// TestUsageError: a bad flag, a bad address, and every flag the selected
// mode would ignore exit 2 with a message naming the flag.
func TestUsageError(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	for _, tc := range []struct {
		args []string
		want string // in stderr
	}{
		{[]string{"-no-such-flag"}, "-no-such-flag"},
		{[]string{"-timeout", "5s"}, "-timeout"}, // deleted: the deadline is fixed
		{[]string{"-addr", "256.256.256.256:99999"}, "listen failed"},
		{[]string{"-verify", "sometimes"}, "-verify"},
		{[]string{"-isolation", "thread"}, "-isolation"},
		{[]string{"-workers", "2"}, "-workers requires -isolation=process"},
		{[]string{"-isolation=none", "-worker-max-requests", "9"}, "-worker-max-requests requires -isolation=process"},
		{[]string{"-route", "http://127.0.0.1:1", "-isolation=process"}, "-isolation configures a worker pool"},
		{[]string{"-route", "http://127.0.0.1:1", "-metrics=false"}, "-metrics configures an instance"},
		{[]string{"-route", "http://127.0.0.1:1", "-cache-entries", "0"}, "-cache-entries configures an instance"},
		{[]string{"-fleet-spawn"}, "-fleet-spawn requires -fleet or -fleet-srv"},
		{[]string{"-route", "http://127.0.0.1:1", "-fleet-interval", "1s"}, "-fleet-interval requires -fleet or -fleet-srv"},
		{[]string{"-fleet", "fleet.json", "-fleet-srv", "_qv._tcp.example"}, "mutually exclusive"},
		{[]string{"-fleet-srv", "qv.example"}, "-fleet-srv"},
		{[]string{"-worker", "-route", "http://127.0.0.1:1"}, "-route does not apply to a pool worker"},
		{[]string{"-worker", "-isolation=process"}, "-isolation does not apply to a pool worker"},
	} {
		stderr, err := os.CreateTemp(t.TempDir(), "stderr")
		if err != nil {
			t.Fatal(err)
		}
		// A run that does not return is serving: the check let it through.
		done := make(chan int, 1)
		go func() { done <- run(tc.args, devnull, stderr) }()
		var got int
		select {
		case got = <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("run %q is serving; want a usage error", tc.args)
		}
		stderr.Close()
		msg, _ := os.ReadFile(stderr.Name())
		if got != 2 || !strings.Contains(string(msg), tc.want) {
			t.Errorf("run %q = %d, stderr %q; want 2 and a message containing %q", tc.args, got, msg, tc.want)
		}
	}
}

// TestProcessIsolationServeDrain is the -isolation=process lifecycle
// check CI runs: the real run() path boots with a worker pool (workers
// are this test binary re-executed via TestMain's QUERYVISD_WORKER
// hook), serves through the pool, and — the regression this guards — a
// request already dispatched to a worker when SIGTERM lands completes
// with a real response, never a connection reset. Afterwards run()
// exits 0 with no worker processes left behind.
func TestProcessIsolationServeDrain(t *testing.T) {
	// run() calls signal.NotifyContext, whose first use starts the
	// runtime's signal-delivery goroutine — which by design never exits.
	// Start it before the leak baseline so it isn't misread as a leak.
	sigWarm := make(chan os.Signal, 1)
	signal.Notify(sigWarm, syscall.SIGHUP)
	signal.Stop(sigWarm)

	t.Cleanup(leak.CheckChildren(t))
	t.Cleanup(leak.Check(t))

	// A fault seed whose plan delays the parse stage, so the in-flight
	// request is genuinely inside a worker when the signal arrives.
	delaySeed := int64(-1)
	for seed := int64(1); seed < 1_000_000; seed++ {
		if f := faults.NewPlan(seed).Faults[faults.StageParse]; f.Action == faults.ActDelay && f.Delay >= 30*time.Millisecond {
			delaySeed = seed
			break
		}
	}
	if delaySeed < 0 {
		t.Fatal("no delay seed found")
	}

	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	// run() logs to its stderr *os.File; pipe it to scoop the ephemeral
	// port out of the "listening" line (and keep draining so the daemon
	// never blocks on a full pipe).
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	addrc := make(chan string, 1)
	var drainWG sync.WaitGroup
	drainWG.Add(1)
	go func() {
		defer drainWG.Done()
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "msg=listening addr="); i >= 0 {
				select {
				case addrc <- strings.TrimSpace(line[i+len("msg=listening addr="):]):
				default:
				}
			}
		}
	}()

	code := make(chan int, 1)
	go func() {
		code <- run([]string{
			"-addr", "127.0.0.1:0",
			"-isolation=process", "-workers", "2",
			"-allow-fault-injection",
			"-shutdown-grace", "15s",
		}, devnull, pw)
	}()

	var base string
	select {
	case addr := <-addrc:
		base = "http://" + addr
	case <-time.After(15 * time.Second):
		t.Fatal("daemon never logged its listen address")
	}

	hc := client.New(client.Config{})
	ctx := context.Background()

	// The pool is live and visible in healthz.
	hresp, err := hc.Get(ctx, base+"/v1/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	var hz struct {
		Status string `json:"status"`
		Pool   *struct {
			Workers int `json:"workers"`
			Live    int `json:"live"`
		} `json:"pool"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&hz); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || hz.Status != "ok" || hz.Pool == nil || hz.Pool.Workers != 2 {
		t.Fatalf("healthz = %d %+v", hresp.StatusCode, hz)
	}

	// A diagram request actually crosses the process boundary.
	dresp, err := hc.PostJSON(ctx, base+"/v1/diagram",
		map[string]any{"sql": corpus.Fig1UniqueSet, "schema": "beers"})
	if err != nil {
		t.Fatalf("diagram via pool: %v", err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("diagram via pool = %d", dresp.StatusCode)
	}

	// Dispatch the slow request, then SIGTERM the daemon while the worker
	// is still chewing on it.
	slow := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/diagram",
			bytes.NewReader([]byte(fmt.Sprintf(`{"sql":%q,"schema":"beers"}`, corpus.Fig1UniqueSet))))
		if err != nil {
			slow <- err
			return
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Fault-Seed", fmt.Sprint(delaySeed))
		resp, err := client.New(client.Config{MaxAttempts: 1}).Do(req)
		if err != nil {
			slow <- fmt.Errorf("in-flight request during drain: %w", err)
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK {
			slow <- fmt.Errorf("in-flight request during drain = %d, want 200", resp.StatusCode)
			return
		}
		slow <- nil
	}()
	time.Sleep(15 * time.Millisecond) // let the dispatch reach the worker
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}

	if err := <-slow; err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-code:
		if got != 0 {
			t.Fatalf("run exited %d, want 0", got)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
	pw.Close()
	drainWG.Wait()
	pr.Close()

	// Fully down: no listener, no workers (the child-leak cleanup checks).
	if _, err := http.Get(base + "/v1/healthz"); err == nil {
		t.Fatal("server still answering after SIGTERM drain")
	}
	http.DefaultClient.CloseIdleConnections()
}

// TestRouteMode boots run() as a router (-route) over two real server
// handlers, proxies a diagram through the ring, reads per-instance
// state from the router's healthz, and exits clean on SIGTERM.
func TestRouteMode(t *testing.T) {
	sigWarm := make(chan os.Signal, 1)
	signal.Notify(sigWarm, syscall.SIGHUP)
	signal.Stop(sigWarm)
	t.Cleanup(leak.Check(t))

	b1 := httptest.NewServer(server.New(server.Config{CacheEntries: 64}))
	defer b1.Close()
	b2 := httptest.NewServer(server.New(server.Config{CacheEntries: 64}))
	defer b2.Close()

	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	addrc := make(chan string, 1)
	var drainWG sync.WaitGroup
	drainWG.Add(1)
	go func() {
		defer drainWG.Done()
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "msg=listening addr="); i >= 0 {
				select {
				case addrc <- strings.TrimSpace(line[i+len("msg=listening addr="):]):
				default:
				}
			}
		}
	}()

	code := make(chan int, 1)
	go func() {
		code <- run([]string{
			"-addr", "127.0.0.1:0",
			"-route", b1.URL + "," + b2.URL,
			"-shutdown-grace", "5s",
		}, devnull, pw)
	}()
	var base string
	select {
	case addr := <-addrc:
		base = "http://" + addr
	case <-time.After(15 * time.Second):
		t.Fatal("router never logged its listen address")
	}

	hc := client.New(client.Config{})
	ctx := context.Background()

	// Router healthz: both ring members visible and healthy.
	hresp, err := hc.Get(ctx, base+"/v1/healthz")
	if err != nil {
		t.Fatalf("router healthz: %v", err)
	}
	var hz struct {
		Status    string `json:"status"`
		Instances []struct {
			URL     string `json:"url"`
			Healthy bool   `json:"healthy"`
		} `json:"instances"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&hz); err != nil {
		t.Fatalf("decode router healthz: %v", err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || hz.Status != "ok" || len(hz.Instances) != 2 {
		t.Fatalf("router healthz = %d %+v", hresp.StatusCode, hz)
	}

	// A diagram proxied through the ring.
	dresp, err := hc.PostJSON(ctx, base+"/v1/diagram",
		map[string]any{"sql": corpus.Fig1UniqueSet, "schema": "beers"})
	if err != nil {
		t.Fatalf("diagram via router: %v", err)
	}
	var dr struct {
		Diagram string `json:"diagram"`
	}
	if err := json.NewDecoder(dresp.Body).Decode(&dr); err != nil {
		t.Fatalf("decode diagram: %v", err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK || !strings.Contains(dr.Diagram, "digraph") {
		t.Fatalf("diagram via router = %d %.80q", dresp.StatusCode, dr.Diagram)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	select {
	case got := <-code:
		if got != 0 {
			t.Fatalf("router run exited %d, want 0", got)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("router did not exit after SIGTERM")
	}
	pw.Close()
	drainWG.Wait()
	pr.Close()
	if _, err := http.Get(base + "/v1/healthz"); err == nil {
		t.Fatal("router still answering after SIGTERM")
	}
	http.DefaultClient.CloseIdleConnections()
}
