package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/signal"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	queryvis "repro"
	"repro/internal/client"
	"repro/internal/corpus"
	"repro/internal/leak"
	"repro/internal/server"
)

// TestCacheSmoke is the CI cache check: boot the daemon with the same
// cache configuration the default flags produce, serve the Fig. 1 query
// twice, and require the second response to come from the cache with
// the proof intact — then confirm the hit is visible on the metrics
// surface. Last, App. G's "only" query on Sailors and then its
// pattern-isomorph on Students: the second answer must name Student,
// because the cache keys on the request, not the pattern. One
// end-to-end pass over flags → server → cache → telemetry.
func TestCacheSmoke(t *testing.T) {
	base := startDaemon(t, newHandler(server.Config{
		CacheEntries:  4096,
		DefaultVerify: queryvis.VerifyDegrade,
	}, false))
	hc := client.New(client.Config{})
	ctx := context.Background()

	post := func(sql, schema string) (string, string, string) {
		t.Helper()
		resp, err := hc.PostJSON(ctx, base+"/v1/diagram",
			map[string]any{"sql": sql, "schema": schema})
		if err != nil {
			t.Fatalf("diagram: %v", err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("diagram status = %d\n%s", resp.StatusCode, raw)
		}
		return resp.Header.Get("X-QueryVis-Cache"),
			resp.Header.Get("X-QueryVis-Verify-Status"),
			string(raw)
	}

	if cache, _, _ := post(corpus.Fig1UniqueSet, "beers"); cache != "miss" {
		t.Fatalf("cold request cache header = %q, want miss", cache)
	}
	warmCache, warmVerify, warmBody := post(corpus.Fig1UniqueSet, "beers")
	if warmCache != "hit" {
		t.Fatalf("warm request cache header = %q, want hit", warmCache)
	}
	if warmVerify != queryvis.VerifyStatusVerified {
		t.Fatalf("warm request verify header = %q, want verified", warmVerify)
	}
	if !strings.Contains(warmBody, "digraph") {
		t.Fatalf("warm body is not a diagram: %.80q", warmBody)
	}

	mresp, err := hc.Get(ctx, base+"/v1/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer mresp.Body.Close()
	raw, _ := io.ReadAll(mresp.Body)
	exposition := string(raw)
	for _, want := range []string{
		`queryvis_cache_requests_total{outcome="hit"} 1`,
		`queryvis_cache_requests_total{outcome="miss"} 1`,
		`queryvis_cache_builds_total 1`,
		`queryvis_cache_entries 1`,
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}

	only := map[string]string{}
	for _, g := range corpus.AppendixG() {
		if g.Pattern == corpus.GOnly {
			only[g.Schema.Name] = g.SQL
		}
	}
	post(only["sailors"], "sailors")
	if _, _, body := post(only["students"], "students"); !strings.Contains(body, "Student") {
		t.Fatalf("App. G Students \"only\" query was answered with another diagram: %.200q", body)
	}
}

// TestProcessCacheSurvivesRecycle: under -isolation=process the
// instance's one cache lives in the daemon, not in its workers, so a
// worker recycle costs a repeat nothing. With -worker-max-requests 1
// the only worker retires after building the first answer; the repeat,
// served after the recycle, must still be a hit with the same bytes.
func TestProcessCacheSurvivesRecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	base := startRun(t, "-isolation=process", "-workers", "1", "-worker-max-requests", "1")
	hc := client.New(client.Config{})
	ctx := context.Background()

	post := func() (string, string) {
		t.Helper()
		resp, err := hc.PostJSON(ctx, base+"/v1/diagram",
			map[string]any{"sql": corpus.Fig1UniqueSet, "schema": "beers"})
		if err != nil {
			t.Fatalf("diagram: %v", err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("diagram status = %d\n%s", resp.StatusCode, raw)
		}
		return resp.Header.Get("X-QueryVis-Cache"), elapsedField.ReplaceAllString(string(raw), "")
	}
	cold, coldBody := post()
	if cold != "miss" {
		t.Fatalf("cold request cache header = %q, want miss", cold)
	}
	// Wait for the recycle: the worker that built the answer has retired
	// and a fresh one has taken its slot.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var hz struct {
			Pool struct {
				Spawns int64            `json:"spawns"`
				Exits  map[string]int64 `json:"exits"`
			} `json:"pool"`
		}
		resp, err := hc.Get(ctx, base+"/v1/healthz")
		if err != nil {
			t.Fatalf("healthz: %v", err)
		}
		err = json.NewDecoder(resp.Body).Decode(&hz)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode healthz: %v", err)
		}
		if hz.Pool.Exits["recycled"] >= 1 && hz.Pool.Spawns >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never recycled: %+v", hz.Pool)
		}
		time.Sleep(10 * time.Millisecond)
	}
	warm, warmBody := post()
	if warm != "hit" {
		t.Fatalf("repeat after a worker recycle: cache header = %q, want hit", warm)
	}
	if warmBody != coldBody {
		t.Fatalf("repeat answered other bytes:\ncold %.200s\nwarm %.200s", coldBody, warmBody)
	}
}

// elapsedField matches the one response field that differs between two
// answers to the same request.
var elapsedField = regexp.MustCompile(`"elapsed_ms":[0-9]+`)

// startRun boots the real run() path on an ephemeral port with the given
// flags and returns its base URL. On cleanup it SIGTERMs the daemon,
// requires a clean exit, and checks that no goroutine or child process
// outlived it.
func startRun(t *testing.T, args ...string) string {
	t.Helper()
	// run() calls signal.NotifyContext, whose first use starts the
	// runtime's signal-delivery goroutine — which by design never exits.
	// Start it before the leak baseline so it isn't misread as a leak.
	sigWarm := make(chan os.Signal, 1)
	signal.Notify(sigWarm, syscall.SIGHUP)
	signal.Stop(sigWarm)
	t.Cleanup(leak.CheckChildren(t))
	t.Cleanup(leak.Check(t))

	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// run() logs to its stderr *os.File; scoop the ephemeral port out of
	// the "listening" line and keep draining so the daemon never blocks.
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	addrc := make(chan string, 1)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			if i := strings.Index(sc.Text(), "msg=listening addr="); i >= 0 {
				select {
				case addrc <- strings.TrimSpace(sc.Text()[i+len("msg=listening addr="):]):
				default:
				}
			}
		}
	}()
	code := make(chan int, 1)
	go func() {
		code <- run(append([]string{"-addr", "127.0.0.1:0", "-shutdown-grace", "15s"}, args...), devnull, pw)
	}()
	t.Cleanup(func() {
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Errorf("SIGTERM: %v", err)
		}
		select {
		case got := <-code:
			if got != 0 {
				t.Errorf("run exited %d, want 0", got)
			}
		case <-time.After(20 * time.Second):
			t.Error("daemon did not exit after SIGTERM")
		}
		pw.Close()
		<-drained
		pr.Close()
		devnull.Close()
		http.DefaultClient.CloseIdleConnections()
	})
	select {
	case addr := <-addrc:
		return "http://" + addr
	case <-time.After(15 * time.Second):
		t.Fatal("daemon never logged its listen address")
		return ""
	}
}
