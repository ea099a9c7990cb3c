// The CI scale-out smoke lives here as a real test: two queryvisd-shaped
// instance processes behind the consistent-hash router, loadgen's
// open-loop schedule driving them, and one instance SIGKILLed mid-run.
// The audit that gates CI is loadgen's own: zero malformed responses,
// a majority of successes, and a clean exit code.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/leak"
	"repro/internal/netchaos"
	"repro/internal/oracle"
	"repro/internal/router"
	"repro/internal/schema"
	"repro/internal/server"
	"repro/internal/telemetry"
)

const envInstance = "QUERYVIS_LOADGEN_TEST_INSTANCE"

func TestMain(m *testing.M) {
	if os.Getenv(envInstance) == "1" {
		runTestInstance()
		return
	}
	os.Exit(m.Run())
}

func runTestInstance() {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("addr=%s\n", ln.Addr())
	h := server.New(server.Config{
		RequestTimeout: 5 * time.Second,
		MaxConcurrent:  128,
		CacheEntries:   512,
	})
	if err := http.Serve(ln, h); err != nil {
		os.Exit(1)
	}
}

// startInstance re-executes the test binary as a live instance.
func startInstance(t *testing.T) (*exec.Cmd, string, chan struct{}) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), envInstance+"=1")
	cmd.Stderr = io.Discard
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		_ = cmd.Wait()
		close(done)
	}()
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		<-done
	})
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "addr="); ok {
				addrc <- a
				break
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
	}()
	select {
	case addr := <-addrc:
		return cmd, "http://" + addr, done
	case <-time.After(10 * time.Second):
		t.Fatal("instance never printed its address")
	case <-done:
		t.Fatal("instance died before printing its address")
	}
	panic("unreachable")
}

// TestLoadgenSmokeInstanceKill is the scenario ci.sh runs: a short
// open-loop burst through the router while one of two instances is
// SIGKILLed mid-run. loadgen must exit 0 — every completed response
// well-formed — with the majority succeeding via failover and retries.
func TestLoadgenSmokeInstanceKill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real instance processes")
	}
	t.Cleanup(leak.Check(t))
	t.Cleanup(leak.CheckChildren(t))

	i1, u1, done1 := startInstance(t)
	_, u2, _ := startInstance(t)

	rt, err := router.New(router.Config{
		Backends:       []string{u1, u2},
		HealthInterval: 50 * time.Millisecond,
		Metrics:        telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)

	// The chaos move: murder instance 1 partway through the run.
	const runFor = 2 * time.Second
	go func() {
		time.Sleep(runFor * 2 / 5)
		_ = i1.Process.Kill()
		<-done1
	}()

	var stdout, stderrBuf bytes.Buffer
	code := run([]string{
		"-target", front.URL,
		"-rate", "100",
		"-duration", runFor.String(),
		"-seed", "42",
		"-mix", "16",
		"-attempts", "3",
	}, &stdout, &stderrBuf)

	var rep Report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("loadgen stdout is not a report: %v\n%s", err, stdout.String())
	}
	t.Logf("report: %+v", rep)
	if code != 0 {
		t.Fatalf("loadgen exit %d, want 0; stderr: %s", code, stderrBuf.String())
	}
	if rep.Malformed != 0 {
		t.Fatalf("%d malformed responses: %v", rep.Malformed, rep.MalformedSample)
	}
	if rep.Completed == 0 || rep.OK < rep.Launched/2 {
		t.Fatalf("only %d/%d launched requests succeeded", rep.OK, rep.Launched)
	}
	if rep.P50MS <= 0 || rep.MaxMS < rep.P50MS {
		t.Fatalf("nonsense latency stats: %+v", rep)
	}
}

// TestLoadgenSmokeNetchaos is the network-chaos CI smoke: both
// instances sit behind netchaos proxies, one link degrades (latency)
// and the other flaps between partitioned and healed on a seeded
// schedule mid-run. loadgen's audit must stay clean — zero malformed
// responses — with a majority of requests succeeding via retries and
// router failover.
func TestLoadgenSmokeNetchaos(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real instance processes")
	}
	t.Cleanup(leak.Check(t))
	t.Cleanup(leak.CheckChildren(t))

	_, u1, _ := startInstance(t)
	_, u2, _ := startInstance(t)

	p1, err := netchaos.New(netchaos.Config{Target: strings.TrimPrefix(u1, "http://"), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Close()
	p2, err := netchaos.New(netchaos.Config{Target: strings.TrimPrefix(u2, "http://"), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()

	rt, err := router.New(router.Config{
		Backends:        []string{p1.URL(), p2.URL()},
		HealthInterval:  50 * time.Millisecond,
		InstanceTimeout: time.Second,
		Metrics:         telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)

	// The chaos: one degraded link, one flapping link.
	p1.Set(netchaos.Faults{Latency: 5 * time.Millisecond})
	p2.Flap(300*time.Millisecond, 200*time.Millisecond)
	defer p2.StopFlap()

	var stdout, stderrBuf bytes.Buffer
	code := run([]string{
		"-target", front.URL,
		"-rate", "100",
		"-duration", "2s",
		"-seed", "42",
		"-mix", "16",
		"-attempts", "3",
	}, &stdout, &stderrBuf)

	var rep Report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("loadgen stdout is not a report: %v\n%s", err, stdout.String())
	}
	t.Logf("report: %+v", rep)
	if code != 0 {
		t.Fatalf("loadgen exit %d, want 0; stderr: %s", code, stderrBuf.String())
	}
	if rep.Malformed != 0 {
		t.Fatalf("%d malformed responses under network chaos: %v", rep.Malformed, rep.MalformedSample)
	}
	if rep.Completed == 0 || rep.OK < rep.Launched/2 {
		t.Fatalf("only %d/%d launched requests succeeded", rep.OK, rep.Launched)
	}
	st := p2.Stats()
	if st.DroppedUp+st.DroppedDown == 0 {
		t.Fatal("flap schedule never dropped a byte; the chaos was not exercised")
	}
}

// TestLoadgenAgainstHealthyServer: a plain run against one in-process
// server exits clean with every launched request completed and OK
// (valid generated SQL, no chaos) and a faithful by_status map.
func TestLoadgenAgainstHealthyServer(t *testing.T) {
	t.Cleanup(leak.Check(t))
	backend := httptest.NewServer(server.New(server.Config{CacheEntries: 128}))
	t.Cleanup(backend.Close)

	var stdout, stderrBuf bytes.Buffer
	code := run([]string{
		"-target", backend.URL,
		"-rate", "200",
		"-duration", "500ms",
		"-seed", "7",
		"-mix", "8",
	}, &stdout, &stderrBuf)
	if code != 0 {
		t.Fatalf("loadgen exit %d; stderr: %s", code, stderrBuf.String())
	}
	var rep Report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("bad report: %v\n%s", err, stdout.String())
	}
	if rep.Launched == 0 || rep.Completed != rep.Launched || rep.OK != rep.Completed {
		t.Fatalf("healthy run not all-OK: %+v", rep)
	}
	if rep.Malformed != 0 || rep.TransportErrors != 0 {
		t.Fatalf("healthy run saw failures: %+v", rep)
	}
}

// TestLoadgenUsage: missing -target and bad flags exit 2 without
// touching the network.
func TestLoadgenUsage(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run(nil, &out, &errBuf); code != 2 {
		t.Fatalf("no -target: exit %d, want 2", code)
	}
	if code := run([]string{"-target", "http://x", "-rate", "0"}, &out, &errBuf); code != 2 {
		t.Fatalf("zero rate: exit %d, want 2", code)
	}
	if code := run([]string{"-target", "http://x", "-schemas", "nope"}, &out, &errBuf); code != 2 {
		t.Fatalf("unknown schema: exit %d, want 2", code)
	}
}

// recordingBackend serves a stub diagram and records the SQL of every
// request it receives.
func recordingBackend(t *testing.T) (*httptest.Server, func() []string) {
	t.Helper()
	var mu sync.Mutex
	var got []string
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raw, _ := io.ReadAll(r.Body)
		var req struct {
			SQL string `json:"sql"`
		}
		_ = json.Unmarshal(raw, &req)
		mu.Lock()
		got = append(got, req.SQL)
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"diagram":"digraph {}"}`))
	}))
	t.Cleanup(backend.Close)
	return backend, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), got...)
	}
}

// plannedArrivals returns the SQL of the first n arrivals loadgen plans
// for a seed with the default flags over the beers schema, read from the
// functions run draws them with, and the mix they come from.
func plannedArrivals(t *testing.T, seed int64, mix, n int, zipfS float64) (picks []string, inMix map[string]bool) {
	t.Helper()
	beers, ok := schema.ByName("beers")
	if !ok {
		t.Fatal("beers schema missing")
	}
	queries := planMix(seed, mix, []string{"beers"}, []*schema.Schema{beers},
		oracle.Config{MaxTables: 3, MaxNegDepth: 2, Skew: 1})
	inMix = map[string]bool{}
	for _, q := range queries {
		inMix[q.SQL] = true
	}
	pick, _ := arrivals(queries, zipfS, seed)
	for i := 0; i < n; i++ {
		picks = append(picks, pick(i).SQL)
	}
	return picks, inMix
}

// sameSequence reports whether two arrival sequences are identical.
func sameSequence(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestLoadgenZipfSkewsMix: -zipf draws arrivals Zipf-skewed — the
// planned arrival sequence is seeded, the rank-0 query dominates the
// traffic that reaches the backend, every request carries a query of
// the mix, the report carries the exponent and the achieved hot share,
// and a sub-1 exponent is a usage error. How many arrivals an open loop
// launches, and in which order they reach the backend, depend on the
// scheduler, so neither is asserted.
func TestLoadgenZipfSkewsMix(t *testing.T) {
	t.Cleanup(leak.Check(t))

	// Seeded: the same seed plans the same arrival-by-arrival sequence,
	// another seed a different one.
	a, inMix := plannedArrivals(t, 11, 8, 30, 1.4)
	if b, _ := plannedArrivals(t, 11, 8, 30, 1.4); !sameSequence(a, b) {
		t.Fatal("same seed planned different zipf arrival sequences")
	}
	if c, _ := plannedArrivals(t, 12, 8, 30, 1.4); sameSequence(a, c) {
		t.Fatal("different seeds planned an identical zipf arrival sequence")
	}

	backend, captured := recordingBackend(t)
	var out, errBuf bytes.Buffer
	if code := run([]string{
		"-target", backend.URL, "-rate", "50", "-duration", "600ms",
		"-seed", "11", "-mix", "8", "-zipf", "1.4",
	}, &out, &errBuf); code != 0 {
		t.Fatalf("zipf run exit %d: %s", code, errBuf.String())
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad report: %v\n%s", err, out.String())
	}
	if rep.ZipfS != 1.4 {
		t.Fatalf("report zipf_s = %v, want 1.4", rep.ZipfS)
	}
	got := captured()
	if len(got) < 16 {
		t.Fatalf("captured only %d arrivals", len(got))
	}

	// Zipf with s=1.4 over 8 ranks gives rank 0 well over a uniform
	// 1/8 share; the hottest query must dominate and the report's
	// hot_share must agree with the recorded traffic.
	freq := map[string]int{}
	for _, sql := range got {
		if !inMix[sql] {
			t.Fatalf("backend received a query outside the planned mix:\n%s", sql)
		}
		freq[sql]++
	}
	top := 0
	for _, n := range freq {
		if n > top {
			top = n
		}
	}
	if share := float64(top) / float64(len(got)); share < 0.30 {
		t.Fatalf("hottest query got %.0f%% of a zipf(1.4) mix, want ≥ 30%%", share*100)
	}
	if rep.HotShare <= 0.25 || rep.HotShare > 1 {
		t.Fatalf("report hot_share = %v, want a dominant rank-0 share", rep.HotShare)
	}

	// Exponent validation: Zipf needs s > 1.
	if code := run([]string{"-target", "http://x", "-zipf", "0.9"}, &out, &errBuf); code != 2 {
		t.Fatalf("-zipf 0.9: exit %d, want 2", code)
	}
}

// TestLoadgenMixIsSeededAndReproducible: the same seed plans the same
// round-robin arrival sequence and a different seed diverges; on the
// wire, every request carries a query of the planned mix.
func TestLoadgenMixIsSeededAndReproducible(t *testing.T) {
	t.Cleanup(leak.Check(t))
	a, inMix := plannedArrivals(t, 5, 4, 8, 0)
	if b, _ := plannedArrivals(t, 5, 4, 8, 0); !sameSequence(a, b) {
		t.Fatal("same seed planned different arrival sequences")
	}
	if c, _ := plannedArrivals(t, 6, 4, 8, 0); sameSequence(a, c) {
		t.Fatal("different seeds produced an identical mix")
	}

	backend, captured := recordingBackend(t)
	var out, errBuf bytes.Buffer
	if code := run([]string{
		"-target", backend.URL, "-rate", "10", "-duration", "400ms",
		"-seed", "5", "-mix", "4",
	}, &out, &errBuf); code != 0 {
		t.Fatalf("capture run exit %d: %s", code, errBuf.String())
	}
	got := captured()
	if len(got) == 0 {
		t.Fatal("backend received no requests")
	}
	for _, sql := range got {
		if !inMix[sql] {
			t.Fatalf("backend received a query outside the planned mix:\n%s", sql)
		}
	}
}
