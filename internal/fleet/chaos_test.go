package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/leak"
	"repro/internal/netchaos"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// TestMain lets this test binary play both roles: the test process, and
// — re-executed with the instance marker — a real queryvisd member
// process the supervisor spawns, SIGKILLs, and respawns.
func TestMain(m *testing.M) {
	if os.Getenv("QUERYVIS_FLEET_TEST_INSTANCE") == "1" {
		runTestInstance()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runTestInstance serves the real pipeline on the fixed address from the
// environment until SIGTERM — fixed, because the member's netchaos proxy
// targets it and a respawn must come back on the same port.
func runTestInstance() {
	addr := os.Getenv("QUERYVIS_FLEET_ADDR")
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleet test instance: listen %s: %v\n", addr, err)
		os.Exit(1)
	}
	srv := &http.Server{Handler: server.New(server.Config{CacheEntries: 64})}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() { _ = srv.Serve(ln) }()
	<-ctx.Done()
	sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = srv.Shutdown(sctx)
}

// reservePort grabs an ephemeral port and releases it for the member
// process to bind. The tiny reuse race is acceptable in tests.
func reservePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestFleetPartitionHeal is the chaos battery the tentpole promises:
// three real instance processes behind netchaos proxies under a real
// router and supervisor; one instance is SIGKILLed and one fully
// partitioned mid-load. The supervisor must take both off the ring,
// respawn the dead one, rejoin both once healthy, never violate the
// disruption budget, and report every action through GET /v1/fleet —
// with zero goroutine or child-process leaks afterwards.
func TestFleetPartitionHeal(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos battery is not -short")
	}
	defer leak.Check(t)()
	defer leak.CheckChildren(t)()

	const n = 3
	var proxies [n]*netchaos.Proxy
	var members []Member
	for i := range n {
		backend := reservePort(t)
		p, err := netchaos.New(netchaos.Config{Target: backend, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		proxies[i] = p
		members = append(members, Member{URL: p.URL(), Args: []string{backend}})
	}

	reg := telemetry.NewRegistry()
	rt, err := router.New(router.Config{
		Backends:       []string{members[0].URL, members[1].URL, members[2].URL},
		HealthInterval: 50 * time.Millisecond,
		// A blackholed attempt must abort fast enough for failover to
		// answer within the load client's patience.
		InstanceTimeout: 2 * time.Second,
		Metrics:         reg,
		Logger:          slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt)
	defer front.Close()

	src := &fakeSource{}
	src.mu.Lock()
	src.members = append(src.members, members...)
	src.mu.Unlock()

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	sup, err := New(Config{
		Ring:         rt,
		Source:       src,
		Interval:     50 * time.Millisecond,
		ProbeTimeout: 300 * time.Millisecond,
		DownAfter:    2,
		UpAfter:      2,
		MinHealthy:   1,
		DrainTimeout: 500 * time.Millisecond,
		RespawnBase:  300 * time.Millisecond,
		StableAfter:  time.Second,
		Metrics:      reg,
		Spawn: func(m Member) (*exec.Cmd, error) {
			cmd := exec.Command(exe)
			cmd.Env = append(os.Environ(),
				"QUERYVIS_FLEET_TEST_INSTANCE=1",
				"QUERYVIS_FLEET_ADDR="+m.Args[0])
			return cmd, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.SetFleetStatus(func() any { return sup.Status() })

	supCtx, supCancel := context.WithCancel(context.Background())
	supDone := make(chan struct{})
	go func() {
		defer close(supDone)
		sup.Run(supCtx)
	}()
	defer func() {
		supCancel()
		<-supDone
	}()

	// fleetView decodes what GET /v1/fleet serves over HTTP — the test
	// asserts through the same surface an operator would read.
	type ringMember struct {
		URL      string `json:"url"`
		Healthy  bool   `json:"healthy"`
		Draining bool   `json:"draining"`
	}
	type fleetView struct {
		Router struct {
			Instances []ringMember `json:"instances"`
		} `json:"router"`
		Supervisor *struct {
			Reconciles   int64            `json:"reconciles"`
			ActionCounts map[string]int64 `json:"action_counts"`
			BudgetDenied map[string]int64 `json:"budget_denied"`
		} `json:"supervisor"`
	}
	getFleet := func() fleetView {
		t.Helper()
		resp, err := http.Get(front.URL + "/v1/fleet")
		if err != nil {
			t.Fatalf("GET /v1/fleet: %v", err)
		}
		defer resp.Body.Close()
		var fv fleetView
		if err := json.NewDecoder(resp.Body).Decode(&fv); err != nil {
			t.Fatalf("decode /v1/fleet: %v", err)
		}
		return fv
	}
	// checkBudget asserts the two invariants the disruption budget
	// guarantees at every observable instant: at most one concurrent
	// drain, and the ring never empty.
	checkBudget := func(fv fleetView) {
		t.Helper()
		draining := 0
		for _, in := range fv.Router.Instances {
			if in.Draining {
				draining++
			}
		}
		if draining > 1 {
			t.Fatalf("budget violated: %d concurrent drains, max 1", draining)
		}
		if len(fv.Router.Instances) == 0 {
			t.Fatalf("budget violated: supervisor emptied the ring")
		}
	}
	onRing := func(fv fleetView, url string) (present, healthy bool) {
		for _, in := range fv.Router.Instances {
			if in.URL == url {
				return true, in.Healthy && !in.Draining
			}
		}
		return false, false
	}
	waitFor := func(what string, timeout time.Duration, pred func(fleetView) bool) time.Duration {
		t.Helper()
		start := time.Now()
		deadline := start.Add(timeout)
		for {
			fv := getFleet()
			checkBudget(fv)
			if pred(fv) {
				return time.Since(start)
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v", what, fv)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// Phase 1: the supervisor spawns all three and the ring goes fully
	// healthy. The router starts out optimistic — a seeded backend reads
	// healthy before its first probe — so the ring alone can pass before
	// any process exists. The wait also requires the supervisor to have
	// reported every spawn and each member to answer its own healthz
	// through its proxy.
	direct := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	serving := func(url string) bool {
		resp, err := direct.Get(url + "/v1/healthz")
		if err != nil {
			return false
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}
	waitFor("all members spawned, joined, healthy", 20*time.Second, func(fv fleetView) bool {
		if fv.Supervisor == nil || fv.Supervisor.ActionCounts["spawn"] < n {
			return false
		}
		for _, m := range members {
			if _, healthy := onRing(fv, m.URL); !healthy || !serving(m.URL) {
				return false
			}
		}
		return true
	})

	// Background load: every response through the router must stay
	// well-formed for the entire chaos window.
	loadStop := make(chan struct{})
	var loadWG sync.WaitGroup
	var loadMu sync.Mutex
	var loadErrs []string
	var loadN, loadOK int
	body := fmt.Sprintf(`{"sql":%q,"schema":"beers"}`, corpus.Fig1UniqueSet)
	loadWG.Add(1)
	go func() {
		defer loadWG.Done()
		hc := &http.Client{Timeout: 15 * time.Second}
		for {
			select {
			case <-loadStop:
				return
			default:
			}
			resp, err := hc.Post(front.URL+"/v1/diagram", "application/json", strings.NewReader(body))
			loadMu.Lock()
			loadN++
			if err != nil {
				loadErrs = append(loadErrs, err.Error())
			} else {
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					loadOK++
				case http.StatusTooManyRequests, http.StatusBadGateway,
					http.StatusServiceUnavailable, http.StatusGatewayTimeout:
					// Honest backpressure during chaos is fine...
				default:
					loadErrs = append(loadErrs, fmt.Sprintf("status %d: %.120s", resp.StatusCode, raw))
				}
				if !json.Valid(raw) {
					loadErrs = append(loadErrs, fmt.Sprintf("malformed body: %.120q", raw))
				}
			}
			loadMu.Unlock()
			time.Sleep(10 * time.Millisecond)
		}
	}()

	// Phase 2: SIGKILL one member's process and fully partition another.
	// Both must leave the ring: the dead one because its process is gone,
	// the partitioned one because every probe blackholes. The disruption
	// budget allows one drain at a time, and a killed member respawns
	// within about a second; if the partition won the drain slot, the
	// killed member could be healthy again before its turn and never
	// leave. So the partition starts once the killed member is off the
	// ring, while its respawn is still under way.
	//
	// The killed member's absence is brief and a GET /v1/fleet takes a
	// full member-scrape timeout while a member is partitioned, so these
	// two waits read the router's ring in-process, where a poll costs
	// microseconds, and check the disruption budget on every read.
	waitOff := func(what, url string) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for {
			var fv fleetView
			present := false
			for _, in := range rt.State().Instances {
				fv.Router.Instances = append(fv.Router.Instances,
					ringMember{in.URL, in.Healthy, in.Draining})
				present = present || in.URL == url
			}
			checkBudget(fv)
			if !present {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v", what, fv)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	// The respawn rewrites the proc's handle under sup.mu, so its pid is
	// read under the lock too.
	sup.mu.Lock()
	pid := 0
	if p := sup.procs[members[0].URL]; p != nil && p.running() {
		pid = p.cmd.pid
	}
	sup.mu.Unlock()
	if pid == 0 {
		t.Fatal("no live managed process for member 0")
	}
	if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL member 0: %v", err)
	}
	chaosStart := time.Now()
	waitOff("killed member off ring", members[0].URL)
	proxies[1].Partition()
	waitOff("partitioned member off ring", members[1].URL)

	// Phase 3a: the killed member respawns (after backoff) and rejoins.
	waitFor("killed member respawned and rejoined", 20*time.Second,
		func(fv fleetView) bool {
			_, healthy := onRing(fv, members[0].URL)
			return healthy
		})
	killHeal := time.Since(chaosStart)

	// Phase 3b: heal the partition; the member rejoins with hysteresis.
	proxies[1].Heal()
	partHeal := waitFor("partitioned member rejoined after heal", 20*time.Second,
		func(fv fleetView) bool {
			_, healthy := onRing(fv, members[1].URL)
			return healthy
		})
	t.Logf("heal times: killed-member %.2fs (incl. respawn backoff), partitioned-member %.2fs after Heal()",
		killHeal.Seconds(), partHeal.Seconds())

	close(loadStop)
	loadWG.Wait()
	loadMu.Lock()
	if len(loadErrs) > 0 {
		t.Fatalf("%d/%d load responses malformed during chaos; first: %s", len(loadErrs), loadN, loadErrs[0])
	}
	if loadOK == 0 {
		t.Fatalf("no load request succeeded during chaos (%d sent)", loadN)
	}
	loadMu.Unlock()

	// /v1/fleet must reflect every reconcile action class this scenario
	// exercised, and the untouched member must never have been acted on.
	final := getFleet()
	if final.Supervisor == nil {
		t.Fatal("no supervisor block in /v1/fleet")
	}
	ac := final.Supervisor.ActionCounts
	if ac["spawn"] != n {
		t.Errorf("spawn count = %d, want %d", ac["spawn"], n)
	}
	if ac["respawn"] < 1 {
		t.Errorf("respawn count = %d, want >= 1", ac["respawn"])
	}
	if ac["drain"] < 2 {
		t.Errorf("drain count = %d, want >= 2 (killed + partitioned)", ac["drain"])
	}
	if ac["rejoin"] < 2 {
		t.Errorf("rejoin count = %d, want >= 2 (killed + partitioned)", ac["rejoin"])
	}
	if final.Supervisor.BudgetDenied["last_member"] > 0 || final.Supervisor.BudgetDenied["min_healthy"] > 0 {
		t.Errorf("unexpected budget denials with 3 members and MinHealthy=1: %v", final.Supervisor.BudgetDenied)
	}
	if present, healthy := onRing(final, members[2].URL); !present || !healthy {
		t.Errorf("untouched member should have stayed on the ring healthy throughout")
	}
}
