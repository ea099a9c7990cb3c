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

// TestFleetPartitionHeal is the fleet's chaos battery: three real
// instance processes behind netchaos proxies under a real router and
// supervisor; one instance is SIGKILLed and one fully partitioned
// mid-load. The router's prober is the only health verdict: it must take
// both out of rotation and readmit both once they pass again, with no
// membership change at all — the epoch stays 1 and the supervisor
// records no join, drain or eject. While the router holds a member
// down, no request reaches it. The supervisor respawns the killed
// process, both members carry traffic again after the heal, every
// response stays well-formed, and GET /v1/fleet reports the actions;
// no goroutine or child process leaks.
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

	// The waits read the router's state in-process, where a poll costs
	// microseconds (a GET /v1/fleet takes a full member-scrape timeout
	// while a member is partitioned), and check on every read that the
	// ring still holds all three members.
	eligible := func(url string) bool {
		t.Helper()
		st := rt.State()
		if len(st.Instances) != n {
			t.Fatalf("ring membership changed: %+v", st.Instances)
		}
		for _, in := range st.Instances {
			if in.URL == url {
				return in.Healthy && !in.Draining
			}
		}
		return false
	}
	waitFor := func(what string, cond func() bool) time.Duration {
		t.Helper()
		start := time.Now()
		for !cond() {
			if time.Since(start) > 20*time.Second {
				t.Fatalf("timed out waiting for %s: %+v", what, rt.State())
			}
			time.Sleep(2 * time.Millisecond)
		}
		return time.Since(start)
	}
	served := func(url string) float64 {
		return reg.Value("queryvis_router_instance_requests_total", "instance", url)
	}

	// Phase 1: the supervisor spawns all three and each answers its own
	// healthz through its proxy. The router starts out optimistic — a
	// seeded backend reads healthy before its first probe — so the ring
	// alone can pass before any process exists.
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
	waitFor("all members spawned and serving", func() bool {
		if sup.Status().ActionCounts["spawn"] < n {
			return false
		}
		for _, m := range members {
			if !eligible(m.URL) || !serving(m.URL) {
				return false
			}
		}
		return true
	})

	// Background load: one request at a time over 48 distinct bodies, so
	// every member owns some keys, and every response through the router
	// must stay well-formed for the entire chaos window. loadDone counts
	// completed requests.
	loadStop := make(chan struct{})
	var loadWG sync.WaitGroup
	var loadMu sync.Mutex
	var loadErrs []string
	var loadN, loadOK int
	loadDone := func() int {
		loadMu.Lock()
		defer loadMu.Unlock()
		return loadN
	}
	loadWG.Add(1)
	go func() {
		defer loadWG.Done()
		hc := &http.Client{Timeout: 15 * time.Second}
		for i := 0; ; i++ {
			select {
			case <-loadStop:
				return
			default:
			}
			body := fmt.Sprintf(`{"sql":%q,"schema":"beers"}`,
				fmt.Sprintf("%s -- key %d", corpus.Fig1UniqueSet, i%48))
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

	// outOfRotation waits for the router to mark url down, then for the
	// load request in flight at that moment to finish; the load is
	// serial, so every later request was routed against the down verdict.
	// It returns how long the verdict took and url's attempt count from
	// then on.
	outOfRotation := func(what, url string) (time.Duration, float64) {
		t.Helper()
		took := waitFor(what, func() bool { return !eligible(url) })
		settled := loadDone() + 1
		waitFor("the in-flight load request to finish", func() bool { return loadDone() >= settled })
		return took, served(url)
	}
	// backInRotation waits for the router to readmit url and checks, on
	// every poll that still reads it down, that no request reached it.
	backInRotation := func(what, url string, downCount float64) {
		t.Helper()
		waitFor(what, func() bool {
			c := served(url)
			if eligible(url) {
				return true
			}
			if c != downCount {
				t.Fatalf("%s: %v requests reached it while the router held it down", url, c-downCount)
			}
			return false
		})
	}

	// Phase 2: SIGKILL one member's process, then fully partition
	// another. The respawn rewrites the proc's handle under sup.mu, so its
	// pid is read under the lock too.
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
	killed := time.Now()
	killOut, killCount := outOfRotation("killed member out of rotation", members[0].URL)
	backInRotation("killed member respawned and readmitted", members[0].URL, killCount)
	killIn := time.Since(killed)

	proxies[1].Partition()
	partOut, partCount := outOfRotation("partitioned member out of rotation", members[1].URL)
	time.Sleep(300 * time.Millisecond) // a partition outlives several probe rounds
	if eligible(members[1].URL) || served(members[1].URL) != partCount {
		t.Fatal("the partitioned member came back or took requests before the heal")
	}
	proxies[1].Heal()
	healed := time.Now()
	backInRotation("partitioned member readmitted after heal", members[1].URL, partCount)
	partIn := time.Since(healed)
	t.Logf("killed member: out of rotation %.2fs after SIGKILL, back in %.2fs after it (respawn included); "+
		"partitioned member: out %.2fs after Partition(), back in %.2fs after Heal()",
		killOut.Seconds(), killIn.Seconds(), partOut.Seconds(), partIn.Seconds())

	// Both members carry traffic again.
	for _, m := range members[:2] {
		before := served(m.URL)
		waitFor(m.URL+" serving again", func() bool { return served(m.URL) > before })
	}

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

	// No health event changed membership: the epoch and the router's
	// membership counter hold, and the supervisor's only actions were
	// the spawns and the respawn, as GET /v1/fleet reports them.
	if ep := rt.State().Epoch; ep != 1 {
		t.Errorf("ring epoch = %d, want 1", ep)
	}
	for _, op := range []string{"join", "drain", "eject"} {
		if v := reg.Value("queryvis_router_membership_changes_total", "op", op); v != 0 {
			t.Errorf("membership changes %s = %v, want 0", op, v)
		}
	}
	resp, err := http.Get(front.URL + "/v1/fleet")
	if err != nil {
		t.Fatalf("GET /v1/fleet: %v", err)
	}
	var fv struct {
		Supervisor *struct {
			ActionCounts map[string]int64 `json:"action_counts"`
			BudgetDenied map[string]int64 `json:"budget_denied"`
		} `json:"supervisor"`
	}
	err = json.NewDecoder(resp.Body).Decode(&fv)
	resp.Body.Close()
	if err != nil || fv.Supervisor == nil {
		t.Fatalf("decode /v1/fleet supervisor block: %v", err)
	}
	ac := fv.Supervisor.ActionCounts
	if ac["spawn"] != n || ac["respawn"] < 1 {
		t.Errorf("spawn = %d, respawn = %d; want %d and >= 1", ac["spawn"], ac["respawn"], n)
	}
	for _, a := range []string{"join", "remove", "drained", "eject"} {
		if ac[a] != 0 {
			t.Errorf("supervisor %s count = %d, want 0: health events must not change membership", a, ac[a])
		}
	}
	if len(fv.Supervisor.BudgetDenied) != 0 {
		t.Errorf("budget denials with no removal asked for: %v", fv.Supervisor.BudgetDenied)
	}
	if !eligible(members[2].URL) {
		t.Error("the untouched member should be in rotation")
	}
}
