package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/corpus"
	"repro/internal/leak"
	"repro/internal/server"
)

// TestFleetMode is the CI fleet-smoke: the real run() path boots as a
// router with the self-healing supervisor over a spec file, discovers
// and joins a member that was never on the -route list, reflects its
// actions in GET /v1/fleet and /v1/metrics, removes a member dropped
// from the spec on SIGHUP, and exits clean on SIGTERM.
func TestFleetMode(t *testing.T) {
	sigWarm := make(chan os.Signal, 1)
	signal.Notify(sigWarm, syscall.SIGHUP)
	signal.Stop(sigWarm)
	t.Cleanup(leak.Check(t))

	b1 := httptest.NewServer(server.New(server.Config{CacheEntries: 64}))
	defer b1.Close()
	b2 := httptest.NewServer(server.New(server.Config{CacheEntries: 64}))
	defer b2.Close()

	spec := filepath.Join(t.TempDir(), "fleet.json")
	writeSpec := func(urls ...string) {
		t.Helper()
		var ms []map[string]string
		for _, u := range urls {
			ms = append(ms, map[string]string{"url": u})
		}
		raw, err := json.Marshal(map[string]any{"instances": ms})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(spec, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeSpec(b1.URL, b2.URL)

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
			"-route", b1.URL, // b2 is discovered via the spec, not seeded
			"-fleet", spec,
			"-fleet-interval", "50ms",
			"-shutdown-grace", "5s",
		}, devnull, pw)
	}()
	var base string
	select {
	case addr := <-addrc:
		base = "http://" + addr
	case <-time.After(15 * time.Second):
		t.Fatal("fleet router never logged its listen address")
	}

	hc := client.New(client.Config{})
	ctx := context.Background()

	type fleetView struct {
		Router struct {
			Instances []struct {
				URL string `json:"url"`
			} `json:"instances"`
		} `json:"router"`
		Supervisor *struct {
			Reconciles   int64            `json:"reconciles"`
			Desired      []string         `json:"desired"`
			ActionCounts map[string]int64 `json:"action_counts"`
			BudgetDenied map[string]int64 `json:"budget_denied"`
		} `json:"supervisor"`
	}
	getFleet := func() fleetView {
		t.Helper()
		resp, err := hc.Get(ctx, base+"/v1/fleet")
		if err != nil {
			t.Fatalf("GET /v1/fleet: %v", err)
		}
		defer resp.Body.Close()
		var fv fleetView
		if err := json.NewDecoder(resp.Body).Decode(&fv); err != nil {
			t.Fatalf("decode /v1/fleet: %v", err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/fleet = %d", resp.StatusCode)
		}
		return fv
	}

	// The supervisor must discover b2 from the spec and join it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		fv := getFleet()
		if fv.Supervisor != nil && fv.Supervisor.Reconciles > 0 &&
			len(fv.Router.Instances) == 2 && fv.Supervisor.ActionCounts["join"] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("supervisor never joined the discovered member: %+v", fv)
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Traffic flows across the reconciled ring.
	dresp, err := hc.PostJSON(ctx, base+"/v1/diagram",
		map[string]any{"sql": corpus.Fig1UniqueSet, "schema": "beers"})
	if err != nil {
		t.Fatalf("diagram via fleet router: %v", err)
	}
	var dr struct {
		Diagram string `json:"diagram"`
	}
	if err := json.NewDecoder(dresp.Body).Decode(&dr); err != nil {
		t.Fatalf("decode diagram: %v", err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK || !strings.Contains(dr.Diagram, "digraph") {
		t.Fatalf("diagram via fleet router = %d %.80q", dresp.StatusCode, dr.Diagram)
	}

	// The fleet metric families ride the router's /v1/metrics.
	mresp, err := hc.Get(ctx, base+"/v1/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	mraw := new(strings.Builder)
	sc := bufio.NewScanner(mresp.Body)
	for sc.Scan() {
		mraw.WriteString(sc.Text())
		mraw.WriteByte('\n')
	}
	mresp.Body.Close()
	for _, want := range []string{
		"# TYPE queryvis_fleet_reconciles_total counter",
		`queryvis_fleet_actions_total{action="join"} 1`,
		"queryvis_fleet_desired_members 2",
	} {
		if !strings.Contains(mraw.String(), want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}

	// Drop b2 from the spec; SIGHUP forces the re-read, and the
	// supervisor drains it and ejects it on a later tick that finds it
	// idle.
	writeSpec(b1.URL)
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatalf("SIGHUP: %v", err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		fv := getFleet()
		if len(fv.Router.Instances) == 1 && fv.Router.Instances[0].URL == b1.URL &&
			fv.Supervisor != nil && fv.Supervisor.ActionCounts["remove"] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("undesired member never left the ring: %+v", fv)
		}
		time.Sleep(25 * time.Millisecond)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	select {
	case got := <-code:
		if got != 0 {
			t.Fatalf("fleet router run exited %d, want 0", got)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("fleet router did not exit after SIGTERM")
	}
	pw.Close()
	drainWG.Wait()
	pr.Close()
	if _, err := http.Get(base + "/v1/healthz"); err == nil {
		t.Fatal("fleet router still answering after SIGTERM")
	}
	http.DefaultClient.CloseIdleConnections()
}
