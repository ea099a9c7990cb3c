// Instance-level kill-storm: real queryvisd-shaped child processes
// behind the router, SIGKILLed mid-run. The contract under test is the
// scale-out analogue of the pool's worker kill-storm — every client
// gets a well-formed response (200 diagram, or a categorized JSON
// error), never a hang, never a malformed body, and the router process
// leaks neither goroutines nor children.
package router_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/leak"
	"repro/internal/router"
	"repro/internal/telemetry"
)

// TestRouterKillStorm: 3 live instances, ~300 requests at full tilt,
// one instance SIGKILLed at ~1/3 and another at ~2/3 — finishing on a
// single survivor. Clients use internal/client with failover-tuned
// retries; 100% of final outcomes must be well-formed and the clear
// majority must succeed.
func TestRouterKillStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real instance processes")
	}
	// Registered first so they run last: after the router and all
	// children are torn down, nothing of ours may survive.
	t.Cleanup(leak.Check(t))
	t.Cleanup(leak.CheckChildren(t))

	const instances = 3
	ring := make([]*testInstance, instances)
	urls := make([]string, instances)
	for i := range ring {
		ring[i] = startInstance(t)
		urls[i] = ring[i].URL
	}

	rt, err := router.New(router.Config{
		Backends:       urls,
		HealthInterval: 50 * time.Millisecond,
		Metrics:        telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)

	const (
		total       = 300
		concurrency = 16
		kill1       = total / 3
		kill2       = 2 * total / 3
	)
	var (
		started atomic.Int64
		byCode  [600]atomic.Int64
		mu      sync.Mutex
		bad     []string
	)
	malformed := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		if len(bad) < 10 {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}

	// One chaos goroutine triggers the kills at request-count milestones
	// so they land mid-storm regardless of wall-clock speed.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		for started.Load() < kill1 {
			time.Sleep(time.Millisecond)
		}
		ring[0].Kill()
		t.Log("killed instance 0")
		for started.Load() < kill2 {
			time.Sleep(time.Millisecond)
		}
		ring[1].Kill()
		t.Log("killed instance 1")
	}()

	var wg sync.WaitGroup
	work := make(chan int)
	for g := 0; g < concurrency; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Per-goroutine client: retries + Retry-After honoring, but
			// bounded by MaxAttempts so a dead-instance window degrades
			// to an error instead of stalling the storm.
			cl := client.New(client.Config{
				HTTPClient:  &http.Client{Timeout: 5 * time.Second},
				MaxAttempts: 4,
				BaseBackoff: 10 * time.Millisecond,
				MaxBackoff:  250 * time.Millisecond,
				Seed:        int64(1000 + g),
			})
			for i := range work {
				// A seeded mix of distinct bodies spreads keys across the
				// whole ring so both kills hit owned keyspace.
				sql := fmt.Sprintf("%s -- storm %d", qSome, i%17)
				resp, err := cl.PostJSON(context.Background(),
					front.URL+"/v1/diagram", diagramReq(sql))
				if err != nil {
					// Transport-level failure is allowed mid-kill (the
					// in-flight TCP connection died with the instance); it
					// is still a well-formed outcome for accounting as long
					// as it is an error, not a mangled body.
					byCode[0].Add(1)
					continue
				}
				raw, rerr := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
				resp.Body.Close()
				if rerr != nil {
					byCode[0].Add(1)
					continue
				}
				byCode[resp.StatusCode].Add(1)
				switch {
				case resp.StatusCode == http.StatusOK:
					var body struct {
						Diagram string `json:"diagram"`
					}
					if json.Unmarshal(raw, &body) != nil || body.Diagram == "" {
						malformed("req %d: 200 with bad body %.120s", i, raw)
					}
				default:
					var eb struct {
						Error struct {
							Category string `json:"category"`
							Message  string `json:"message"`
						} `json:"error"`
					}
					if json.Unmarshal(raw, &eb) != nil || eb.Error.Category == "" {
						malformed("req %d: status %d with non-error body %.120s",
							i, resp.StatusCode, raw)
					}
				}
			}
		}(g)
	}
	for i := 0; i < total; i++ {
		started.Add(1)
		work <- i
	}
	close(work)
	wg.Wait()
	<-killed

	var sum, oks int64
	counts := map[int]int64{}
	for code := range byCode {
		if n := byCode[code].Load(); n > 0 {
			counts[code] = n
			sum += n
			if code == http.StatusOK {
				oks = n
			}
		}
	}
	t.Logf("outcomes by status (0 = transport error): %v", counts)
	t.Logf("router state after storm: %+v", rt.State())

	for _, m := range bad {
		t.Error(m)
	}
	if sum != total {
		t.Fatalf("accounted for %d of %d requests", sum, total)
	}
	if oks < total/2 {
		t.Fatalf("only %d/%d requests succeeded; failover is not working", oks, total)
	}

	// The survivor must still carry traffic and the router must know
	// exactly who is alive.
	st, _, raw := postJSON(t, front.URL+"/v1/diagram", diagramReq(qSome))
	if st != http.StatusOK {
		t.Fatalf("survivor unreachable after storm: status %d body %.200s", st, raw)
	}
	waitUntil(t, 5*time.Second, func() bool {
		healthy := 0
		for _, in := range rt.State().Instances {
			if in.Healthy {
				healthy++
			}
		}
		return healthy == 1
	})
}

// TestRouterSurvivesColdStartAgainstDeadRing: a router brought up
// pointing at instances that are already gone must not hang or crash —
// it sheds honestly until an instance appears.
func TestRouterSurvivesColdStartAgainstDeadRing(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real instance process")
	}
	t.Cleanup(leak.Check(t))
	t.Cleanup(leak.CheckChildren(t))

	// A real instance whose address we take and then kill immediately:
	// the router starts against a plausible-but-dead backend.
	ti := startInstance(t)
	ti.Kill()

	rt, err := router.New(router.Config{
		Backends:       []string{ti.URL},
		HealthInterval: 25 * time.Millisecond,
		Metrics:        telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)

	waitUntil(t, 5*time.Second, func() bool { return rt.State().Status == "unhealthy" })
	st, hdr, raw := postJSON(t, front.URL+"/v1/diagram", diagramReq(qSome))
	if st != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Fatalf("dead-ring cold start: status %d Retry-After %q body %.200s",
			st, hdr.Get("Retry-After"), raw)
	}
}
