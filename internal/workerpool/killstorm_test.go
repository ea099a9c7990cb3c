//go:build unix

package workerpool_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/faults"
	"repro/internal/leak"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/workerpool"
)

// killstormSeed pins the storm: which requests carry injected worker
// faults, and the SIGKILL cadence. Change it to explore a different
// storm; any failure report includes it.
const (
	killstormSeed     = 20260806
	killstormRequests = 600
	killstormClients  = 12
)

// TestKillStorm is the headline robustness run: a full HTTP server
// dispatching to a real process-isolated pool while (a) ~15% of requests
// carry injected worker faults (crash mid-request, wedge forever, write
// pipe garbage) and (b) an independent storm goroutine SIGKILLs live
// workers at random. The invariants — the whole point of process
// isolation — are:
//
//   - the daemon itself never dies, never panics, never resets a
//     connection: every single request gets an HTTP response that is
//     either 200 or a well-formed categorized error;
//   - workers killed under a healthy request are retried once
//     transparently (retries observable via pool state);
//   - afterwards the pool converges back to healthy and leaks neither
//     goroutines nor child processes.
func TestKillStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("kill-storm is a long soak; skipped in -short")
	}
	t.Cleanup(leak.CheckChildren(t))
	t.Cleanup(leak.Check(t))

	reg := telemetry.NewRegistry()
	pool := newPool(t, workerpool.Config{
		Workers:              4,
		MaxRequestsPerWorker: 40,
		RequestTimeout:       500 * time.Millisecond,
		Metrics:              reg,
	})
	srv := server.New(server.Config{
		Unlimited:           false,
		RequestTimeout:      5 * time.Second,
		MaxConcurrent:       64,
		AllowFaultInjection: true,
		Metrics:             reg,
		Pool:                pool,
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// The storm: SIGKILL a random live worker roughly every 30ms for as
	// long as the request load runs. Killing by pid from Pids() races
	// with recycling — that is the point; a stale pid is a harmless
	// ESRCH.
	stopStorm := make(chan struct{})
	var stormWG sync.WaitGroup
	var stormKills int64
	stormWG.Add(1)
	go func() {
		defer stormWG.Done()
		rng := rand.New(rand.NewSource(killstormSeed))
		tick := time.NewTicker(30 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopStorm:
				return
			case <-tick.C:
				pids := pool.Pids()
				if len(pids) == 0 {
					continue
				}
				pid := pids[rng.Intn(len(pids))]
				if syscall.Kill(pid, syscall.SIGKILL) == nil {
					atomic.AddInt64(&stormKills, 1)
				}
			}
		}
	}()

	validCats := map[string]bool{
		"bad_request": true, "too_large": true, "parse": true,
		"semantic": true, "limit": true, "timeout": true,
		"canceled": true, "overloaded": true, "internal": true,
		"verify_failed": true, "worker_crashed": true,
	}

	var (
		mu       sync.Mutex
		byStatus = map[int]int{}
		byCat    = map[string]int{}
		failures int64
	)
	fail := func(idx int, format string, args ...any) {
		atomic.AddInt64(&failures, 1)
		t.Errorf("request %d (storm seed %d): %s", idx, killstormSeed, fmt.Sprintf(format, args...))
	}

	body := diagramBody(qSome)
	var wg sync.WaitGroup
	idxc := make(chan int)
	for w := 0; w < killstormClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := client.New(client.Config{
				MaxAttempts: 3,
				BaseBackoff: 20 * time.Millisecond,
				MaxBackoff:  250 * time.Millisecond,
			})
			for idx := range idxc {
				req, err := http.NewRequestWithContext(context.Background(),
					http.MethodPost, ts.URL+"/v1/diagram", bytes.NewReader(body))
				if err != nil {
					fail(idx, "build request: %v", err)
					continue
				}
				req.Header.Set("Content-Type", "application/json")
				wantFault := ""
				if wf, ok := faults.WorkerFaultForSeed(killstormSeed + int64(idx)); ok {
					req.Header.Set(faults.HeaderWorkerFault, string(wf))
					wantFault = string(wf)
				}
				resp, err := c.Do(req)
				if err != nil {
					fail(idx, "transport error (fault=%q): %v", wantFault, err)
					continue
				}
				raw, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
				resp.Body.Close()
				if err != nil {
					fail(idx, "read body (fault=%q): %v", wantFault, err)
					continue
				}
				cat := ""
				if resp.StatusCode == http.StatusOK {
					var out struct {
						Diagram string `json:"diagram"`
					}
					if json.Unmarshal(raw, &out) != nil || !strings.Contains(out.Diagram, "digraph") {
						fail(idx, "malformed 200 body: %.200s", raw)
						continue
					}
				} else {
					var eb struct {
						Error struct {
							Category string `json:"category"`
						} `json:"error"`
					}
					if json.Unmarshal(raw, &eb) != nil || !validCats[eb.Error.Category] {
						fail(idx, "status %d with malformed or unknown error %.200s", resp.StatusCode, raw)
						continue
					}
					cat = eb.Error.Category
				}
				mu.Lock()
				byStatus[resp.StatusCode]++
				if cat != "" {
					byCat[cat]++
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < killstormRequests; i++ {
		idxc <- i
	}
	close(idxc)
	wg.Wait()
	close(stopStorm)
	stormWG.Wait()

	total := 0
	for _, n := range byStatus {
		total += n
	}
	st := pool.State()
	t.Logf("kill-storm: %d responses by status %v, categories %v, storm kills %d, pool %+v",
		total, byStatus, byCat, atomic.LoadInt64(&stormKills), st)

	if atomic.LoadInt64(&failures) > 0 {
		t.Fatalf("%d malformed responses — the daemon leaked a raw failure to a client", failures)
	}
	if total != killstormRequests {
		t.Fatalf("accounted for %d of %d requests", total, killstormRequests)
	}
	// ISSUE acceptance: >=99% of requests end in a 200 or a categorized
	// error. Malformed responses already failed above, so this is
	// arithmetic — but assert it explicitly as the headline number.
	if ok := total - int(failures); ok*100 < killstormRequests*99 {
		t.Fatalf("only %d/%d requests ended well-formed", ok, killstormRequests)
	}
	if byStatus[http.StatusOK] == 0 {
		t.Fatal("no request succeeded at all — pool never served")
	}
	if atomic.LoadInt64(&stormKills) == 0 {
		t.Fatal("storm never killed a worker; the test exercised nothing")
	}
	if st.Retries == 0 {
		t.Error("no transparent retry recorded across an entire kill storm")
	}
	if st.Exits["crash"] == 0 {
		t.Error("no crash exit recorded despite SIGKILL storm")
	}

	// The storm is over: the pool must converge back to fully healthy and
	// serve a plain request first try.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := pool.State(); st.Live == st.Workers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never recovered: %+v", pool.State())
		}
		time.Sleep(25 * time.Millisecond)
	}
	hc := client.New(client.Config{MaxAttempts: 1})
	resp, err := hc.Get(context.Background(), ts.URL+"/v1/healthz")
	if err != nil {
		t.Fatalf("healthz after storm: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after storm: status %d", resp.StatusCode)
	}
	var hz struct {
		Pool *workerpool.State `json:"pool"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil || hz.Pool == nil {
		t.Fatalf("healthz lacks pool state (err %v)", err)
	}
	if hz.Pool.Live != hz.Pool.Workers {
		t.Fatalf("healthz reports unhealthy pool after recovery: %+v", hz.Pool)
	}
}

// TestCrashContainment is the acceptance scenario stated in the issue: a
// query that genuinely exhausts its worker's stack — a real runtime
// fatal, not an injected one — kills only that worker. The daemon stays
// up, concurrent healthy requests keep succeeding, and the pool
// respawns.
func TestCrashContainment(t *testing.T) {
	t.Cleanup(leak.CheckChildren(t))
	t.Cleanup(leak.Check(t))

	// Workers run with a deliberately tiny stack ceiling and no pipeline
	// limits: deepQuery recurses past the ceiling somewhere inside the
	// compile pipeline and the Go runtime kills the process. The parent
	// test binary has the normal 1GB ceiling and is untouched.
	p := newPool(t, workerpool.Config{
		Workers: 2,
		Spawn:   spawnSelf(envMaxStack+"=524288", envUnlimited+"=1"),
	})
	ctx := context.Background()

	// Sanity: the tiny-stack worker serves normal queries fine.
	if resp, err := doDiagram(ctx, p, qSome, nil); err != nil || resp.Status != 200 {
		t.Fatalf("healthy request on tiny-stack worker: err %v resp %+v", err, resp)
	}

	// Run healthy traffic concurrently with the poison query: isolation
	// means the blast radius is one worker, not the service.
	healthyErr := make(chan error, 1)
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				healthyErr <- nil
				return
			default:
			}
			resp, err := doDiagram(ctx, p, qSome, nil)
			if err != nil {
				healthyErr <- fmt.Errorf("healthy request failed during containment: %w", err)
				return
			}
			if resp.Status != 200 {
				healthyErr <- fmt.Errorf("healthy request got %d during containment", resp.Status)
				return
			}
		}
	}()

	_, err := doDiagram(ctx, p, deepQuery(900), nil)
	close(stop)
	if herr := <-healthyErr; herr != nil {
		t.Fatal(herr)
	}
	var we *workerpool.WorkerError
	if !errors.As(err, &we) || we.Kind != workerpool.KindCrash {
		t.Fatalf("want KindCrash from stack exhaustion, got %v", err)
	}
	if st := p.State(); st.Exits["crash"] != 2 {
		t.Fatalf("want exactly the two poisoned workers dead, got %+v", st)
	}

	// And the pool heals: fresh workers, healthy service.
	if resp, err := doDiagram(ctx, p, qSome, nil); err != nil || resp.Status != 200 {
		t.Fatalf("after containment: err %v resp %+v", err, resp)
	}
}
