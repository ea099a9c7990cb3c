// Membership-churn chaos: a rolling restart of real instance
// processes under open-loop, Zipf-skewed load, driven the way an
// operator drives it — by editing the fleet spec and poking the
// supervisor (the SIGHUP path). Two instances are replaced mid-storm:
// add the replacement to the spec and wait for the supervisor to join
// it, drop the old member and wait for the supervisor to drain it and
// eject it once idle, then SIGKILL the process — while 16 workers
// hammer the router with a Zipf-skewed query mix and the response
// cache is enabled. The contract: every response is well-formed,
// nothing is shed or 503'd (at least one instance was healthy at every
// instant), the epoch ledger shows every membership change, both drains
// finish as "drained" rather than escalated ejects, and the router
// leaks neither goroutines nor child processes.
package router_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/leak"
	"repro/internal/router"
	"repro/internal/telemetry"
)

// writeSpec replaces the fleet spec with the given member URLs.
func writeSpec(path string, urls []string) error {
	var spec fleet.Spec
	for _, u := range urls {
		spec.Instances = append(spec.Instances, fleet.Member{URL: u})
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

func TestRouterMembershipChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real instance processes")
	}
	t.Cleanup(leak.Check(t))
	t.Cleanup(leak.CheckChildren(t))

	a, b, c := startInstance(t), startInstance(t), startInstance(t)

	rt, err := router.New(router.Config{
		Backends:       []string{a.URL, b.URL, c.URL},
		HealthInterval: 50 * time.Millisecond,
		ResponseCache:  true,
		Metrics:        telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)

	// The supervisor is the only membership writer. It re-reads the spec
	// every 50 ms tick; Poke makes an edit take effect at once.
	spec := filepath.Join(t.TempDir(), "fleet.json")
	desired := []string{a.URL, b.URL, c.URL}
	if err := writeSpec(spec, desired); err != nil {
		t.Fatal(err)
	}
	sup, err := fleet.New(fleet.Config{
		Ring:     rt,
		Source:   &fleet.SpecSource{Path: spec},
		Interval: 50 * time.Millisecond,
		Metrics:  rt.Registry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	supCtx, supStop := context.WithCancel(context.Background())
	supDone := make(chan struct{})
	go func() {
		defer close(supDone)
		sup.Run(supCtx)
	}()
	t.Cleanup(func() {
		supStop()
		<-supDone
	})

	// Zipf-skewed mix (seeded): rank 0 dominates, exercising the
	// response cache; each rank cycles through a few literal variants so
	// the popular pattern arrives as several distinct bodies rather than
	// one byte-identical body.
	const ranks, variants = 12, 6
	zipf := rand.NewZipf(rand.New(rand.NewSource(42)), 1.4, 1, ranks-1)
	sqlFor := func(rank, variant int) string {
		return fmt.Sprintf("%s -- rank %d variant %d", qSome, rank, variant)
	}

	const (
		total       = 480
		concurrency = 16
		mJoinD      = 120
		mDrainA     = 200
		mJoinE      = 280
		mDrainB     = 360
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

	waitStarted := func(n int64) {
		for started.Load() < n {
			time.Sleep(time.Millisecond)
		}
	}
	// edit rewrites the spec and pokes the supervisor, then waits until
	// url's ring membership reads present; safe from the chaos goroutine
	// (no t.Fatal).
	edit := func(urls []string, url string, present bool) bool {
		desired = urls
		if err := writeSpec(spec, desired); err != nil {
			t.Errorf("write spec: %v", err)
			return false
		}
		sup.Poke()
		deadline := time.Now().Add(15 * time.Second)
		for {
			on := slices.ContainsFunc(rt.State().Instances,
				func(in router.InstanceState) bool { return in.URL == url })
			if on == present {
				return true
			}
			if time.Now().After(deadline) {
				t.Errorf("%s never reached on-ring=%v: %+v", url, present, rt.State())
				return false
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	// join adds an instance to the spec and waits for the supervisor to
	// put it on the ring.
	join := func(n *testInstance) {
		edit(append(slices.Clone(desired), n.URL), n.URL, true)
	}
	// replace drops old from the spec, waits for the supervisor to drain
	// it and eject it, then kills the process — the rolling-restart move.
	replace := func(old *testInstance, label string) {
		rest := slices.DeleteFunc(slices.Clone(desired), func(u string) bool { return u == old.URL })
		if edit(rest, old.URL, false) {
			old.Kill()
			t.Logf("replaced instance %s (drained, removed, killed)", label)
		}
	}

	// The replacements start before the storm, on the test's goroutine,
	// and reach the ring only when the spec names them.
	d, e := startInstance(t), startInstance(t)
	churned := make(chan struct{})
	go func() {
		defer close(churned)
		waitStarted(mJoinD)
		join(d)
		waitStarted(mDrainA)
		replace(a, "a")
		waitStarted(mJoinE)
		join(e)
		waitStarted(mDrainB)
		replace(b, "b")
	}()

	// The load: open-loop-ish worker pool, plain one-shot requests — no
	// client retries, so any router miss is visible in the accounting.
	type job struct{ rank, variant int }
	var wg sync.WaitGroup
	work := make(chan job)
	for g := 0; g < concurrency; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range work {
				st, hdr, raw := postJSON(t, front.URL+"/v1/diagram",
					diagramReq(sqlFor(j.rank, j.variant)))
				byCode[st].Add(1)
				switch {
				case st == http.StatusOK:
					var body struct {
						Diagram string `json:"diagram"`
					}
					if json.Unmarshal(raw, &body) != nil || body.Diagram == "" {
						malformed("rank %d: 200 with bad body %.120s", j.rank, raw)
					}
					// Every successful response is traced, even mid-churn.
					if hdr.Get(telemetry.TraceIDHeader) == "" {
						malformed("rank %d: 200 without a %s header", j.rank, telemetry.TraceIDHeader)
					}
				default:
					var eb struct {
						Error struct {
							Category string `json:"category"`
						} `json:"error"`
					}
					if json.Unmarshal(raw, &eb) != nil || eb.Error.Category == "" {
						malformed("rank %d: status %d with non-error body %.120s", j.rank, st, raw)
					}
				}
			}
		}()
	}
	for i := 0; i < total; i++ {
		started.Add(1)
		work <- job{rank: int(zipf.Uint64()), variant: i % variants}
	}
	close(work)
	wg.Wait()
	<-churned

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
	st := rt.State()
	t.Logf("outcomes by status: %v", counts)
	t.Logf("final state: epoch=%d members=%d shed=%d failovers=%d stampede=%+v",
		st.Epoch, len(st.Instances), st.Shed, st.Failovers, st.Stampede)

	for _, m := range bad {
		t.Error(m)
	}
	if sum != total {
		t.Fatalf("accounted for %d of %d requests", sum, total)
	}
	// At least one instance was healthy at every instant of the rolling
	// restart: nothing may be shed, nothing may 503, and with drains
	// (not kills) removing live members, nothing should fail at all.
	if oks != total {
		t.Fatalf("%d/%d requests succeeded during a drain-first rolling restart; the rest: %v",
			oks, total, counts)
	}
	if st.Shed != 0 {
		t.Fatalf("router shed %d requests with a healthy instance always present", st.Shed)
	}
	if byCode[http.StatusServiceUnavailable].Load() != 0 {
		t.Fatal("router answered 503 during the rolling restart")
	}
	// The epoch ledger: initial(1) + join d + eject a + join e + eject b.
	if st.Epoch < 5 {
		t.Fatalf("epoch %d after two joins and two drain-removals, want ≥ 5", st.Epoch)
	}
	// Both drains ran from start to removal in the supervisor and ended
	// because the member went idle, not because DrainTimeout escalated.
	ac := sup.Status().ActionCounts
	if ac["join"] != 2 || ac["remove"] != 2 || ac["drained"] != 2 || ac["eject"] != 0 {
		t.Fatalf("supervisor actions %v, want join=2 remove=2 drained=2 eject=0", ac)
	}
	if len(st.Instances) != 3 {
		t.Fatalf("%d members after the rolling restart, want 3", len(st.Instances))
	}
	for _, in := range st.Instances {
		if in.URL == a.URL || in.URL == b.URL {
			t.Fatalf("replaced instance %s still on the ring", in.URL)
		}
	}
	// Hop accounting on the post-storm ring: a fresh proxied request's
	// assembled trace carries exactly the hops it took — the router's
	// span plus the serving instance's in-process pipeline, and no
	// worker hop because these instances run without a process pool.
	const probeID = "churn-trace-probe"
	probeBody, _ := json.Marshal(diagramReq(qSome + " -- post-churn trace probe"))
	preq, err := http.NewRequest(http.MethodPost, front.URL+"/v1/diagram", bytes.NewReader(probeBody))
	if err != nil {
		t.Fatal(err)
	}
	preq.Header.Set("Content-Type", "application/json")
	preq.Header.Set("X-Request-ID", probeID)
	presp, err := http.DefaultClient.Do(preq)
	if err != nil {
		t.Fatalf("trace probe: %v", err)
	}
	io.Copy(io.Discard, presp.Body)
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("trace probe = %d, want 200", presp.StatusCode)
	}
	traceID := presp.Header.Get(telemetry.TraceIDHeader)
	if traceID == "" {
		t.Fatalf("trace probe response missing %s", telemetry.TraceIDHeader)
	}

	tresp, err := http.Get(front.URL + "/v1/traces?request_id=" + probeID)
	if err != nil {
		t.Fatalf("GET /v1/traces: %v", err)
	}
	var traces struct {
		Traces []struct {
			TraceID    string           `json:"trace_id"`
			Spans      []telemetry.Span `json:"spans"`
			MergeError string           `json:"merge_error"`
		} `json:"traces"`
	}
	if err := json.NewDecoder(tresp.Body).Decode(&traces); err != nil {
		t.Fatalf("decode /v1/traces: %v", err)
	}
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK || len(traces.Traces) != 1 {
		t.Fatalf("/v1/traces?request_id=%s = %d with %d traces, want 200 with 1",
			probeID, tresp.StatusCode, len(traces.Traces))
	}
	tr := traces.Traces[0]
	if tr.TraceID != traceID {
		t.Errorf("assembled trace id %q, response header said %q", tr.TraceID, traceID)
	}
	if tr.MergeError != "" {
		t.Errorf("instance spans failed to merge: %s", tr.MergeError)
	}
	hops := map[string]int{}
	for _, sp := range tr.Spans {
		hops[sp.Name]++
	}
	if hops["router"] != 1 || hops["instance"] != 1 {
		t.Errorf("hop spans = %v, want exactly one router and one instance hop", hops)
	}
	// The probe shares the storm's pattern, so the instance may serve
	// the render from its warm diagram cache — the key-computing stages
	// (parse through build) always run and must appear.
	for _, stage := range []string{"parse", "resolve", "convert", "logictree", "build"} {
		if hops[stage] == 0 {
			t.Errorf("instance stage %q missing from the merged trace: %v", stage, hops)
		}
	}
	if hops["dispatch"] != 0 || hops["worker"] != 0 {
		t.Errorf("in-process instances grew pool hops: %v", hops)
	}
}
