// Chaos test: drive the full hardened HTTP service with a seeded mixed
// corpus — healthy paper queries, malformed mutations, pathologically
// deep nesting, oversized inputs, mid-request client cancellations, and
// injected stage faults — and assert the global robustness properties:
// the server never panics, never hangs, never leaks a goroutine, and
// every response carries a well-formed JSON body with a known category.
//
// The test lives in package faults_test (not faults) because it imports
// internal/server, which transitively imports the queryvis facade, which
// imports internal/faults: an in-package test file would close an import
// cycle.
//
// Reproducibility: every request's behavior is a pure function of the
// run seed (chaosSeed) and its request index. A failure log line names
// both, and re-running with the same pair replays the identical request
// against the identically planned fault set.
package faults_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	queryvis "repro"
	"repro/internal/client"
	"repro/internal/corpus"
	"repro/internal/faults"
	"repro/internal/leak"
	"repro/internal/quarantine"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// chaosSeed fixes the whole run; change it to explore a different slice
// of the input space (and record the new value in any bug report).
const chaosSeed = 20260806

// chaosRequests is the corpus size. The acceptance bar is ≥500 mixed
// requests surviving under -race.
const chaosRequests = 600

// healthyQueries are known-good (sql, schema) pairs from the paper.
var healthyQueries = []struct{ sql, schema string }{
	{corpus.Fig1UniqueSet, "beers"},
	{corpus.Fig3QSome, "beers"},
	{corpus.Fig3QOnly, "beers"},
}

// deepQuery nests NOT EXISTS blocks depth levels — beyond the default
// MaxNestingDepth (24) it must be rejected by a limit, and beyond the
// parser's hard cap it must be rejected by a parse error; either way,
// never by stack exhaustion.
func deepQuery(depth int) string {
	var b strings.Builder
	b.WriteString("SELECT L0.drinker FROM Likes L0 WHERE ")
	for i := 1; i <= depth; i++ {
		fmt.Fprintf(&b, "NOT EXISTS (SELECT * FROM Likes L%d WHERE L%d.drinker = L%d.drinker AND ", i, i, i-1)
	}
	fmt.Fprintf(&b, "L%d.beer = L%d.beer", depth, depth)
	b.WriteString(strings.Repeat(")", depth))
	return b.String()
}

// giantQuery strings together enough conjuncts to trip MaxPredicates or
// MaxQueryBytes.
func giantQuery(preds int) string {
	var b strings.Builder
	b.WriteString("SELECT L.drinker FROM Likes L WHERE L.beer = 'x'")
	for i := 0; i < preds; i++ {
		fmt.Fprintf(&b, " AND L.beer <> 'beer%d'", i)
	}
	return b.String()
}

// mutate corrupts sql deterministically: truncation, byte substitution,
// or token deletion.
func mutate(rng *rand.Rand, sql string) string {
	switch rng.Intn(3) {
	case 0: // truncate
		if len(sql) < 2 {
			return sql
		}
		return sql[:1+rng.Intn(len(sql)-1)]
	case 1: // clobber one byte
		b := []byte(sql)
		b[rng.Intn(len(b))] = byte("(;'#!"[rng.Intn(5)])
		return string(b)
	default: // drop a keyword occurrence
		for _, kw := range []string{"SELECT", "FROM", "WHERE", "EXISTS"} {
			if i := strings.Index(strings.ToUpper(sql), kw); i >= 0 {
				return sql[:i] + sql[i+len(kw):]
			}
		}
		return sql
	}
}

// wideChaosQuery fans out sibling NOT EXISTS boxes: legal input whose
// parent assignments number boxes^boxes, all but one of which the
// inverse search rules out by following the arrows.
func wideChaosQuery(boxes int) string {
	var b strings.Builder
	b.WriteString("SELECT L0.drinker FROM Likes L0 WHERE ")
	for i := 1; i <= boxes; i++ {
		if i > 1 {
			b.WriteString(" AND ")
		}
		fmt.Fprintf(&b,
			"NOT EXISTS (SELECT * FROM Likes L%d WHERE L%d.drinker = L0.drinker AND L%d.beer = 'b%d')",
			i, i, i, i)
	}
	return b.String()
}

// chaosOutcome tallies one request's classification for the summary.
type chaosOutcome struct {
	status       int
	category     string
	clientTO     bool   // request aborted client-side (cancellation kind)
	verifyStatus string // verify_status on a 200, "" when absent
	degraded     string // degraded rung on a 200
}

// verifyStatuses is every value verify_status may legally take on a 200.
var verifyStatuses = map[string]bool{
	queryvis.VerifyStatusVerified: true, queryvis.VerifyStatusMismatch: true,
	queryvis.VerifyStatusAmbiguous: true, queryvis.VerifyStatusTimeout: true,
	queryvis.VerifyStatusError: true,
}

// degradedRungs is every value the degraded marker may legally take.
var degradedRungs = map[string]bool{
	queryvis.RungSimplified: true, queryvis.RungExistsForm: true, queryvis.RungTRC: true,
}

func TestChaos(t *testing.T) {
	t.Cleanup(leak.Check(t))

	// Quarantine store for the run: inputs the verified kinds fail on
	// must land here, deduped, and replay deterministically afterwards.
	qdir := t.TempDir()
	qstore, err := quarantine.Open(qdir, 0)
	if err != nil {
		t.Fatal(err)
	}

	cfg := server.Config{
		RequestTimeout:      500 * time.Millisecond,
		MaxConcurrent:       32,
		AllowFaultInjection: true,
		Quarantine:          qstore,
	}
	srv := server.New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// A second instance with a deadline shorter than any injected delay,
	// so the timeout path gets deterministic coverage (the main server's
	// 500ms deadline outlasts every possible fault plan).
	srvSlow := server.New(server.Config{
		RequestTimeout:      2 * time.Millisecond,
		MaxConcurrent:       32,
		AllowFaultInjection: true,
	})
	tsSlow := httptest.NewServer(srvSlow)
	t.Cleanup(tsSlow.Close)

	// One seed whose plan delays the parse stage well past 2ms.
	delaySeed := int64(-1)
	for seed := int64(1); seed < 1_000_000; seed++ {
		f := faults.NewPlan(seed).Faults[faults.StageParse]
		if f.Action == faults.ActDelay && f.Delay >= 20*time.Millisecond {
			delaySeed = seed
			break
		}
	}
	if delaySeed < 0 {
		t.Fatal("no delay seed found")
	}

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
		byVerify = map[string]int{}
		byRung   = map[string]int{}
		clientTO int64
		failures int64
	)
	fail := func(idx int, format string, args ...any) {
		atomic.AddInt64(&failures, 1)
		t.Errorf("request %d (run seed %d): %s", idx, chaosSeed, fmt.Sprintf(format, args...))
	}

	const workers = 12
	var wg sync.WaitGroup
	idxc := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := client.New(client.Config{HTTPClient: &http.Client{Timeout: 10 * time.Second}})
			for idx := range idxc {
				out, ok := fireChaosRequest(hc, ts.URL, tsSlow.URL, delaySeed, idx, fail)
				if !ok {
					continue
				}
				mu.Lock()
				byStatus[out.status]++
				if out.category != "" {
					byCat[out.category]++
				}
				if out.verifyStatus != "" {
					byVerify[out.verifyStatus]++
				}
				if out.degraded != "" {
					byRung[out.degraded]++
				}
				mu.Unlock()
				if out.clientTO {
					atomic.AddInt64(&clientTO, 1)
				}
				if out.status != http.StatusOK && out.category != "" && !validCats[out.category] {
					fail(idx, "unknown error category %q", out.category)
				}
			}
		}()
	}
	for i := 0; i < chaosRequests; i++ {
		idxc <- i
	}
	close(idxc)
	wg.Wait()

	total := 0
	for _, n := range byStatus {
		total += n
	}
	t.Logf("chaos: %d requests (%d canceled client-side), statuses %v, categories %v, verify %v, rungs %v",
		total+int(clientTO), clientTO, byStatus, byCat, byVerify, byRung)

	// The corpus must actually have exercised the interesting paths.
	if byStatus[http.StatusOK] == 0 {
		t.Error("no request succeeded — corpus degenerate")
	}
	for _, cat := range []string{"parse", "limit", "internal", "timeout"} {
		if byCat[cat] == 0 {
			t.Errorf("category %q never produced — corpus did not cover it", cat)
		}
	}
	// The verified kinds must have both proven diagrams and walked the
	// degradation ladder at least once.
	if byVerify[queryvis.VerifyStatusVerified] == 0 {
		t.Error("no response verified — verification never succeeded")
	}
	degradedTotal := 0
	for _, n := range byRung {
		degradedTotal += n
	}
	if degradedTotal == 0 {
		t.Error("no degraded response observed — ladder never walked")
	}

	// Every input the run quarantined must replay deterministically: two
	// fresh replays agree with each other, and each either reproduces the
	// recorded failure or verifies cleanly (never a third shape).
	entries, err := quarantine.Load(qdir)
	if err != nil {
		t.Fatalf("load quarantine corpus: %v", err)
	}
	if len(entries) == 0 {
		t.Error("chaos run quarantined nothing — verified kinds ineffective")
	}
	replayCtx, cancelReplay := context.WithTimeout(context.Background(), time.Minute)
	defer cancelReplay()
	for _, e := range entries {
		a := quarantine.Replay(replayCtx, e)
		b := quarantine.Replay(replayCtx, e)
		if a.Status != b.Status || a.Rung != b.Rung {
			t.Errorf("quarantine entry %s replays nondeterministically: (%s,%s) vs (%s,%s)",
				e.Key(), a.Status, a.Rung, b.Status, b.Rung)
		}
		if a.Divergent() {
			t.Errorf("quarantine entry %s divergent: recorded %q, observed %q (rung %q, err %v)",
				e.Key(), e.Status, a.Status, a.Rung, a.Err)
		}
	}
	t.Logf("chaos: %d quarantined entries replayed deterministically", len(entries))

	// The telemetry registry must still be internally consistent after the
	// storm: spans and histograms agree stage by stage, and the pipeline
	// prefix property (a stage is entered only if its predecessor finished)
	// survives injected errors, panics, and timeouts.
	assertRegistryConsistent(t, "main", srv.Metrics())
	assertRegistryConsistent(t, "slow", srvSlow.Metrics())

	// The servers' request counters must reconcile with the client-side
	// tallies: every response the client classified was counted server-side
	// (per status code), and the servers never counted more requests than
	// the run sent. Only ≥/≤ bounds are available — a client that canceled
	// mid-flight may or may not have produced a countable response.
	serverByCode := requestsByCode(t, srv.Metrics(), srvSlow.Metrics())
	serverTotal := 0
	for _, n := range serverByCode {
		serverTotal += n
	}
	if serverTotal > chaosRequests {
		t.Errorf("servers counted %d requests, but only %d were sent", serverTotal, chaosRequests)
	}
	// byStatus[0] tallies client-side aborts — no response was received, so
	// they are excluded from the reconciliation.
	if answered := total - byStatus[0]; serverTotal < answered {
		t.Errorf("servers counted %d requests, client saw %d responses", serverTotal, answered)
	}
	for code, n := range byStatus {
		if code != 0 && serverByCode[code] < n {
			t.Errorf("requests_total{code=%d} = %d server-side, client saw %d", code, serverByCode[code], n)
		}
	}

	if atomic.LoadInt64(&failures) == 0 {
		// Final liveness probe: the server must still answer cleanly.
		resp, err := client.New(client.Config{}).Get(context.Background(), ts.URL+"/v1/healthz")
		if err != nil {
			t.Fatalf("healthz after chaos: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz after chaos = %d", resp.StatusCode)
		}
	}
}

// fireChaosRequest builds and sends request idx. Returns ok=false when
// the outcome is uninteresting to tally (client-side abort with no
// response, which the cancellation kinds expect).
func fireChaosRequest(hc *client.Client, baseURL, slowURL string, delaySeed int64, idx int, fail func(int, string, ...any)) (chaosOutcome, bool) {
	rng := rand.New(rand.NewSource(chaosSeed + int64(idx)))
	hq := healthyQueries[rng.Intn(len(healthyQueries))]

	var (
		body       []byte
		header     = map[string]string{}
		endpoint   = "/v1/diagram"
		cancelIn   time.Duration
		wantVerify bool // request asked for verification; 200 must carry a status
	)
	marshal := func(sql, schema, verify string) []byte {
		format := []string{"dot", "svg", "text", ""}[rng.Intn(4)]
		m := map[string]any{
			"sql": sql, "schema": schema,
			"simplify": rng.Intn(2) == 0, "format": format,
		}
		if verify != "" {
			m["verify"] = verify
		}
		raw, err := json.Marshal(m)
		if err != nil {
			panic(err)
		}
		return raw
	}

	switch kind := rng.Intn(14); kind {
	case 0, 1: // healthy query
		body = marshal(hq.sql, hq.schema, "")
	case 2: // healthy via /v1/interpret
		endpoint = "/v1/interpret"
		body = marshal(hq.sql, hq.schema, "")
	case 3, 4: // malformed SQL mutation
		body = marshal(mutate(rng, hq.sql), hq.schema, "")
	case 5: // deep nesting: below, at, and far beyond the limit
		body = marshal(deepQuery(5+rng.Intn(120)), "beers", "")
	case 6: // giant query
		body = marshal(giantQuery(100+rng.Intn(1500)), "beers", "")
	case 7: // garbage body / wrong envelope
		body = [][]byte{
			[]byte(`{"sql":`),
			[]byte(`[]`),
			[]byte(`{"sql":"SELECT 1","schema":"beers","x":1}`),
			[]byte(`{"sql":"SELECT L.drinker FROM Likes L","schema":"nope"}`),
		}[rng.Intn(4)]
	case 8: // injected stage faults, healthy query
		body = marshal(hq.sql, hq.schema, "")
		header["X-Fault-Seed"] = fmt.Sprint(chaosSeed + int64(idx))
	case 9: // server-side timeout: slow instance + guaranteed parse delay
		baseURL = slowURL
		body = marshal(hq.sql, hq.schema, "")
		header["X-Fault-Seed"] = fmt.Sprint(delaySeed)
	case 10: // mid-request cancellation
		body = marshal(hq.sql, hq.schema, "")
		cancelIn = time.Duration(1+rng.Intn(5)) * time.Millisecond
		if rng.Intn(2) == 0 { // cancel during an injected delay for good measure
			header["X-Fault-Seed"] = fmt.Sprint(chaosSeed + int64(idx))
		}
	case 11: // healthy query under verification, both modes
		wantVerify = true
		body = marshal(hq.sql, hq.schema, []string{"degrade", "strict"}[rng.Intn(2)])
	case 12: // wide fan-out in degrade mode
		wantVerify = true
		body = marshal(wideChaosQuery(7), "beers", "degrade")
	default: // injected stage faults under degrade-mode verification —
		// the ladder must produce a truthful 200 or a classified error
		wantVerify = true
		body = marshal(hq.sql, hq.schema, "degrade")
		header["X-Fault-Seed"] = fmt.Sprint(chaosSeed + int64(idx))
	}

	ctx := context.Background()
	if cancelIn > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cancelIn)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+endpoint, bytes.NewReader(body))
	if err != nil {
		fail(idx, "build request: %v", err)
		return chaosOutcome{}, false
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header.Set(k, v)
	}

	resp, err := hc.Do(req)
	if err != nil {
		if cancelIn > 0 {
			// Client-side abort is this kind's expected outcome.
			return chaosOutcome{clientTO: true}, true
		}
		fail(idx, "request failed: %v", err)
		return chaosOutcome{}, false
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		if cancelIn > 0 {
			return chaosOutcome{clientTO: true}, true
		}
		fail(idx, "read body: %v", err)
		return chaosOutcome{}, false
	}

	out := chaosOutcome{status: resp.StatusCode}
	if resp.StatusCode == http.StatusOK {
		var okBody struct {
			VerifyStatus string `json:"verify_status"`
			Degraded     string `json:"degraded"`
		}
		if err := json.Unmarshal(raw, &okBody); err != nil {
			fail(idx, "200 body not JSON: %v\n%s", err, raw)
			return chaosOutcome{}, false
		}
		out.verifyStatus, out.degraded = okBody.VerifyStatus, okBody.Degraded

		// Truthfulness: every 200 is either verified, honestly carrying a
		// non-verified status, or silent because verification was off.
		if out.verifyStatus != "" && !verifyStatuses[out.verifyStatus] {
			fail(idx, "unknown verify_status %q", out.verifyStatus)
		}
		if out.degraded != "" {
			if !degradedRungs[out.degraded] {
				fail(idx, "unknown degraded rung %q", out.degraded)
			}
			// A degraded body must say so via its status too; the only
			// verified-yet-degraded shape is the render-stage fall-back to
			// the TRC rung, after the diagram itself was proven.
			if out.verifyStatus == "" {
				fail(idx, "degraded rung %q on a response with no verify_status", out.degraded)
			}
			if out.verifyStatus == queryvis.VerifyStatusVerified && out.degraded != queryvis.RungTRC {
				fail(idx, "verified response claims degraded rung %q", out.degraded)
			}
		}
		if wantVerify && out.verifyStatus == "" {
			fail(idx, "verification requested but 200 carries no verify_status\n%s", raw)
		}
		// The headers must agree with the body.
		if h := resp.Header.Get("X-QueryVis-Verify-Status"); h != out.verifyStatus {
			fail(idx, "verify status header %q != body %q", h, out.verifyStatus)
		}
		if h := resp.Header.Get("X-QueryVis-Degraded"); h != out.degraded {
			fail(idx, "degraded header %q != body %q", h, out.degraded)
		}
		return out, true
	}
	var eb struct {
		Error struct {
			Category string `json:"category"`
			Message  string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(raw, &eb); err != nil {
		fail(idx, "status %d body not a JSON error: %v\n%s", resp.StatusCode, err, raw)
		return chaosOutcome{}, false
	}
	if eb.Error.Category == "" || eb.Error.Message == "" {
		fail(idx, "status %d error body incomplete: %s", resp.StatusCode, raw)
		return chaosOutcome{}, false
	}
	// Injected panics must never leak their panic text to the client.
	if strings.Contains(eb.Error.Message, "injected panic") {
		fail(idx, "panic value leaked: %s", eb.Error.Message)
		return chaosOutcome{}, false
	}
	out.category = eb.Error.Category
	return out, true
}

// pipelineStages is the forward pipeline in execution order; a stage can
// only be entered after every earlier one returned cleanly.
var pipelineStages = []string{"parse", "resolve", "convert", "logictree", "build"}

// assertRegistryConsistent checks the invariants that must hold on a
// server's registry no matter what faults were injected: every stage's
// span counter equals its duration histogram's observation count (both
// are derived from the same span list), and span counts are monotonically
// non-increasing along the pipeline.
func assertRegistryConsistent(t *testing.T, name string, reg *telemetry.Registry) {
	t.Helper()
	for _, s := range append(slices.Clone(pipelineStages), "verify", "render") {
		spans := reg.Value("queryvis_stage_spans_total", "stage", s)
		obs := reg.Value("queryvis_stage_duration_seconds", "stage", s)
		if spans != obs {
			t.Errorf("%s server: stage %q spans_total %v != duration count %v", name, s, spans, obs)
		}
	}
	for i := 1; i < len(pipelineStages); i++ {
		prev := reg.Value("queryvis_stage_spans_total", "stage", pipelineStages[i-1])
		cur := reg.Value("queryvis_stage_spans_total", "stage", pipelineStages[i])
		if cur > prev {
			t.Errorf("%s server: stage %q entered %v times but predecessor %q only %v",
				name, pipelineStages[i], cur, pipelineStages[i-1], prev)
		}
	}
}

// requestsByCode sums queryvis_http_requests_total over the API routes of
// every given registry, keyed by status code, by parsing the Prometheus
// exposition (the registry has no enumeration API — the exposition is the
// contract).
func requestsByCode(t *testing.T, regs ...*telemetry.Registry) map[int]int {
	t.Helper()
	re := regexp.MustCompile(`(?m)^queryvis_http_requests_total\{code="(\d+)",route="/v1/(?:diagram|interpret)"\} (\d+)$`)
	out := map[int]int{}
	for _, reg := range regs {
		var buf bytes.Buffer
		reg.WritePrometheus(&buf)
		for _, m := range re.FindAllStringSubmatch(buf.String(), -1) {
			code, _ := strconv.Atoi(m[1])
			n, _ := strconv.Atoi(m[2])
			out[code] += n
		}
	}
	return out
}

// TestSpansMatchStagesEntered pins the span/stage contract at the facade:
// for any fault plan, the trace contains exactly one span per pipeline
// stage entered — a stage killed by an injected error or panic still
// emits its (closed) span, and no span appears for stages never reached.
// Deterministic per seed, so a failure names its plan exactly.
func TestSpansMatchStagesEntered(t *testing.T) {
	s, ok := queryvis.SchemaByName("beers")
	if !ok {
		t.Fatal("beers schema missing")
	}

	const seeds = 200
	const workers = 8
	var wg sync.WaitGroup
	seedc := make(chan int64)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range seedc {
				plan := faults.NewPlan(seed)

				// Expected trace: the pipeline prefix up to and including the
				// first stage an injected error or panic kills. Delays elapse
				// (the context has no deadline) and the stage completes, so
				// they extend the prefix rather than cutting it.
				var want []string
				for _, st := range faults.Stages[:len(pipelineStages)] {
					want = append(want, string(st))
					if a := plan.Faults[st].Action; a == faults.ActError || a == faults.ActPanic {
						break
					}
				}

				tr := telemetry.NewTracer()
				ctx := faults.WithPlan(context.Background(), plan)
				// Verify off: verification would re-fire stages outside the
				// span'd pipeline and append its own span, clouding the map
				// from plan to expected trace.
				_, _ = queryvis.FromSQLContext(ctx, corpus.Fig1UniqueSet, s, queryvis.Options{Tracer: tr})

				spans := tr.Spans()
				got := make([]string, len(spans))
				for i, sp := range spans {
					got[i] = sp.Name
					if !sp.Done {
						t.Errorf("seed %d (plan %s): span %q left open", seed, plan.Describe(), sp.Name)
					}
				}
				if !slices.Equal(got, want) {
					t.Errorf("seed %d (plan %s): spans %v, want %v", seed, plan.Describe(), got, want)
				}
			}
		}()
	}
	for seed := int64(1); seed <= seeds; seed++ {
		seedc <- seed
	}
	close(seedc)
	wg.Wait()
}
