package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	queryvis "repro"
	"repro/internal/corpus"
	"repro/internal/faults"
	"repro/internal/quarantine"
	"repro/internal/telemetry"
)

// newMetricsServer is newTestServer with an externally readable registry.
func newMetricsServer(t *testing.T, cfg Config) (*httptest.Server, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	cfg.Metrics = reg
	return newTestServer(t, cfg), reg
}

// errorCategorySum totals the error counters across the whole taxonomy.
func errorCategorySum(reg *telemetry.Registry) float64 {
	var sum float64
	for _, cat := range errorCategories {
		sum += reg.Value(mErrors, "category", string(cat))
	}
	return sum
}

// verifyOutcomeSum totals the verdict counters across all outcomes.
func verifyOutcomeSum(reg *telemetry.Registry) float64 {
	var sum float64
	for _, outcome := range verifyOutcomes {
		sum += reg.Value(mVerify, "status", outcome)
	}
	return sum
}

// TestErrorCategoryCounters drives one request into every category of
// the error taxonomy and asserts it increments exactly that category's
// counter — one error response, one series, nothing else.
func TestErrorCategoryCounters(t *testing.T) {
	fig1 := diagramRequest{SQL: corpus.Fig1UniqueSet, Schema: "beers"}
	cases := []struct {
		cat  Category
		cfg  Config
		send func(t *testing.T, ts *httptest.Server)
	}{
		{CatBadRequest, Config{}, func(t *testing.T, ts *httptest.Server) {
			post(t, ts.Client(), ts.URL+"/v1/diagram", `{"sql": `, nil)
		}},
		{CatTooLarge, Config{MaxBodyBytes: 64}, func(t *testing.T, ts *httptest.Server) {
			post(t, ts.Client(), ts.URL+"/v1/diagram", diagramRequest{
				SQL:    "SELECT x.a FROM T x WHERE " + strings.Repeat("x.a = 1 AND ", 50) + "x.a = 1",
				Schema: "beers",
			}, nil)
		}},
		{CatParse, Config{}, func(t *testing.T, ts *httptest.Server) {
			post(t, ts.Client(), ts.URL+"/v1/diagram", diagramRequest{
				SQL: "SELEKT nope", Schema: "beers",
			}, nil)
		}},
		{CatSemantic, Config{}, func(t *testing.T, ts *httptest.Server) {
			post(t, ts.Client(), ts.URL+"/v1/diagram", diagramRequest{
				SQL: "SELECT x.a FROM NoSuchTable x", Schema: "beers",
			}, nil)
		}},
		{CatLimit, Config{Limits: queryvis.Limits{MaxNestingDepth: 1}}, func(t *testing.T, ts *httptest.Server) {
			post(t, ts.Client(), ts.URL+"/v1/diagram", fig1, nil)
		}},
		{CatTimeout, Config{RequestTimeout: 5 * time.Millisecond}, func(t *testing.T, ts *httptest.Server) {
			seed := findSeed(t, func(p *faults.Plan) bool {
				f := p.Faults[faults.StageParse]
				return f.Action == faults.ActDelay && f.Delay >= 20*time.Millisecond
			})
			post(t, ts.Client(), ts.URL+"/v1/diagram", fig1,
				map[string]string{"X-Fault-Seed": fmt.Sprint(seed)})
		}},
		{CatInternal, Config{}, func(t *testing.T, ts *httptest.Server) {
			seed := findSeed(t, func(p *faults.Plan) bool {
				return p.Faults[faults.StageParse].Action == faults.ActPanic
			})
			post(t, ts.Client(), ts.URL+"/v1/diagram", fig1,
				map[string]string{"X-Fault-Seed": fmt.Sprint(seed)})
		}},
		{CatVerifyFailed, Config{}, func(t *testing.T, ts *httptest.Server) {
			seed := verifyOnlySeed(t)
			postFull(t, ts.Client(), ts.URL+"/v1/diagram",
				diagramReq(corpus.Fig1UniqueSet, "strict"),
				map[string]string{"X-Fault-Seed": fmt.Sprint(seed)})
		}},
	}
	for _, tc := range cases {
		t.Run(string(tc.cat), func(t *testing.T) {
			ts, reg := newMetricsServer(t, tc.cfg)
			tc.send(t, ts)
			if got := reg.Value(mErrors, "category", string(tc.cat)); got != 1 {
				t.Errorf("errors_total{category=%q} = %v, want 1", tc.cat, got)
			}
			if sum := errorCategorySum(reg); sum != 1 {
				t.Errorf("error counters sum = %v, want exactly 1", sum)
			}
		})
	}

	// canceled (499): the context is dead before the handler runs, so the
	// request never leaves the client — drive the handler directly.
	t.Run(string(CatCanceled), func(t *testing.T) {
		reg := telemetry.NewRegistry()
		s := New(Config{Metrics: reg})
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var buf bytes.Buffer
		_ = json.NewEncoder(&buf).Encode(fig1)
		req := httptest.NewRequest(http.MethodPost, "/v1/diagram", &buf).WithContext(ctx)
		s.ServeHTTP(httptest.NewRecorder(), req)
		if got := reg.Value(mErrors, "category", string(CatCanceled)); got != 1 {
			t.Errorf("errors_total{category=canceled} = %v, want 1", got)
		}
		if sum := errorCategorySum(reg); sum != 1 {
			t.Errorf("error counters sum = %v, want exactly 1", sum)
		}
	})

	// overloaded (429): one worker held busy, the second request shed.
	t.Run(string(CatOverloaded), func(t *testing.T) {
		seed := findSeed(t, func(p *faults.Plan) bool {
			f := p.Faults[faults.StageParse]
			return f.Action == faults.ActDelay && f.Delay >= 40*time.Millisecond
		})
		ts, reg := newMetricsServer(t, Config{MaxConcurrent: 1})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			post(t, ts.Client(), ts.URL+"/v1/diagram", fig1,
				map[string]string{"X-Fault-Seed": fmt.Sprint(seed)})
		}()
		srv := ts.Config.Handler.(*Server)
		for i := 0; srv.InFlight() == 0 && i < 500; i++ {
			time.Sleep(time.Millisecond)
		}
		st, _ := post(t, ts.Client(), ts.URL+"/v1/diagram", fig1, nil)
		wg.Wait()
		if st != http.StatusTooManyRequests {
			t.Fatalf("status = %d, want 429", st)
		}
		if got := reg.Value(mErrors, "category", string(CatOverloaded)); got != 1 {
			t.Errorf("errors_total{category=overloaded} = %v, want 1", got)
		}
		if sum := errorCategorySum(reg); sum != 1 {
			t.Errorf("error counters sum = %v, want exactly 1", sum)
		}
		if got := reg.Value(mShed); got != 1 {
			t.Errorf("shed = %v, want 1", got)
		}
	})
}

// TestVerifyOutcomeCounters asserts each reachable verification verdict
// increments exactly one outcome counter. (A mismatch needs a wrong
// diagram, which no deterministic fault plan can fabricate over HTTP;
// the facade-level verify tests cover that verdict.)
func TestVerifyOutcomeCounters(t *testing.T) {
	t.Run("verified", func(t *testing.T) {
		ts, reg := newMetricsServer(t, Config{})
		postFull(t, ts.Client(), ts.URL+"/v1/diagram", diagramReq(corpus.Fig1UniqueSet, "degrade"), nil)
		if got := reg.Value(mVerify, "status", queryvis.VerifyStatusVerified); got != 1 {
			t.Errorf("verify_total{status=verified} = %v, want 1", got)
		}
		if sum := verifyOutcomeSum(reg); sum != 1 {
			t.Errorf("verify counters sum = %v, want exactly 1", sum)
		}
	})

	t.Run("off_counts_nothing", func(t *testing.T) {
		ts, reg := newMetricsServer(t, Config{})
		postFull(t, ts.Client(), ts.URL+"/v1/diagram", diagramReq(corpus.Fig1UniqueSet, "off"), nil)
		if sum := verifyOutcomeSum(reg); sum != 0 {
			t.Errorf("verify counters sum = %v, want 0 for verify=off", sum)
		}
	})

	t.Run("ambiguous", func(t *testing.T) {
		ts, reg := newMetricsServer(t, Config{})
		postFull(t, ts.Client(), ts.URL+"/v1/diagram", diagramReq(disconnectedSQL, "degrade"), nil)
		if got := reg.Value(mVerify, "status", queryvis.VerifyStatusAmbiguous); got != 1 {
			t.Errorf("verify_total{status=ambiguous} = %v, want 1", got)
		}
		if sum := verifyOutcomeSum(reg); sum != 1 {
			t.Errorf("verify counters sum = %v, want exactly 1", sum)
		}
	})

	t.Run("error", func(t *testing.T) {
		ts, reg := newMetricsServer(t, Config{})
		seed := verifyOnlySeed(t)
		postFull(t, ts.Client(), ts.URL+"/v1/diagram", diagramReq(corpus.Fig1UniqueSet, "degrade"),
			map[string]string{"X-Fault-Seed": fmt.Sprint(seed)})
		if got := reg.Value(mVerify, "status", queryvis.VerifyStatusError); got != 1 {
			t.Errorf("verify_total{status=error} = %v, want 1", got)
		}
		if sum := verifyOutcomeSum(reg); sum != 1 {
			t.Errorf("verify counters sum = %v, want exactly 1", sum)
		}
	})
}

// TestMetricsEndpoint scrapes /v1/metrics after one diagram request and
// checks the exposition covers the whole surface: all seven stages,
// every error category, the verify outcomes, quarantine gauges, and non-zero series for the request that was just served.
func TestMetricsEndpoint(t *testing.T) {
	q, err := quarantine.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := newMetricsServer(t, Config{Quarantine: q})
	postFull(t, ts.Client(), ts.URL+"/v1/diagram", diagramReq(corpus.Fig1UniqueSet, "degrade"), nil)

	resp, err := ts.Client().Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type = %q, want text/plain exposition", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	for _, stage := range faults.Stages {
		if !strings.Contains(body, fmt.Sprintf(`queryvis_stage_duration_seconds_count{stage=%q}`, string(stage))) {
			t.Errorf("exposition missing stage histogram for %q", stage)
		}
	}
	for _, cat := range errorCategories {
		if !strings.Contains(body, fmt.Sprintf(`queryvis_http_errors_total{category=%q}`, cat)) {
			t.Errorf("exposition missing error category %q", cat)
		}
	}
	for _, outcome := range verifyOutcomes {
		if !strings.Contains(body, fmt.Sprintf(`queryvis_verify_total{status=%q}`, outcome)) {
			t.Errorf("exposition missing verify outcome %q", outcome)
		}
	}
	for _, want := range []string{
		"queryvis_quarantine_entries 0",
		"queryvis_quarantine_bytes 0",
		`queryvis_http_requests_total{code="200",route="/v1/diagram"} 1`,
		`queryvis_verify_total{status="verified"} 1`,
		`queryvis_stage_duration_seconds_count{stage="parse"} 1`,
		`queryvis_stage_spans_total{stage="parse"} 1`,
		`queryvis_hop_duration_seconds_count{hop="instance"} 1`,
		`queryvis_hop_duration_seconds_count{hop="dispatch"} 0`,
		`queryvis_hop_duration_seconds_count{hop="worker"} 0`,
		"queryvis_traces_total 1",
		"queryvis_trace_ring_entries 1",
		"queryvis_http_served_total 1",
		"queryvis_http_in_flight 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestMetricsDisabled: DisableTelemetry removes /v1/metrics and the
// per-request instrumentation, but healthz keeps its load numbers.
func TestMetricsDisabled(t *testing.T) {
	ts, reg := newMetricsServer(t, Config{DisableTelemetry: true})
	st, _ := post(t, ts.Client(), ts.URL+"/v1/diagram",
		diagramRequest{SQL: corpus.Fig1UniqueSet, Schema: "beers"}, nil)
	if st != http.StatusOK {
		t.Fatalf("diagram status = %d, want 200", st)
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/metrics status = %d, want 404 when telemetry is disabled", resp.StatusCode)
	}
	if got := reg.Value(mRequests, "route", "/v1/diagram", "code", "200"); got != 0 {
		t.Fatalf("route counter = %v with telemetry disabled, want 0", got)
	}

	hz, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	var h healthzResponse
	if err := json.NewDecoder(hz.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Served != 1 || h.Status != "ok" {
		t.Fatalf("healthz = %+v, want served=1 with telemetry disabled", h)
	}
}

// TestRequestIDEcho: a generated ID comes back on X-Request-ID; a
// caller-supplied one is propagated verbatim.
func TestRequestIDEcho(t *testing.T) {
	ts, _ := newMetricsServer(t, Config{})
	_, hdr, _ := postFull(t, ts.Client(), ts.URL+"/v1/diagram",
		diagramReq(corpus.Fig1UniqueSet, "off"), nil)
	if id := hdr.Get("X-Request-ID"); len(id) != 16 {
		t.Fatalf("generated X-Request-ID = %q, want 16 hex chars", id)
	}
	_, hdr, _ = postFull(t, ts.Client(), ts.URL+"/v1/diagram",
		diagramReq(corpus.Fig1UniqueSet, "off"),
		map[string]string{"X-Request-ID": "caller-chosen-id"})
	if id := hdr.Get("X-Request-ID"); id != "caller-chosen-id" {
		t.Fatalf("echoed X-Request-ID = %q, want caller's", id)
	}
}

// TestHealthzMatchesMetrics cross-checks the two endpoints after mixed
// traffic: the same registry backs both, so every shared number must
// agree exactly.
func TestHealthzMatchesMetrics(t *testing.T) {
	ts, reg := newMetricsServer(t, Config{})
	for i := 0; i < 3; i++ {
		postFull(t, ts.Client(), ts.URL+"/v1/diagram", diagramReq(corpus.Fig1UniqueSet, "off"), nil)
	}
	post(t, ts.Client(), ts.URL+"/v1/diagram", diagramRequest{SQL: "SELEKT", Schema: "beers"}, nil)

	resp, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if got := reg.Value(mServed); float64(h.Served) != got {
		t.Errorf("healthz served = %d, registry = %v", h.Served, got)
	}
	if got := reg.Value(mShed); float64(h.Shed) != got {
		t.Errorf("healthz shed = %d, registry = %v", h.Shed, got)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer: the request logger
// writes from server goroutines while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSlowQueryLog: a request over the threshold produces one WARN line
// with the scrubbed SQL — string literals must not survive into logs.
func TestSlowQueryLog(t *testing.T) {
	var buf syncBuffer
	log := slog.New(slog.NewTextHandler(&buf, nil))
	seed := findSeed(t, func(p *faults.Plan) bool {
		f := p.Faults[faults.StageParse]
		return f.Action == faults.ActDelay && f.Delay >= 20*time.Millisecond
	})
	ts, reg := newMetricsServer(t, Config{
		Logger:             log,
		SlowQueryThreshold: time.Millisecond,
	})
	sql := `SELECT L.drinker FROM Likes L WHERE L.beer = 'SecretBrew'`
	post(t, ts.Client(), ts.URL+"/v1/diagram", diagramRequest{SQL: sql, Schema: "beers"},
		map[string]string{"X-Fault-Seed": fmt.Sprint(seed)})

	out := buf.String()
	if !strings.Contains(out, "slow query") {
		t.Fatalf("no slow-query line in log:\n%s", out)
	}
	if strings.Contains(out, "SecretBrew") {
		t.Fatalf("string literal leaked into the slow-query log:\n%s", out)
	}
	if !strings.Contains(out, "'s1'") {
		t.Fatalf("scrubbed SQL missing from the slow-query log:\n%s", out)
	}
	if got := reg.Value(mSlowQueries); got != 1 {
		t.Fatalf("slow_queries_total = %v, want 1", got)
	}
}

// TestRequestLogLineFormat: the per-request log line, written with typed
// attributes, reads exactly as the same values logged through the
// key-value form, in both the text and the JSON handler, for a served
// request and for a categorized error.
func TestRequestLogLineFormat(t *testing.T) {
	noTime := &slog.HandlerOptions{ReplaceAttr: func(_ []string, a slog.Attr) slog.Attr {
		if a.Key == slog.TimeKey {
			return slog.Attr{}
		}
		return a
	}}
	for _, mk := range []func(io.Writer) slog.Handler{
		func(w io.Writer) slog.Handler { return slog.NewTextHandler(w, noTime) },
		func(w io.Writer) slog.Handler { return slog.NewJSONHandler(w, noTime) },
	} {
		for _, c := range []struct {
			req      diagramRequest
			category bool
		}{
			{diagramRequest{SQL: corpus.Fig3QSome, Schema: "beers"}, false},
			{diagramRequest{Schema: "beers"}, true},
		} {
			body, err := json.Marshal(c.req)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			srv := New(Config{Logger: slog.New(mk(&got))})
			req := httptest.NewRequest(http.MethodPost, "/v1/diagram", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			srv.ServeHTTP(httptest.NewRecorder(), req)

			var rec struct {
				RequestID string `json:"request_id"`
				TraceID   string `json:"trace_id"`
				Route     string `json:"route"`
				Code      int    `json:"code"`
				ElapsedMS int64  `json:"elapsed_ms"`
				Category  string `json:"category"`
			}
			line := strings.TrimSpace(got.String())
			if strings.HasPrefix(line, "{") {
				if err := json.Unmarshal([]byte(line), &rec); err != nil {
					t.Fatalf("decode %q: %v", line, err)
				}
			} else {
				for _, f := range strings.Fields(line) {
					k, v, _ := strings.Cut(f, "=")
					switch k {
					case "request_id":
						rec.RequestID = v
					case "trace_id":
						rec.TraceID = v
					case "route":
						rec.Route = v
					case "code":
						fmt.Sscan(v, &rec.Code)
					case "elapsed_ms":
						fmt.Sscan(v, &rec.ElapsedMS)
					case "category":
						rec.Category = v
					}
				}
			}
			args := []any{
				"request_id", rec.RequestID,
				"trace_id", rec.TraceID,
				"route", rec.Route,
				"code", rec.Code,
				"elapsed_ms", rec.ElapsedMS,
			}
			if (rec.Category != "") != c.category {
				t.Fatalf("category %q in %q, want one: %t", rec.Category, got.String(), c.category)
			}
			if rec.Category != "" {
				args = append(args, "category", rec.Category)
			}
			var want bytes.Buffer
			slog.New(mk(&want)).Info("request", args...)
			if got.String() != want.String() {
				t.Fatalf("request log line:\ngot  %swant %s", got.String(), want.String())
			}
		}
	}
}
