package server

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	queryvis "repro"
	"repro/internal/corpus"
	"repro/internal/diagcache"
	"repro/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// fig1Isomorph rewrites the Fig. 1 alias names L1..L6 to a fresh set:
// syntactically distinct SQL with the identical logical pattern (the
// §1.1 equivalence), which the cache must treat as another request.
func fig1Isomorph(tag string) string {
	sql := corpus.Fig1UniqueSet
	for i := 6; i >= 1; i-- { // longest first so L1 never clobbers L1x
		sql = strings.ReplaceAll(sql,
			fmt.Sprintf("L%d", i), fmt.Sprintf("Z%d%s", i, tag))
	}
	return sql
}

// decodeDiagram unmarshals a diagram response and zeroes the one field
// that legitimately differs between otherwise identical responses.
func decodeDiagram(t *testing.T, raw []byte) diagramResponse {
	t.Helper()
	var dr diagramResponse
	if err := json.Unmarshal(raw, &dr); err != nil {
		t.Fatalf("decode diagram response: %v\n%s", err, raw)
	}
	dr.ElapsedMS = 0
	return dr
}

func getHealthz(t *testing.T, ts *httptest.Server) healthzResponse {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	return hz
}

// TestCacheColdWarmOverHTTP: the first request misses and builds, the
// second is a byte-identical hit. An isomorphic spelling is another
// request: it builds once and then hits, its answer equal to an
// uncached server's.
func TestCacheColdWarmOverHTTP(t *testing.T) {
	reg := telemetry.NewRegistry()
	ts := newTestServer(t, Config{
		CacheEntries:  128,
		DefaultVerify: queryvis.VerifyDegrade,
		Metrics:       reg,
	})
	url := ts.URL + "/v1/diagram"

	st, hdr, raw := postFull(t, ts.Client(), url, diagramReq(corpus.Fig1UniqueSet, ""), nil)
	if st != http.StatusOK {
		t.Fatalf("cold status = %d\n%s", st, raw)
	}
	if got := hdr.Get(headerCache); got != "miss" {
		t.Fatalf("cold cache header = %q, want miss", got)
	}
	if got := hdr.Get("X-QueryVis-Verify-Status"); got != queryvis.VerifyStatusVerified {
		t.Fatalf("cold verify header = %q, want verified", got)
	}
	if got := hdr.Get("X-Queryvis-Pattern"); got != "" {
		t.Fatalf("cold response carries a pattern header %q", got)
	}
	cold := decodeDiagram(t, raw)
	if cold.Diagram == "" || cold.VerifyStatus != queryvis.VerifyStatusVerified {
		t.Fatalf("cold body = %+v", cold)
	}

	st, hdr, raw = postFull(t, ts.Client(), url, diagramReq(corpus.Fig1UniqueSet, ""), nil)
	if st != http.StatusOK || hdr.Get(headerCache) != "hit" {
		t.Fatalf("warm: status %d cache %q, want 200/hit", st, hdr.Get(headerCache))
	}
	if warm := decodeDiagram(t, raw); !reflect.DeepEqual(warm, cold) {
		t.Fatalf("warm hit is not byte-identical to the cold build:\ncold %+v\nwarm %+v", cold, warm)
	}

	// A pattern-isomorphic spelling misses, then hits its own entry; both
	// answers equal an uncached server's.
	plain := newTestServer(t, Config{DefaultVerify: queryvis.VerifyDegrade})
	_, _, rawPlain := postFull(t, plain.Client(), plain.URL+"/v1/diagram", diagramReq(fig1Isomorph("x"), ""), nil)
	want := decodeDiagram(t, rawPlain)
	for _, wantCache := range []string{"miss", "hit"} {
		st, hdr, raw = postFull(t, ts.Client(), url, diagramReq(fig1Isomorph("x"), ""), nil)
		if st != http.StatusOK || hdr.Get(headerCache) != wantCache {
			t.Fatalf("isomorph: status %d cache %q, want 200/%s", st, hdr.Get(headerCache), wantCache)
		}
		if iso := decodeDiagram(t, raw); !reflect.DeepEqual(iso, want) {
			t.Fatalf("isomorph %s differs from the uncached answer:\n%+v", wantCache, iso)
		}
	}

	if n := reg.Value(diagcache.MetricBuilds); n != 2 {
		t.Fatalf("builds_total = %v for two texts asked twice each, want 2", n)
	}
	if n := reg.Value(diagcache.MetricRequests, "outcome", "miss"); n != 2 {
		t.Fatalf("miss count = %v, want 2", n)
	}
	if hits := reg.Value(diagcache.MetricRequests, "outcome", "hit"); hits != 2 {
		t.Fatalf("hit count = %v, want 2", hits)
	}

	hz := getHealthz(t, ts)
	if hz.Cache == nil {
		t.Fatal("healthz has no cache section with caching enabled")
	}
	if hz.Cache.Entries != 2 || hz.Cache.Builds != 2 || hz.Cache.Hits != 2 || hz.Cache.Misses != 2 {
		t.Fatalf("healthz cache = %+v", hz.Cache)
	}
}

// TestCacheDisabledNoHeader: with caching off the wire shape is the
// historical one — no cache header, no healthz section.
func TestCacheDisabledNoHeader(t *testing.T) {
	ts := newTestServer(t, Config{DefaultVerify: queryvis.VerifyDegrade})

	st, hdr, raw := postFull(t, ts.Client(), ts.URL+"/v1/diagram",
		diagramReq(corpus.Fig3QSome, ""), nil)
	if st != http.StatusOK {
		t.Fatalf("status = %d\n%s", st, raw)
	}
	if got := hdr.Get(headerCache); got != "" {
		t.Fatalf("cache header = %q with caching disabled", got)
	}
	if hz := getHealthz(t, ts); hz.Cache != nil {
		t.Fatalf("healthz cache = %+v with caching disabled", hz.Cache)
	}
}

// TestCacheVerifyOffUpgrade: an entry cached by a verify-off request is
// not acceptable to a degrade request — that one rebuilds with proof and
// replaces the entry, after which both request classes hit it. The
// verify-off wire shape (no verify_status) survives hits of the proven
// entry.
func TestCacheVerifyOffUpgrade(t *testing.T) {
	ts := newTestServer(t, Config{CacheEntries: 16})
	url := ts.URL + "/v1/diagram"

	post := func(verify, wantCache string) (http.Header, []byte) {
		t.Helper()
		st, hdr, raw := postFull(t, ts.Client(), url, diagramReq(corpus.Fig3QOnly, verify), nil)
		if st != http.StatusOK {
			t.Fatalf("verify=%q status = %d\n%s", verify, st, raw)
		}
		if got := hdr.Get(headerCache); got != wantCache {
			t.Fatalf("verify=%q cache header = %q, want %q", verify, got, wantCache)
		}
		return hdr, raw
	}

	// Default mode is off: the entry is cached unproven.
	_, raw := post("", "miss")
	if strings.Contains(string(raw), "verify_status") {
		t.Fatalf("verify=off response leaked a status:\n%s", raw)
	}
	post("", "hit")

	// A degrade request must not accept the unproven entry.
	hdr, raw := post("degrade", "miss")
	if hdr.Get("X-QueryVis-Verify-Status") != queryvis.VerifyStatusVerified {
		t.Fatalf("degrade rebuild verify header = %q", hdr.Get("X-QueryVis-Verify-Status"))
	}
	if dr := decodeDiagram(t, raw); dr.VerifyStatus != queryvis.VerifyStatusVerified {
		t.Fatalf("degrade rebuild verify_status = %q", dr.VerifyStatus)
	}

	// The verified replacement serves both classes of request.
	post("degrade", "hit")
	_, raw = post("off", "hit")
	if strings.Contains(string(raw), "verify_status") {
		t.Fatalf("verify=off hit of a proven entry leaked the status:\n%s", raw)
	}
}

// TestCacheMetricsGolden pins the Prometheus exposition of the cache
// metric families after a deterministic traffic script: one miss, two
// hits, one uncacheable parse failure, one fault-seeded bypass. Only
// the byte gauge (render sizes) is normalized.
func TestCacheMetricsGolden(t *testing.T) {
	reg := telemetry.NewRegistry()
	ts := newTestServer(t, Config{
		CacheEntries:  32,
		DefaultVerify: queryvis.VerifyDegrade,
		Metrics:       reg,
	})
	url := ts.URL + "/v1/diagram"

	for _, step := range []struct {
		sql  string
		hdr  map[string]string
		want int
	}{
		{corpus.Fig1UniqueSet, nil, http.StatusOK},                    // miss
		{corpus.Fig1UniqueSet, nil, http.StatusOK},                    // hit
		{corpus.Fig1UniqueSet, nil, http.StatusOK},                    // hit
		{"SELECT FROM WHERE", nil, http.StatusUnprocessableEntity},    // uncacheable
		{corpus.Fig3QSome, map[string]string{"X-Fault-Seed": "4"}, 0}, // bypass (status seed-dependent)
	} {
		st, _, raw := postFull(t, ts.Client(), url, diagramReq(step.sql, ""), step.hdr)
		if step.want != 0 && st != step.want {
			t.Fatalf("step %q: status = %d, want %d\n%s", step.sql, st, step.want, raw)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exposition, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	var lines []string
	bytesRe := regexp.MustCompile(`^queryvis_cache_bytes \d+(\.\d+)?(e\+\d+)?$`)
	for _, line := range strings.Split(string(exposition), "\n") {
		if !strings.Contains(line, "queryvis_cache_") {
			continue
		}
		if bytesRe.MatchString(line) {
			line = "queryvis_cache_bytes <BYTES>"
		}
		lines = append(lines, line)
	}
	got := strings.Join(lines, "\n") + "\n"

	golden := filepath.Join("testdata", "cache_metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("cache metrics exposition drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
