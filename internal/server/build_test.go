package server

import (
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	queryvis "repro"
	"repro/internal/corpus"
	"repro/internal/workerpool"
)

// buildOf is the X-Queryvis-Build value a server built from cfg sends.
func buildOf(cfg Config) string {
	rec := httptest.NewRecorder()
	New(cfg).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	return rec.Header().Get(headerBuild)
}

// sendFor issues one request and returns its status and build header.
func sendFor(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get(headerBuild)
}

// TestEveryResponseCarriesBuild: X-Queryvis-Build is on every response,
// errors and healthz included, and it moves with the configuration
// that decides a response's bytes.
func TestEveryResponseCarriesBuild(t *testing.T) {
	ts := newTestServer(t, Config{CacheEntries: 16})
	want := buildOf(Config{CacheEntries: 16})
	if len(want) != 16 {
		t.Fatalf("build identity %q, want 16 hex digits", want)
	}
	fig1 := `{"sql":` + jsonString(corpus.Fig1UniqueSet) + `,"schema":"beers"}`
	for _, c := range []struct{ method, path, body string }{
		{http.MethodGet, "/v1/healthz", ""},
		{http.MethodGet, "/v1/metrics", ""},
		{http.MethodGet, "/v1/traces", ""},
		{http.MethodPost, "/v1/diagram", fig1},
		{http.MethodPost, "/v1/diagram", fig1}, // a cache hit
		{http.MethodPost, "/v1/interpret", fig1},
		{http.MethodPost, "/v1/diagrams:batch", `{"schema":"beers","items":[{"sql":` + jsonString(corpus.Fig1UniqueSet) + `}]}`},
		{http.MethodPost, "/v1/diagram", `{"sql": "SELECT`},
		{http.MethodGet, "/v1/diagram", ""},
		{http.MethodGet, "/no/such/route", ""},
	} {
		if st, got := sendFor(t, c.method, ts.URL+c.path, c.body); got != want {
			t.Errorf("%s %s (status %d): build %q, want %q", c.method, c.path, st, got, want)
		}
	}

	// Settings that cannot change a response's bytes keep the identity;
	// the limits and the default verify mode change it.
	if got := buildOf(Config{CacheEntries: 512, MaxConcurrent: 3}); got != want {
		t.Errorf("cache size and concurrency moved the identity: %q, want %q", got, want)
	}
	tight := queryvis.DefaultLimits()
	tight.MaxPredicates = 3
	for name, cfg := range map[string]Config{
		"limits":  {Limits: tight},
		"verify":  {DefaultVerify: queryvis.VerifyStrict},
		"no caps": {Unlimited: true},
	} {
		if got := buildOf(cfg); got == want {
			t.Errorf("%s: identity unchanged at %q", name, got)
		}
	}
}

// TestExecutableBuildIDMatchesGoTool: the build ID read from the ELF
// note is the one the go command reports for the same file.
func TestExecutableBuildIDMatchesGoTool(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command("go", "tool", "buildid", exe).Output()
	if err != nil {
		t.Skipf("go tool buildid unavailable: %v", err)
	}
	if got, want := executableBuildID(), strings.TrimSpace(string(out)); got != want {
		t.Fatalf("executableBuildID() = %q, want %q", got, want)
	}
}

// TestFileBuildIDFallback: an executable without a Go note is
// identified by its contents, so two different binaries never share an
// identity, and an unreadable one by nothing.
func TestFileBuildIDFallback(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// The tail differs past the 32 KiB head the note is searched in.
	head := strings.Repeat("x", 40<<10)
	a, b, a2 := write("a", head+"old"), write("b", head+"new"), write("a2", head+"old")
	if fileBuildID(a) == fileBuildID(b) {
		t.Fatal("two binaries differing only past the head share an identity")
	}
	if id := fileBuildID(a); id != fileBuildID(a2) || !strings.HasPrefix(id, "sha256:") {
		t.Fatalf("identical contents: %q and %q, want one content hash", id, fileBuildID(a2))
	}
	if id := fileBuildID(filepath.Join(dir, "missing")); id != "" {
		t.Fatalf("unreadable binary identified as %q, want none", id)
	}
}

// TestUnknownBinarySendsNoBuild: a server that cannot identify its
// binary sends no X-Queryvis-Build at all, so a router ignores it
// rather than trusting an identity another build could share.
func TestUnknownBinarySendsNoBuild(t *testing.T) {
	saved := executableBuildID
	executableBuildID = func() string { return "" }
	defer func() { executableBuildID = saved }()
	rec := httptest.NewRecorder()
	New(Config{}).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if vs, ok := rec.Header()[headerBuild]; ok || rec.Code != http.StatusOK {
		t.Fatalf("status %d build header %q, want 200 with no header", rec.Code, vs)
	}
}

// TestWorkerBuildDoesNotOverrideParent: under process isolation a reply
// whose pipeline ran in a worker carries the parent's identity, which is
// the one the router sees in probes, not the one a server configured
// like the worker would send.
func TestWorkerBuildDoesNotOverrideParent(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	pool := newTestPool(t, workerpool.Config{Workers: 1})
	parentCfg := Config{DefaultVerify: queryvis.VerifyDegrade}
	worker, parent := buildOf(Config{DisableTelemetry: true}), buildOf(parentCfg)
	if worker == parent {
		t.Fatal("the test worker and the parent share an identity; the test proves nothing")
	}
	parentCfg.Pool = pool
	ts := newPoolTestServer(t, parentCfg)
	fig1 := `{"sql":` + jsonString(corpus.Fig1UniqueSet) + `,"schema":"beers"}`
	for _, path := range []string{"/v1/interpret", "/v1/diagram"} {
		st, got := sendFor(t, http.MethodPost, ts.URL+path, fig1)
		if st != http.StatusOK || got != parent {
			t.Errorf("%s: status %d build %q, want 200 with the parent's %q (worker's is %q)",
				path, st, got, parent, worker)
		}
	}
}
