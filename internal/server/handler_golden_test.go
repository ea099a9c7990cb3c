package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/oracle"
	"repro/internal/schema"
	"repro/internal/sqlparse"
)

// handlerGoldenRequests is how many seeded requests the handler digest
// list covers.
const handlerGoldenRequests = 200

// elapsedField matches the one response field that legitimately differs
// between runs of the same request.
var elapsedField = regexp.MustCompile(`"elapsed_ms":[0-9]+`)

// handlerDigests serves handlerGoldenRequests seeded oracle queries
// (every built-in schema, verify=degrade, the format rotating over dot,
// svg and text, simplify alternating) through srv's in-process handler
// and returns one line per request: status, the verify and degraded
// headers, and the SHA-256 of the body with elapsed_ms zeroed.
func handlerDigests(t *testing.T, srv *Server) string {
	t.Helper()
	return handlerDigestsChecked(t, srv, nil)
}

// handlerDigestsChecked is handlerDigests with check called on each
// response's headers, by request index, when non-nil.
func handlerDigestsChecked(t *testing.T, srv *Server, check func(i int, h http.Header)) string {
	t.Helper()
	cfg := oracle.DefaultConfig()
	schemas := map[string]*schema.Schema{}
	for _, name := range cfg.Schemas {
		s, ok := schema.ByName(name)
		if !ok {
			t.Fatalf("unknown schema %q", name)
		}
		schemas[name] = s
	}
	formats := []string{"dot", "svg", "text"}
	var b strings.Builder
	master := rand.New(rand.NewSource(13))
	for i := 0; i < handlerGoldenRequests; i++ {
		rng := rand.New(rand.NewSource(master.Int63()))
		name := cfg.Schemas[rng.Intn(len(cfg.Schemas))]
		req := diagramRequest{
			SQL:      sqlparse.Format(oracle.Generate(rng, schemas[name], cfg)),
			Schema:   name,
			Simplify: i%2 == 1,
			Format:   formats[i%len(formats)],
			Verify:   "degrade",
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		r := httptest.NewRequest(http.MethodPost, "/v1/diagram", bytes.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, r)
		if check != nil {
			check(i, w.Header())
		}
		out := elapsedField.ReplaceAll(w.Body.Bytes(), []byte(`"elapsed_ms":0`))
		fmt.Fprintf(&b, "%03d %s format=%s simplify=%t code=%d verify=%q degraded=%q body=%x\n",
			i, name, req.Format, req.Simplify, w.Code,
			w.Header().Get("X-QueryVis-Verify-Status"), w.Header().Get("X-QueryVis-Degraded"),
			sha256.Sum256(out))
	}
	return b.String()
}

// TestHandlerDigestsGolden pins the exact /v1/diagram bytes and verify
// headers over a seeded request mix, so an optimisation anywhere in
// parse, resolve, build, reading, verify or render must reproduce its
// predecessor's responses byte for byte. Regenerate with go test -run
// TestHandlerDigestsGolden -update only for an intended output change.
func TestHandlerDigestsGolden(t *testing.T) {
	got := handlerDigests(t, New(Config{}))
	if *updateGolden {
		if err := os.WriteFile(handlerGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	assertHandlerGolden(t, "uncached", got)
}

// TestHandlerDigestsCacheColdWarm serves the same request list twice
// through one cache-on server: the cold pass and the warm pass must
// both reproduce the uncached golden, so the cache never answers one
// request with another's bytes.
func TestHandlerDigestsCacheColdWarm(t *testing.T) {
	srv := New(Config{CacheEntries: 4096})
	assertHandlerGolden(t, "cold", handlerDigests(t, srv))
	assertHandlerGolden(t, "warm", handlerDigests(t, srv))
	if st := srv.cache.Stats(); st.Hits < handlerGoldenRequests {
		t.Fatalf("warm pass hit %d times, want every one of %d requests", st.Hits, handlerGoldenRequests)
	}
}

var handlerGoldenPath = filepath.Join("testdata", "handler_sha256.golden")

// assertHandlerGolden fails the test at the first line where one pass's
// digests differ from the golden file.
func assertHandlerGolden(t *testing.T, pass, got string) {
	t.Helper()
	path := handlerGoldenPath
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -update to create golden files)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s pass: %s line %d differs:\ngot  %s\nwant %s", pass, path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s pass: %s: got %d lines, want %d", pass, path, len(gl), len(wl))
}
