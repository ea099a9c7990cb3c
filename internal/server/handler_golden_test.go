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
	"time"

	"repro/internal/oracle"
	"repro/internal/schema"
	"repro/internal/sqlparse"
	"repro/internal/workerpool"
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
	var b strings.Builder
	for i, req := range handlerRequests(t) {
		w := serveJSON(t, srv, "/v1/diagram", req)
		if check != nil {
			check(i, w.Header())
		}
		out := elapsedField.ReplaceAll(w.Body.Bytes(), []byte(`"elapsed_ms":0`))
		fmt.Fprintf(&b, "%03d %s format=%s simplify=%t code=%d verify=%q degraded=%q body=%x\n",
			i, req.Schema, req.Format, req.Simplify, w.Code,
			w.Header().Get("X-QueryVis-Verify-Status"), w.Header().Get("X-QueryVis-Degraded"),
			sha256.Sum256(out))
	}
	return b.String()
}

// handlerRequests is handlerDigests' request mix: handlerGoldenRequests
// seeded oracle queries over every built-in schema, verify=degrade, the
// format rotating over dot, svg and text, simplify alternating.
func handlerRequests(t *testing.T) []diagramRequest {
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
	reqs := make([]diagramRequest, handlerGoldenRequests)
	master := rand.New(rand.NewSource(13))
	for i := range reqs {
		rng := rand.New(rand.NewSource(master.Int63()))
		name := cfg.Schemas[rng.Intn(len(cfg.Schemas))]
		reqs[i] = diagramRequest{
			SQL:      sqlparse.Format(oracle.Generate(rng, schemas[name], cfg)),
			Schema:   name,
			Simplify: i%2 == 1,
			Format:   formats[i%len(formats)],
			Verify:   "degrade",
		}
	}
	return reqs
}

// serveJSON posts v as JSON to path on srv's in-process handler.
func serveJSON(t *testing.T, srv http.Handler, path string, v any) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	r.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, r)
	return w
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

// TestBatchParityColdWarm serves handlerDigests' request mix as
// /v1/diagrams:batch items through a cache-on server, cold then warm,
// in-process and under process isolation. Each item must carry the
// /v1/diagram answer to the same request: the same status, a result
// byte-identical to the single body with elapsed_ms zeroed, verify_status
// and degraded equal to the single response's headers, and the cache
// disposition "miss" cold and "hit" warm.
func TestBatchParityColdWarm(t *testing.T) {
	t.Run("in-process", func(t *testing.T) { batchParity(t, nil) })
	t.Run("process", func(t *testing.T) {
		if testing.Short() {
			t.Skip("spawns worker processes")
		}
		batchParity(t, newTestPool(t, workerpool.Config{Workers: 2}))
	})
}

func batchParity(t *testing.T, pool *workerpool.Pool) {
	reqs := handlerRequests(t)
	single := New(Config{})
	want := make([]*httptest.ResponseRecorder, len(reqs))
	for i, req := range reqs {
		want[i] = serveJSON(t, single, "/v1/diagram", req)
	}
	// A generous batch deadline: a cold batch builds every item in turn.
	srv := New(Config{CacheEntries: 4096, Pool: pool, RequestTimeout: time.Minute})
	const chunk = 50 // under the default 64-item cap
	for _, pass := range []string{"miss", "hit"} {
		for lo := 0; lo < len(reqs); lo += chunk {
			hi := min(lo+chunk, len(reqs))
			breq := batchRequest{}
			for _, req := range reqs[lo:hi] {
				simplify := req.Simplify
				breq.Items = append(breq.Items, batchItem{SQL: req.SQL, Schema: req.Schema,
					Simplify: &simplify, Format: req.Format, Verify: req.Verify})
			}
			w := serveJSON(t, srv, "/v1/diagrams:batch", breq)
			var br batchResponse
			if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &br) != nil || len(br.Items) != hi-lo {
				t.Fatalf("%s batch [%d,%d): status %d\n%s", pass, lo, hi, w.Code, w.Body.Bytes())
			}
			for k, it := range br.Items {
				assertItemParity(t, pass, lo+k, it, want[lo+k])
			}
		}
	}
}

// assertItemParity checks one batch item against the single-endpoint
// response to the same request.
func assertItemParity(t *testing.T, pass string, i int, it batchItemResult, single *httptest.ResponseRecorder) {
	t.Helper()
	if it.Status != single.Code {
		t.Fatalf("%s item %d: status %d, single endpoint %d", pass, i, it.Status, single.Code)
	}
	if it.Status != http.StatusOK {
		var eb errorBody
		if err := json.Unmarshal(single.Body.Bytes(), &eb); err != nil || it.Error == nil || *it.Error != eb.Error {
			t.Fatalf("%s item %d: error %+v, single endpoint %s", pass, i, it.Error, single.Body.Bytes())
		}
		return
	}
	if it.Cache != pass {
		t.Fatalf("%s item %d: cache %q, want %q", pass, i, it.Cache, pass)
	}
	it.Result.ElapsedMS = 0
	got, err := json.Marshal(it.Result)
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.TrimSuffix(elapsedField.ReplaceAll(single.Body.Bytes(), []byte(`"elapsed_ms":0`)), []byte("\n"))
	if !bytes.Equal(got, body) {
		t.Fatalf("%s item %d: result differs from the single body:\nitem   %s\nsingle %s", pass, i, got, body)
	}
	if h := single.Header(); it.Result.VerifyStatus != h.Get("X-QueryVis-Verify-Status") ||
		it.Result.Degraded != h.Get("X-QueryVis-Degraded") {
		t.Fatalf("%s item %d: verify_status %q degraded %q, single headers %q %q", pass, i,
			it.Result.VerifyStatus, it.Result.Degraded,
			h.Get("X-QueryVis-Verify-Status"), h.Get("X-QueryVis-Degraded"))
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
