package main

import (
	"context"
	"io"
	"strings"
	"testing"

	queryvis "repro"
	"repro/internal/client"
	"repro/internal/corpus"
	"repro/internal/server"
)

// TestCacheSmoke is the CI cache check: boot the daemon with the same
// cache configuration the default flags produce, serve the Fig. 1 query
// twice, and require the second response to come from the cache with
// the proof intact — then confirm the hit is visible on the metrics
// surface. Last, App. G's "only" query on Sailors and then its
// pattern-isomorph on Students: the second answer must name Student,
// because the cache keys on the request, not the pattern. One
// end-to-end pass over flags → server → cache → telemetry.
func TestCacheSmoke(t *testing.T) {
	base := startDaemon(t, newHandler(server.Config{
		CacheEntries:  4096,
		CacheMaxBytes: 64 << 20,
		DefaultVerify: queryvis.VerifyDegrade,
	}, false))
	hc := client.New(client.Config{})
	ctx := context.Background()

	post := func(sql, schema string) (string, string, string) {
		t.Helper()
		resp, err := hc.PostJSON(ctx, base+"/v1/diagram",
			map[string]any{"sql": sql, "schema": schema})
		if err != nil {
			t.Fatalf("diagram: %v", err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("diagram status = %d\n%s", resp.StatusCode, raw)
		}
		return resp.Header.Get("X-QueryVis-Cache"),
			resp.Header.Get("X-QueryVis-Verify-Status"),
			string(raw)
	}

	if cache, _, _ := post(corpus.Fig1UniqueSet, "beers"); cache != "miss" {
		t.Fatalf("cold request cache header = %q, want miss", cache)
	}
	warmCache, warmVerify, warmBody := post(corpus.Fig1UniqueSet, "beers")
	if warmCache != "hit" {
		t.Fatalf("warm request cache header = %q, want hit", warmCache)
	}
	if warmVerify != queryvis.VerifyStatusVerified {
		t.Fatalf("warm request verify header = %q, want verified", warmVerify)
	}
	if !strings.Contains(warmBody, "digraph") {
		t.Fatalf("warm body is not a diagram: %.80q", warmBody)
	}

	mresp, err := hc.Get(ctx, base+"/v1/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer mresp.Body.Close()
	raw, _ := io.ReadAll(mresp.Body)
	exposition := string(raw)
	for _, want := range []string{
		`queryvis_cache_requests_total{outcome="hit"} 1`,
		`queryvis_cache_requests_total{outcome="miss"} 1`,
		`queryvis_cache_builds_total 1`,
		`queryvis_cache_entries 1`,
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}

	only := map[string]string{}
	for _, g := range corpus.AppendixG() {
		if g.Pattern == corpus.GOnly {
			only[g.Schema.Name] = g.SQL
		}
	}
	post(only["sailors"], "sailors")
	if _, _, body := post(only["students"], "students"); !strings.Contains(body, "Student") {
		t.Fatalf("App. G Students \"only\" query was answered with another diagram: %.200q", body)
	}
}
