package server

import (
	"fmt"
	"net/http"
	"testing"

	queryvis "repro"
	"repro/internal/corpus"
	"repro/internal/diagcache"
	"repro/internal/faults"
	"repro/internal/quarantine"
	"repro/internal/telemetry"
)

// faultySeeds returns the first n seeds whose derived plan injects at
// least one pipeline fault, so the chaos sweeps below never waste a
// request on an accidentally healthy plan.
func faultySeeds(t *testing.T, n int) []int64 {
	t.Helper()
	var out []int64
	for seed := int64(1); len(out) < n && seed < 1_000_000; seed++ {
		if len(faults.NewPlan(seed).Faults) > 0 {
			out = append(out, seed)
		}
	}
	if len(out) < n {
		t.Fatalf("found only %d faulty seeds", len(out))
	}
	return out
}

// TestCachePoisonNeverInserted is the cache-adversarial core: requests
// running under injected fault plans — whatever they produce — must
// bypass the cache in both directions. After a storm of faulted
// requests the cache holds nothing, and the first clean request still
// has to build.
func TestCachePoisonNeverInserted(t *testing.T) {
	reg := telemetry.NewRegistry()
	ts := newTestServer(t, Config{
		CacheEntries:  64,
		DefaultVerify: queryvis.VerifyDegrade,
		Metrics:       reg,
	})
	url := ts.URL + "/v1/diagram"

	seeds := faultySeeds(t, 25)
	for _, seed := range seeds {
		_, hdr, _ := postFull(t, ts.Client(), url,
			diagramReq(corpus.Fig1UniqueSet, "degrade"),
			map[string]string{"X-Fault-Seed": fmt.Sprint(seed)})
		// Bypassed requests carry no cache disposition at all — "hit" here
		// would mean poisoned bytes were served, "miss" that the cache was
		// consulted under a fault plan.
		if got := hdr.Get(headerCache); got != "" {
			t.Fatalf("seed %d: cache header = %q, want none", seed, got)
		}
	}

	if n := reg.Value(diagcache.MetricInserts); n != 0 {
		t.Fatalf("inserts after %d faulted requests = %v, want 0", len(seeds), n)
	}
	if n := reg.Value(diagcache.MetricRequests, "outcome", "bypass"); n != float64(len(seeds)) {
		t.Fatalf("bypass count = %v, want %d", n, len(seeds))
	}
	if hz := getHealthz(t, ts); hz.Cache == nil || hz.Cache.Entries != 0 {
		t.Fatalf("healthz cache after fault storm = %+v, want empty", hz.Cache)
	}

	// Nothing was inserted, so the first clean request is a miss…
	st, hdr, raw := postFull(t, ts.Client(), url, diagramReq(corpus.Fig1UniqueSet, "degrade"), nil)
	if st != http.StatusOK || hdr.Get(headerCache) != "miss" {
		t.Fatalf("clean rebuild: status %d cache %q\n%s", st, hdr.Get(headerCache), raw)
	}
	// …and the hit that follows carries a real proof.
	st, hdr, _ = postFull(t, ts.Client(), url, diagramReq(corpus.Fig1UniqueSet, "degrade"), nil)
	if st != http.StatusOK || hdr.Get(headerCache) != "hit" {
		t.Fatalf("clean warm: status %d cache %q", st, hdr.Get(headerCache))
	}
	if got := hdr.Get("X-QueryVis-Verify-Status"); got != queryvis.VerifyStatusVerified {
		t.Fatalf("warm verify header = %q, want verified", got)
	}
}

// TestCacheHitsAlwaysVerified sweeps mixed clean and fault-seeded
// traffic and checks the blanket invariant on every single response:
// a cache hit always carries verify_status=verified, and a degraded
// response is never a cache hit.
func TestCacheHitsAlwaysVerified(t *testing.T) {
	ts := newTestServer(t, Config{
		CacheEntries:  64,
		DefaultVerify: queryvis.VerifyDegrade,
	})
	url := ts.URL + "/v1/diagram"

	queries := []string{
		corpus.Fig1UniqueSet,
		fig1Isomorph("a"),
		corpus.Fig3QSome,
		corpus.Fig3QOnly,
	}
	seeds := append([]int64{0, 0}, faultySeeds(t, 8)...) // 0 = clean request

	hits := 0
	for round := 0; round < 2; round++ {
		for _, sql := range queries {
			for _, seed := range seeds {
				var hdr map[string]string
				if seed != 0 {
					hdr = map[string]string{"X-Fault-Seed": fmt.Sprint(seed)}
				}
				st, h, raw := postFull(t, ts.Client(), url, diagramReq(sql, "degrade"), hdr)
				if h.Get(headerCache) == "hit" {
					hits++
					if st != http.StatusOK {
						t.Fatalf("cache hit with status %d\n%s", st, raw)
					}
					if got := h.Get("X-QueryVis-Verify-Status"); got != queryvis.VerifyStatusVerified {
						t.Fatalf("cache hit verify header = %q, want verified (seed %d, sql %.40q)", got, seed, sql)
					}
					if dr := decodeDiagram(t, raw); dr.VerifyStatus != queryvis.VerifyStatusVerified || dr.Degraded != "" {
						t.Fatalf("cache hit body verify_status=%q degraded=%q", dr.VerifyStatus, dr.Degraded)
					}
				}
				if h.Get("X-QueryVis-Degraded") != "" && h.Get(headerCache) == "hit" {
					t.Fatalf("degraded response served as a cache hit (seed %d)", seed)
				}
			}
		}
	}
	if hits == 0 {
		t.Fatal("sweep produced no cache hits; the invariant was never exercised")
	}
}

// TestCacheQuarantineRebuild: inputs that land in the quarantine corpus
// (an ambiguous diagram, a fault-seeded strict verification failure) never
// leave anything behind in the cache — the next clean request rebuilds
// rather than hits.
func TestCacheQuarantineRebuild(t *testing.T) {
	store, err := quarantine.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	ts := newTestServer(t, Config{
		CacheEntries:  64,
		DefaultVerify: queryvis.VerifyDegrade,
		Quarantine:    store,
		Metrics:       reg,
	})
	url := ts.URL + "/v1/diagram"

	// A degenerate query's diagram admits no tree: served degraded
	// (status ambiguous), quarantined, and uncacheable.
	for i := 0; i < 2; i++ {
		st, hdr, raw := postFull(t, ts.Client(), url, diagramReq(disconnectedSQL, "degrade"), nil)
		if st != http.StatusOK {
			t.Fatalf("degenerate status = %d\n%s", st, raw)
		}
		if got := hdr.Get(headerCache); got == "hit" {
			t.Fatalf("round %d: unproven result served from cache", i)
		}
		if dr := decodeDiagram(t, raw); dr.VerifyStatus != queryvis.VerifyStatusAmbiguous {
			t.Fatalf("round %d: verify_status = %q, want ambiguous", i, dr.VerifyStatus)
		}
	}

	// A fault-seeded strict request fails verification hard and is filed;
	// the fault plan also forces a full cache bypass.
	seed := verifyOnlySeed(t)
	st, hdr, raw := postFull(t, ts.Client(), url,
		diagramReq(corpus.Fig1UniqueSet, "strict"),
		map[string]string{"X-Fault-Seed": fmt.Sprint(seed)})
	if st != http.StatusInternalServerError {
		t.Fatalf("strict faulted status = %d\n%s", st, raw)
	}
	wantError(t, raw, CatVerifyFailed)
	if hdr.Get(headerCache) != "" {
		t.Fatalf("faulted request carries cache header %q", hdr.Get(headerCache))
	}

	stats, err := store.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Entries != 2 {
		t.Fatalf("quarantine entries = %d, want 2 (ambiguous + verify fault)", stats.Entries)
	}
	if n := reg.Value(diagcache.MetricInserts); n != 0 {
		t.Fatalf("quarantined traffic inserted %v cache entries", n)
	}

	// The quarantined pattern's next clean request rebuilds…
	st, hdr, _ = postFull(t, ts.Client(), url, diagramReq(corpus.Fig1UniqueSet, "degrade"), nil)
	if st != http.StatusOK || hdr.Get(headerCache) != "miss" {
		t.Fatalf("post-quarantine rebuild: status %d cache %q, want 200/miss", st, hdr.Get(headerCache))
	}
	// …and only a verified rebuild becomes a future hit.
	st, hdr, _ = postFull(t, ts.Client(), url, diagramReq(corpus.Fig1UniqueSet, "degrade"), nil)
	if st != http.StatusOK || hdr.Get(headerCache) != "hit" ||
		hdr.Get("X-QueryVis-Verify-Status") != queryvis.VerifyStatusVerified {
		t.Fatalf("post-quarantine warm: status %d cache %q verify %q",
			st, hdr.Get(headerCache), hdr.Get("X-QueryVis-Verify-Status"))
	}
}
