package server

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	queryvis "repro"
	"repro/internal/corpus"
	"repro/internal/diagcache"
	"repro/internal/telemetry"
)

func postBatch(t *testing.T, url string, client *http.Client, body any) (int, batchResponse, []byte) {
	t.Helper()
	st, raw := post(t, client, url, body, nil)
	var br batchResponse
	if st == http.StatusOK {
		if err := json.Unmarshal(raw, &br); err != nil {
			t.Fatalf("decode batch response: %v\n%s", err, raw)
		}
	}
	return st, br, raw
}

// TestBatchMixedItems: one request mixing healthy, malformed, and
// invalid items. The envelope is 200, order is preserved, and every
// failure keeps its single-endpoint status and category.
func TestBatchMixedItems(t *testing.T) {
	reg := telemetry.NewRegistry()
	ts := newTestServer(t, Config{
		CacheEntries:  64,
		DefaultVerify: queryvis.VerifyDegrade,
		Metrics:       reg,
	})

	st, br, raw := postBatch(t, ts.URL+"/v1/diagrams:batch", ts.Client(), map[string]any{
		"schema": "beers",
		"items": []map[string]any{
			{"sql": corpus.Fig1UniqueSet},
			{"sql": "SELECT FROM WHERE ("},
			{"sql": "SELECT X.a FROM X", "schema": "no-such-schema"},
			{"sql": corpus.Fig1UniqueSet},
			{"sql": ""},
		},
	})
	if st != http.StatusOK {
		t.Fatalf("envelope status = %d\n%s", st, raw)
	}
	if len(br.Items) != 5 {
		t.Fatalf("items = %d, want 5", len(br.Items))
	}

	if it := br.Items[0]; it.Status != http.StatusOK || it.Result == nil || it.Error != nil || it.Cache != "miss" {
		t.Fatalf("item 0 = %+v, want 200/result/miss", it)
	}
	if it := br.Items[1]; it.Status != http.StatusUnprocessableEntity || it.Error == nil || it.Error.Category != CatParse {
		t.Fatalf("item 1 = %+v, want 422 parse", it)
	}
	if it := br.Items[2]; it.Status != http.StatusBadRequest || it.Error == nil || it.Error.Category != CatBadRequest {
		t.Fatalf("item 2 = %+v, want 400 bad_request", it)
	}
	// Item 3 repeats item 0: built once, served twice.
	if it := br.Items[3]; it.Status != http.StatusOK || it.Result == nil || it.Cache != "hit" {
		t.Fatalf("item 3 = %+v, want 200/hit", it)
	}
	if br.Items[3].Result.Diagram != br.Items[0].Result.Diagram {
		t.Fatal("identical items diverge within one batch")
	}
	if it := br.Items[4]; it.Status != http.StatusBadRequest || it.Error == nil || it.Error.Category != CatBadRequest {
		t.Fatalf("item 4 = %+v, want 400 bad_request", it)
	}

	// Two items reached the pipeline: Fig. 1 (built once, for items 0 and
	// 3) and the malformed SQL, whose build fails in the parser.
	if n := reg.Value(diagcache.MetricBuilds); n != 2 {
		t.Fatalf("builds_total = %v, want 2", n)
	}
}

// TestBatchDefaultsAndOverrides: top-level fields are per-item
// defaults; items override format, verify, and simplify independently.
// Differing simplify flags must not share cache entries.
func TestBatchDefaultsAndOverrides(t *testing.T) {
	ts := newTestServer(t, Config{CacheEntries: 64})

	st, br, raw := postBatch(t, ts.URL+"/v1/diagrams:batch", ts.Client(), map[string]any{
		"schema": "beers",
		"format": "text",
		"verify": "off",
		"items": []map[string]any{
			{"sql": corpus.Fig3QSome},
			{"sql": corpus.Fig3QSome, "format": "dot", "verify": "degrade"},
			{"sql": corpus.Fig1UniqueSet, "simplify": true},
			{"sql": corpus.Fig1UniqueSet, "simplify": false},
		},
	})
	if st != http.StatusOK {
		t.Fatalf("envelope status = %d\n%s", st, raw)
	}

	if it := br.Items[0]; it.Status != http.StatusOK || it.Result.Format != "text" || it.Result.VerifyStatus != "" {
		t.Fatalf("item 0 = %+v, want text format with the verify=off wire shape", it)
	}
	if it := br.Items[1]; it.Status != http.StatusOK || it.Result.Format != "dot" ||
		it.Result.VerifyStatus != queryvis.VerifyStatusVerified {
		t.Fatalf("item 1 = %+v, want dot format, verified", it)
	}
	// simplify=true and simplify=false key separately: the second Fig. 1
	// item must not be served the first one's simplified artifact.
	if it := br.Items[2]; it.Status != http.StatusOK || it.Cache != "miss" {
		t.Fatalf("item 2 = %+v, want 200/miss", it)
	}
	if it := br.Items[3]; it.Status != http.StatusOK || it.Cache != "miss" {
		t.Fatalf("item 3 = %+v, want 200/miss (distinct simplify key)", it)
	}
	if br.Items[2].Result.Diagram == br.Items[3].Result.Diagram {
		t.Fatal("simplified and unsimplified Fig. 1 rendered identically")
	}
}

// TestBatchEnvelopeValidation: empty and oversized batches fail as an
// envelope, not item by item.
func TestBatchEnvelopeValidation(t *testing.T) {
	ts := newTestServer(t, Config{MaxBatchItems: 3})
	url := ts.URL + "/v1/diagrams:batch"

	st, raw := post(t, ts.Client(), url, map[string]any{"schema": "beers", "items": []any{}}, nil)
	if st != http.StatusBadRequest {
		t.Fatalf("empty batch status = %d\n%s", st, raw)
	}
	wantError(t, raw, CatBadRequest)

	items := make([]map[string]any, 4)
	for i := range items {
		items[i] = map[string]any{"sql": corpus.Fig3QSome}
	}
	st, raw = post(t, ts.Client(), url, map[string]any{"schema": "beers", "items": items}, nil)
	if st != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch status = %d\n%s", st, raw)
	}
	wantError(t, raw, CatTooLarge)
}

// TestBatchDeadlineExhaustion: when the request deadline dies, every
// remaining item still reports a well-formed per-item 504 — the
// envelope never truncates.
func TestBatchDeadlineExhaustion(t *testing.T) {
	ts := newTestServer(t, Config{
		RequestTimeout: time.Nanosecond,
		DefaultVerify:  queryvis.VerifyDegrade,
	})

	st, br, raw := postBatch(t, ts.URL+"/v1/diagrams:batch", ts.Client(), map[string]any{
		"schema": "beers",
		"items": []map[string]any{
			{"sql": corpus.Fig3QSome},
			{"sql": corpus.Fig3QOnly},
			{"sql": corpus.Fig1UniqueSet},
		},
	})
	if st != http.StatusOK {
		t.Fatalf("envelope status = %d, want 200 even under an expired deadline\n%s", st, raw)
	}
	if len(br.Items) != 3 {
		t.Fatalf("items = %d, want all 3 present", len(br.Items))
	}
	for i, it := range br.Items {
		if it.Status != http.StatusGatewayTimeout || it.Error == nil || it.Error.Category != CatTimeout {
			t.Fatalf("item %d = %+v, want a well-formed 504 timeout", i, it)
		}
		if it.Result != nil {
			t.Fatalf("item %d carries a result alongside its timeout", i)
		}
	}
}

// TestBatchCacheAmortization: a batch of four identical items runs the
// pipeline once; every later item is served from cache with the proof
// intact.
func TestBatchCacheAmortization(t *testing.T) {
	reg := telemetry.NewRegistry()
	ts := newTestServer(t, Config{
		CacheEntries:  64,
		DefaultVerify: queryvis.VerifyDegrade,
		Metrics:       reg,
	})

	st, br, raw := postBatch(t, ts.URL+"/v1/diagrams:batch", ts.Client(), map[string]any{
		"schema": "beers",
		"items": []map[string]any{
			{"sql": corpus.Fig1UniqueSet},
			{"sql": corpus.Fig1UniqueSet},
			{"sql": corpus.Fig1UniqueSet},
			{"sql": corpus.Fig1UniqueSet},
		},
	})
	if st != http.StatusOK {
		t.Fatalf("envelope status = %d\n%s", st, raw)
	}
	for i, it := range br.Items {
		if it.Status != http.StatusOK || it.Result == nil {
			t.Fatalf("item %d = %+v", i, it)
		}
		wantCache := "hit"
		if i == 0 {
			wantCache = "miss"
		}
		if it.Cache != wantCache {
			t.Fatalf("item %d cache = %q, want %q", i, it.Cache, wantCache)
		}
		if it.Result.VerifyStatus != queryvis.VerifyStatusVerified {
			t.Fatalf("item %d verify_status = %q", i, it.Result.VerifyStatus)
		}
		if it.Result.Diagram != br.Items[0].Result.Diagram {
			t.Fatalf("item %d bytes diverge from the first item's build", i)
		}
	}
	if n := reg.Value(diagcache.MetricBuilds); n != 1 {
		t.Fatalf("builds_total = %v for four identical items, want 1", n)
	}
}
