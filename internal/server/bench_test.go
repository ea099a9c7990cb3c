package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
)

// benchEndpoint hammers /v1/diagram with body from 8 parallel workers
// and reports throughput plus p50/p99 request latency.
func benchEndpoint(b *testing.B, ts *httptest.Server, body []byte) {
	b.Helper()
	const workers = 8
	var (
		mu        sync.Mutex
		latencies []time.Duration
	)
	b.ResetTimer()
	start := time.Now()
	b.SetParallelism(workers)
	b.RunParallel(func(pb *testing.PB) {
		client := ts.Client()
		var local []time.Duration
		for pb.Next() {
			t0 := time.Now()
			resp, err := client.Post(ts.URL+"/v1/diagram", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Error(err)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status = %d", resp.StatusCode)
				return
			}
			local = append(local, time.Since(t0))
		}
		mu.Lock()
		latencies = append(latencies, local...)
		mu.Unlock()
	})
	elapsed := time.Since(start)
	b.StopTimer()

	if len(latencies) == 0 {
		return
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p int) time.Duration {
		i := len(latencies) * p / 100
		if i >= len(latencies) {
			i = len(latencies) - 1
		}
		return latencies[i]
	}
	b.ReportMetric(float64(len(latencies))/elapsed.Seconds(), "req/s")
	b.ReportMetric(float64(pct(50).Microseconds())/1000, "p50-ms")
	b.ReportMetric(float64(pct(99).Microseconds())/1000, "p99-ms")
}

// telemetryColumns runs fn once with telemetry disabled and once fully
// instrumented — the two columns recorded in BENCH_server.json. The
// deltas between them price the whole observability layer: request IDs,
// per-stage spans, route/stage/duration metrics, and the request log.
func telemetryColumns(b *testing.B, fn func(b *testing.B, cfg Config)) {
	for _, col := range []struct {
		name    string
		disable bool
	}{{"telemetry-off", true}, {"telemetry-on", false}} {
		b.Run(col.name, func(b *testing.B) {
			fn(b, Config{DisableTelemetry: col.disable})
		})
	}
}

// BenchmarkDiagramHandler measures the handler in-process and serially —
// no sockets, no client goroutine scheduling — which is stable enough to
// price the telemetry layer itself: the telemetry-on minus telemetry-off
// delta is the per-request cost of request IDs, stage spans, and metric
// updates, free of the HTTP round-trip noise that dominates the
// endpoint benchmarks on a busy host.
func BenchmarkDiagramHandler(b *testing.B) {
	telemetryColumns(b, func(b *testing.B, cfg Config) {
		srv := New(cfg)
		body, err := json.Marshal(diagramRequest{SQL: corpus.Fig1UniqueSet, Schema: "beers"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest(http.MethodPost, "/v1/diagram", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("status = %d", w.Code)
			}
		}
	})
}

// BenchmarkDiagramEndpoint measures the full HTTP round trip for
// /v1/diagram on the paper's Fig. 1 query, reporting throughput and the
// p99 request latency — the numbers recorded in BENCH_server.json.
func BenchmarkDiagramEndpoint(b *testing.B) {
	telemetryColumns(b, func(b *testing.B, cfg Config) {
		ts := httptest.NewServer(New(cfg))
		defer ts.Close()

		body, err := json.Marshal(diagramRequest{SQL: corpus.Fig1UniqueSet, Schema: "beers"})
		if err != nil {
			b.Fatal(err)
		}
		benchEndpoint(b, ts, body)
	})
}

// benchHandlerSerial drives the handler in-process and serially with
// body, reporting ns/op, allocations, and the p50/p99 per-request
// latency — the stable columns the cache speedup claim is made on.
func benchHandlerSerial(b *testing.B, srv http.Handler, body []byte) {
	b.Helper()
	latencies := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/diagram", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		t0 := time.Now()
		srv.ServeHTTP(w, req)
		latencies = append(latencies, time.Since(t0))
		if w.Code != http.StatusOK {
			b.Fatalf("status = %d", w.Code)
		}
	}
	b.StopTimer()
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p int) time.Duration {
		i := len(latencies) * p / 100
		if i >= len(latencies) {
			i = len(latencies) - 1
		}
		return latencies[i]
	}
	b.ReportMetric(float64(pct(50).Nanoseconds())/1e6, "p50-ms")
	b.ReportMetric(float64(pct(99).Nanoseconds())/1e6, "p99-ms")
}

// BenchmarkDiagramHandlerCache prices the diagram cache on the serial
// in-process handler under verify=degrade — the mode whose pipeline the
// cache amortizes. cold is the cache-less build-and-prove path; warm is
// the same request against a prewarmed cache, so every iteration is a
// hit serving the stored proof. The warm/cold p50 ratio is
// the headline number in BENCH_server.json.
func BenchmarkDiagramHandlerCache(b *testing.B) {
	body, err := json.Marshal(diagramRequest{
		SQL: corpus.Fig1UniqueSet, Schema: "beers", Verify: "degrade",
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cold", func(b *testing.B) {
		benchHandlerSerial(b, New(Config{}), body)
	})
	b.Run("warm", func(b *testing.B) {
		srv := New(Config{CacheEntries: 64})
		// Prewarm: the one real build happens off the clock.
		req := httptest.NewRequest(http.MethodPost, "/v1/diagram", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("prewarm status = %d", w.Code)
		}
		benchHandlerSerial(b, srv, body)
	})
}

// BenchmarkBatchEndpoint measures POST /v1/diagrams:batch over HTTP
// with eight spellings of the Fig. 1 query per request: the first batch
// builds each spelling once, every later item in every later batch is
// served from cache, so the cell prices the batch envelope + hit path
// per item. items/s counts items, not batches.
func BenchmarkBatchEndpoint(b *testing.B) {
	ts := httptest.NewServer(New(Config{CacheEntries: 64}))
	defer ts.Close()

	items := []batchItem{{SQL: corpus.Fig1UniqueSet, Verify: "degrade"}}
	for _, tag := range []string{"a", "b", "c", "d", "e", "f", "g"} {
		items = append(items, batchItem{SQL: fig1Isomorph(tag), Verify: "degrade"})
	}
	body, err := json.Marshal(batchRequest{Schema: "beers", Items: items})
	if err != nil {
		b.Fatal(err)
	}

	client := ts.Client()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(ts.URL+"/v1/diagrams:batch", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status = %d", resp.StatusCode)
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(items))/elapsed.Seconds(), "items/s")
}

// BenchmarkDiagramEndpointVerify measures what runtime verification
// costs on the serving path: the same Fig. 1 round trip under
// verify=off, degrade, and strict. Off is the baseline; degrade and
// strict both run the full inverse recovery + isomorphism check, so
// their overhead is the price of a per-response proof.
func BenchmarkDiagramEndpointVerify(b *testing.B) {
	for _, mode := range []string{"off", "degrade", "strict"} {
		b.Run(mode, func(b *testing.B) {
			telemetryColumns(b, func(b *testing.B, cfg Config) {
				ts := httptest.NewServer(New(cfg))
				defer ts.Close()

				body, err := json.Marshal(diagramRequest{
					SQL: corpus.Fig1UniqueSet, Schema: "beers", Verify: mode,
				})
				if err != nil {
					b.Fatal(err)
				}
				benchEndpoint(b, ts, body)
			})
		})
	}
}
