package workerpool_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/workerpool"
)

// BenchmarkDiagramEndpointIsolation prices process isolation: the same
// hardened HTTP service serving POST /v1/diagram with the pipeline
// in-process (none) versus dispatched over the frame protocol to a pool
// of child worker processes (process). The delta is the full isolation
// tax — the job and outcome encodings, frame encode/decode and two pipe
// crossings — and is recorded as the isolation columns in
// BENCH_server.json. The pool is sized to the benchmark's 8 parallel
// clients so the columns compare IPC overhead, not queueing.
func BenchmarkDiagramEndpointIsolation(b *testing.B) {
	body := diagramBody(qSome)

	b.Run("none", func(b *testing.B) {
		ts := httptest.NewServer(server.New(server.Config{}))
		defer ts.Close()
		benchEndpoint(b, ts, body)
	})

	b.Run("process", func(b *testing.B) {
		benchPool(b, body, workerpool.Config{
			Spawn:   spawnSelf(),
			Workers: 8,
		})
	})
}

// benchPool runs the endpoint benchmark against a fresh pool built from
// cfg, closing it cleanly afterwards.
func benchPool(b *testing.B, body []byte, cfg workerpool.Config) {
	b.Helper()
	p, err := workerpool.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := p.Close(ctx); err != nil {
			b.Errorf("pool close: %v", err)
		}
	}()
	ts := httptest.NewServer(server.New(server.Config{Pool: p}))
	defer ts.Close()
	benchEndpoint(b, ts, body)
}

// benchEndpoint hammers /v1/diagram with body from 8 parallel workers
// and reports throughput plus p50/p99 request latency (the same shape
// internal/server's endpoint benchmarks report, so columns compare).
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
