package router_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// BenchmarkRouterAddedLatency prices the routing hop: POST /v1/diagram
// against one in-process instance directly ("direct"), then through the
// consistent-hash router over 1, 2, and 4 identical instances. The p50
// delta between a router column and "direct" is the fabric's added
// latency — one extra HTTP hop, the body hash, the ring walk — and is
// recorded in BENCH_server.json. All instances are in-process handlers,
// so the columns isolate the router's own cost, not instance load.
func BenchmarkRouterAddedLatency(b *testing.B) {
	body, err := json.Marshal(diagramReq(qSome))
	if err != nil {
		b.Fatal(err)
	}
	newInstance := func() *httptest.Server {
		return httptest.NewServer(server.New(server.Config{CacheEntries: 0}))
	}

	b.Run("direct", func(b *testing.B) {
		ts := newInstance()
		defer ts.Close()
		benchFront(b, ts.URL, body)
	})

	for _, n := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "router-1", 2: "router-2", 4: "router-4"}[n], func(b *testing.B) {
			urls := make([]string, n)
			for i := range urls {
				ts := newInstance()
				defer ts.Close()
				urls[i] = ts.URL
			}
			rt, err := router.New(router.Config{
				Backends: urls,
				Metrics:  telemetry.NewRegistry(),
			})
			if err != nil {
				b.Fatal(err)
			}
			defer rt.Close()
			front := httptest.NewServer(rt)
			defer front.Close()
			benchFront(b, front.URL, body)
		})
	}
}

// benchFront hammers url's /v1/diagram from 8 parallel workers and
// reports throughput plus p50/p99 — the same shape as the server and
// workerpool endpoint benchmarks, so columns compare.
func benchFront(b *testing.B, url string, body []byte) {
	b.Helper()
	const workers = 8
	var (
		mu        sync.Mutex
		latencies []time.Duration
	)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	defer client.CloseIdleConnections()
	b.ResetTimer()
	start := time.Now()
	b.SetParallelism(workers)
	b.RunParallel(func(pb *testing.PB) {
		var local []time.Duration
		for pb.Next() {
			t0 := time.Now()
			resp, err := client.Post(url+"/v1/diagram", "application/json", bytes.NewReader(body))
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
	reportLatencies(b, latencies, elapsed)
}

// reportLatencies emits the shared req/s + p50/p99 metric columns.
func reportLatencies(b *testing.B, latencies []time.Duration, elapsed time.Duration) {
	b.Helper()
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

// BenchmarkRouterFailoverStampede prices stampede control during the
// failover window: one ring member is dead (connection refused) but not
// yet detected — the probe interval is an hour and the down threshold
// unreachable, freezing the router inside the window — and
// each iteration fires a storm of 16 byte-identical requests on a fresh
// key. Without stampede control every storm member independently pays
// the dead-instance dial plus its own upstream call; with it the
// leader pays once and 15 followers coalesce onto the shared result.
// The p99 across all storm members is the failover-window tail recorded
// in BENCH_server.json.
func BenchmarkRouterFailoverStampede(b *testing.B) {
	for _, mode := range []struct {
		name string
		on   bool
	}{
		{"stampede-off", false},
		{"stampede-on", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			live := httptest.NewServer(server.New(server.Config{CacheEntries: 0}))
			defer live.Close()
			dead := httptest.NewServer(http.NotFoundHandler())
			deadURL := dead.URL
			dead.Close() // the port now refuses connections

			rt, err := router.New(router.Config{
				Backends:       []string{deadURL, live.URL},
				HealthInterval: time.Hour, // the detection window never closes
				ProbeDownAfter: 1 << 20,   // nor do forwarded failures end it
				ResponseCache:  mode.on,
				Metrics:        telemetry.NewRegistry(),
			})
			if err != nil {
				b.Fatal(err)
			}
			defer rt.Close()
			front := httptest.NewServer(rt)
			defer front.Close()

			const storm = 16
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * storm}}
			defer client.CloseIdleConnections()
			var (
				mu        sync.Mutex
				latencies []time.Duration
			)
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				body, err := json.Marshal(diagramReq(fmt.Sprintf("%s -- storm %d", qSome, i)))
				if err != nil {
					b.Fatal(err)
				}
				var wg sync.WaitGroup
				for w := 0; w < storm; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						t0 := time.Now()
						resp, err := client.Post(front.URL+"/v1/diagram", "application/json", bytes.NewReader(body))
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
						d := time.Since(t0)
						mu.Lock()
						latencies = append(latencies, d)
						mu.Unlock()
					}()
				}
				wg.Wait()
			}
			elapsed := time.Since(start)
			b.StopTimer()
			reportLatencies(b, latencies, elapsed)
		})
	}
}

// BenchmarkRouterHit prices one in-process router cache hit of the
// eight-header answer TestRouterHitAllocBudget pins: the body read, the
// owner check, the lookup and the replay, with no network hop.
func BenchmarkRouterHit(b *testing.B) {
	hit := routerHit(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hit()
	}
}
