package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	queryvis "repro"
	"repro/internal/corpus"
	"repro/internal/diagcache"
	"repro/internal/telemetry"
	"repro/internal/workerpool"
)

// serveDirect drives the handler in-process (no sockets), returning
// status, headers, and the decoded body with elapsed_ms zeroed.
func serveDirect(t *testing.T, h http.Handler, sql, verify string) (int, http.Header, diagramResponse) {
	t.Helper()
	body, err := json.Marshal(diagramReq(sql, verify))
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/diagram", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var dr diagramResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &dr); err != nil {
			t.Errorf("decode: %v\n%s", err, rec.Body.Bytes())
		}
		dr.ElapsedMS = 0
	}
	return rec.Code, rec.Result().Header, dr
}

// TestCacheRaceSingleflight: N goroutines send the identical Fig. 1
// request concurrently. Singleflight must collapse them to exactly one
// verified pipeline execution, every response must be byte-identical,
// and the outcome counters must account for every request exactly
// once — in-process, and under process isolation, where the one build
// runs in a worker. Run under -race, this is also the cache's data-race
// battery.
func TestCacheRaceSingleflight(t *testing.T) {
	t.Run("in-process", func(t *testing.T) { cacheRaceSingleflight(t, nil) })
	t.Run("process", func(t *testing.T) {
		if testing.Short() {
			t.Skip("spawns worker processes")
		}
		cacheRaceSingleflight(t, newTestPool(t, workerpool.Config{Workers: 2}))
	})
}

func cacheRaceSingleflight(t *testing.T, pool *workerpool.Pool) {
	reg := telemetry.NewRegistry()
	srv := New(Config{
		CacheEntries:  256,
		DefaultVerify: queryvis.VerifyDegrade,
		Metrics:       reg,
		Pool:          pool,
	})
	const goroutines, perG = 8, 3

	type reply struct {
		status int
		cache  string
		body   diagramResponse
	}
	replies := make([][]reply, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < perG; i++ {
				st, hdr, dr := serveDirect(t, srv, corpus.Fig1UniqueSet, "degrade")
				replies[g] = append(replies[g], reply{st, hdr.Get(headerCache), dr})
			}
		}()
	}
	close(start)
	wg.Wait()

	var first *reply
	for g := range replies {
		for i := range replies[g] {
			r := &replies[g][i]
			if r.status != http.StatusOK {
				t.Fatalf("goroutine %d request %d: status %d", g, i, r.status)
			}
			if r.cache != "hit" && r.cache != "miss" {
				t.Fatalf("goroutine %d request %d: cache header %q", g, i, r.cache)
			}
			if r.body.VerifyStatus != queryvis.VerifyStatusVerified {
				t.Fatalf("goroutine %d request %d: verify_status %q", g, i, r.body.VerifyStatus)
			}
			if first == nil {
				first = r
			} else if !reflect.DeepEqual(r.body, first.body) {
				t.Fatalf("response bodies diverge:\nfirst %+v\n this %+v", first.body, r.body)
			}
		}
	}

	// Exactly one pipeline execution built the request…
	if n := reg.Value(diagcache.MetricBuilds); n != 1 {
		t.Fatalf("builds_total = %v, want exactly 1", n)
	}
	if n := reg.Value(diagcache.MetricInserts); n != 1 {
		t.Fatalf("inserts_total = %v, want exactly 1", n)
	}
	if n := reg.Value(diagcache.MetricRequests, "outcome", "miss"); n != 1 {
		t.Fatalf("miss count = %v, want exactly 1 (the leader)", n)
	}
	// …and no request was lost or double-counted.
	total := 0.0
	for _, o := range []string{"hit", "hit_flight", "miss", "uncacheable", "bypass"} {
		total += reg.Value(diagcache.MetricRequests, "outcome", o)
	}
	if total != goroutines*perG {
		t.Fatalf("outcome counters sum to %v, want %d", total, goroutines*perG)
	}
	for _, o := range []string{"uncacheable", "bypass"} {
		if n := reg.Value(diagcache.MetricRequests, "outcome", o); n != 0 {
			t.Fatalf("outcome %q = %v, want 0", o, n)
		}
	}
}

// TestCacheEvictionChurn hammers a two-entry cache with six distinct
// queries from many goroutines: permanent eviction pressure, constant
// rebuild races. Every response must still match the uncached serial
// baseline byte for byte, the capacity bound must hold, and the outcome
// accounting must stay exact.
func TestCacheEvictionChurn(t *testing.T) {
	// Six distinct queries: six cache keys competing for two slots.
	queries := []string{
		"SELECT L.drinker FROM Likes L",
		"SELECT L.drinker FROM Likes L WHERE L.beer = 'ipa'",
		"SELECT S.bar FROM Serves S, Likes L WHERE S.drink = L.drink",
		"SELECT F.bar FROM Frequents F, Likes L WHERE F.person = L.person AND L.drink = 'mead'",
		corpus.Fig3QSome,
		corpus.Fig3QOnly,
	}

	// Serial baseline from a cache-less server: the ground truth every
	// churned response must reproduce.
	base := New(Config{DefaultVerify: queryvis.VerifyDegrade, Metrics: telemetry.NewRegistry()})
	want := make(map[string]diagramResponse, len(queries))
	for _, sql := range queries {
		st, _, dr := serveDirect(t, base, sql, "degrade")
		if st != http.StatusOK {
			t.Fatalf("baseline %q: status %d", sql, st)
		}
		want[sql] = dr
	}

	reg := telemetry.NewRegistry()
	srv := New(Config{
		CacheEntries:  2, // one shard; six entries stay far below the byte bound
		DefaultVerify: queryvis.VerifyDegrade,
		Metrics:       reg,
	})

	const goroutines, perG = 8, 30
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < perG; i++ {
				sql := queries[(13*g+i)%len(queries)]
				st, _, dr := serveDirect(t, srv, sql, "degrade")
				if st != http.StatusOK {
					t.Errorf("goroutine %d request %d: status %d", g, i, st)
					return
				}
				if !reflect.DeepEqual(dr, want[sql]) {
					t.Errorf("churned response diverged from baseline for %.40q:\nwant %+v\n got %+v", sql, want[sql], dr)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}

	st := srv.cache.Stats()
	if st.Entries > 2 {
		t.Fatalf("cache holds %d entries, bound is 2", st.Entries)
	}
	if st.Evictions == 0 {
		t.Fatal("six queries through two slots produced no evictions")
	}
	total := 0.0
	for _, o := range []string{"hit", "hit_flight", "miss", "uncacheable", "bypass"} {
		total += reg.Value(diagcache.MetricRequests, "outcome", o)
	}
	if total != goroutines*perG {
		t.Fatalf("outcome counters sum to %v, want %d", total, goroutines*perG)
	}
	if st.Hits+st.Misses != goroutines*perG {
		t.Fatalf("hits %d + misses %d != %d requests", st.Hits, st.Misses, goroutines*perG)
	}
}
