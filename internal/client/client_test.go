package client

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRetriesSheddingThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		body, _ := io.ReadAll(r.Body)
		w.Write(body) // echo proves the body was replayed on the retry
	}))
	defer ts.Close()

	c := New(Config{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond})
	resp, err := c.PostJSON(context.Background(), ts.URL, map[string]string{"k": "v"})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), `"k":"v"`) {
		t.Fatalf("after retries: %d %q", resp.StatusCode, raw)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
}

func TestExhaustedAttemptsReturnLastResponse(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()

	c := New(Config{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond})
	resp, err := c.Get(context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// The caller gets the shed response to inspect, not an error.
	if resp.StatusCode != http.StatusTooManyRequests || calls.Load() != 2 {
		t.Fatalf("status %d after %d calls, want 429 after 2", resp.StatusCode, calls.Load())
	}
}

func TestNonReplayableBodySentOnce(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c := New(Config{MaxAttempts: 3, BaseBackoff: time.Millisecond})
	// A raw Reader body carries no GetBody rewinder, so a retry would
	// replay garbage — the client must not try.
	req, err := http.NewRequest(http.MethodPost, ts.URL, io.NopCloser(strings.NewReader("x")))
	if err != nil {
		t.Fatal(err)
	}
	req.GetBody = nil
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if calls.Load() != 1 {
		t.Fatalf("non-replayable request sent %d times, want 1", calls.Load())
	}
}

func TestCanceledContextNeverRetries(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(50 * time.Millisecond)
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	c := New(Config{MaxAttempts: 3, BaseBackoff: time.Millisecond})
	start := time.Now()
	_, err := c.Get(ctx, ts.URL)
	if err == nil {
		t.Fatal("want error from dead context")
	}
	// One aborted attempt, no backoff-and-retry loop afterwards.
	if elapsed := time.Since(start); elapsed > 40*time.Millisecond {
		t.Fatalf("canceled request took %v — it retried", elapsed)
	}
}

func TestRetryAfterRaisesWaitWithinCap(t *testing.T) {
	var calls atomic.Int64
	var gap time.Duration
	var last time.Time
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		now := time.Now()
		if calls.Add(1) == 2 {
			gap = now.Sub(last)
		}
		last = now
		if calls.Load() == 1 {
			w.Header().Set("Retry-After", "1") // 1s ask, capped to 100ms below
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
	}))
	defer ts.Close()

	c := New(Config{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 100 * time.Millisecond})
	resp, err := c.Get(context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if calls.Load() != 2 {
		t.Fatalf("server saw %d calls, want 2", calls.Load())
	}
	// The wait honored the server's ask up to the cap: well above the
	// ~1ms computed backoff, but nowhere near the full 1s.
	if gap < 50*time.Millisecond || gap > 500*time.Millisecond {
		t.Fatalf("retry gap %v, want ~100ms (capped Retry-After)", gap)
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	c := New(Config{BaseBackoff: 100 * time.Millisecond, MaxBackoff: time.Second})
	for attempt := 1; attempt <= 5; attempt++ {
		want := c.cfg.BaseBackoff << (attempt - 1)
		if want > c.cfg.MaxBackoff {
			want = c.cfg.MaxBackoff
		}
		for i := 0; i < 100; i++ {
			if d := c.rng.Jitter(c.ladder.Delay(attempt)); d < want/2 || d > want {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, want/2, want)
			}
		}
	}
}

// TestStatsCountsAttemptsAndRetries: the server sees every attempt, a
// shed request's retries included, and a healthy endpoint sees no retry.
func TestStatsCountsAttemptsAndRetries(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	c := New(Config{MaxAttempts: 5, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond})
	resp, err := c.Get(context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = c.Get(context.Background(), ts.URL) // healthy now: no retry
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if got := calls.Load(); got != 4 {
		t.Fatalf("the server saw %d calls, want 4: three for the shed request, one for the healthy one", got)
	}
}

func mustGet(t *testing.T, url string) *http.Request {
	t.Helper()
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return req
}
