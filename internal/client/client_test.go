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

// TestMaxElapsedStopsRetrySchedule: a budget smaller than the next wait
// ends the schedule early — the caller gets the last shed response to
// fail over with, instead of being parked for the full ladder.
func TestMaxElapsedStopsRetrySchedule(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "1") // asks for a 1s wait every time
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c := New(Config{
		MaxAttempts: 10,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  2 * time.Second,
		MaxElapsed:  50 * time.Millisecond,
	})
	start := time.Now()
	resp, err := c.Get(context.Background(), ts.URL)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want the shed 503 back", resp.StatusCode)
	}
	// The 1s Retry-After would blow the 50ms budget on the very first
	// retry, so exactly one attempt happens and Do returns promptly.
	if calls.Load() != 1 {
		t.Fatalf("server saw %d calls, want 1 (budget forbids the wait)", calls.Load())
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("Do took %v despite a 50ms budget", elapsed)
	}
}

// TestStatsCountsAttemptsAndRetries: the counters record what actually
// went over the wire.
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

	want := Stats{Requests: 2, Attempts: 4, Retries: 2}
	if got := c.Stats(); got != want {
		t.Fatalf("Stats() = %+v, want %+v", got, want)
	}
}

// TestConfiguredHeadersStampEveryAttempt: Config.Headers land on the
// first try and every retry, but never clobber a header the caller set
// on the request itself.
func TestConfiguredHeadersStampEveryAttempt(t *testing.T) {
	var calls atomic.Int64
	seen := make(chan [2]string, 4)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen <- [2]string{r.Header.Get("X-Request-Id"), r.Header.Get("Authorization")}
		if calls.Add(1) < 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
	}))
	defer ts.Close()

	c := New(Config{
		MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond,
		Headers: map[string]string{
			"X-Request-Id":  "cfg-id",
			"Authorization": "Bearer cfg-token",
		},
	})
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "caller-id") // caller wins over config
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for i := 0; i < 2; i++ {
		got := <-seen
		if got[0] != "caller-id" || got[1] != "Bearer cfg-token" {
			t.Fatalf("attempt %d saw headers %q", i+1, got)
		}
	}
}

func TestRetryBudgetCapsStorm(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable) // total outage
	}))
	defer ts.Close()

	c := New(Config{
		MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond,
		RetryBudget: 2, RetryRefill: 1,
	})
	// Request 1: 3 attempts — 2 retries drain the whole budget.
	resp, err := c.Do(mustGet(t, ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := calls.Load(); got != 3 {
		t.Fatalf("first request: server saw %d calls, want 3", got)
	}
	// Requests 2..4: the bucket is dry; each sends exactly one attempt
	// and returns the shed response as-is instead of amplifying.
	for i := 0; i < 3; i++ {
		resp, err := c.Do(mustGet(t, ts.URL))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("denied retry changed the response: %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	if got := calls.Load(); got != 6 {
		t.Fatalf("after denied retries: server saw %d calls, want 6 (3+1+1+1)", got)
	}
	st := c.Stats()
	if st.BudgetSpent != 2 || st.BudgetDenied != 3 {
		t.Fatalf("budget counters: %+v, want spent=2 denied=3", st)
	}
}

func TestRetryBudgetRefillsOnSuccess(t *testing.T) {
	var fail atomic.Bool
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if fail.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	}))
	defer ts.Close()

	c := New(Config{
		MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond,
		RetryBudget: 1, RetryRefill: 1,
	})
	get := func() *http.Response {
		t.Helper()
		resp, err := c.Do(mustGet(t, ts.URL))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	// Drain the one-token budget during an outage.
	fail.Store(true)
	get()
	if st := c.Stats(); st.BudgetSpent != 1 {
		t.Fatalf("expected the single token spent: %+v", st)
	}
	get() // dry: single attempt, denied
	if st := c.Stats(); st.BudgetDenied != 1 {
		t.Fatalf("expected a denial while dry: %+v", st)
	}
	// One clean success refills a full token (refill=1)...
	fail.Store(false)
	get()
	// ...so the next outage request may retry exactly once again.
	fail.Store(true)
	before := calls.Load()
	get()
	if got := calls.Load() - before; got != 2 {
		t.Fatalf("refilled budget should allow one retry: saw %d attempts", got)
	}
	if st := c.Stats(); st.BudgetSpent != 2 {
		t.Fatalf("refilled token not spent: %+v", st)
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
