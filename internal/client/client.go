// Package client is the minimal retrying HTTP client the QueryVis test
// harnesses and smoke scripts share: capped exponential backoff with
// jitter on transient failures (network errors, 429, 503), honoring the
// server's Retry-After hint when one is present.
//
// It exists so every harness that talks to the hardened daemon — the
// chaos suite, the CI smokes, the kill-storm test — retries the same
// way the server sheds: a 429 with Retry-After is an instruction, not an
// error, and scattering ad-hoc retry loops across tests guarantees at
// least one of them gets it wrong.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/backoff"
)

// Config tunes the retry policy. Zero fields take the documented
// defaults.
type Config struct {
	// HTTPClient performs the individual attempts (default: a client
	// with a 30s timeout).
	HTTPClient *http.Client
	// MaxAttempts bounds total tries, first included (default 3).
	MaxAttempts int
	// BaseBackoff is the first retry's delay; each further retry doubles
	// it (default 50ms).
	BaseBackoff time.Duration
	// MaxBackoff caps any single wait, including one requested via
	// Retry-After — a harness must never be parked for minutes by a
	// misconfigured header (default 2s).
	MaxBackoff time.Duration
	// Seed fixes the jitter stream for deterministic tests (0 seeds from
	// the backoff parameters; determinism, not entropy, is the point).
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{Timeout: 30 * time.Second}
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 50 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 2 * time.Second
	}
	return c
}

// Client retries transient failures with capped, jittered backoff.
type Client struct {
	cfg    Config
	ladder backoff.Policy
	rng    *backoff.Rand
}

// New builds a Client from the config.
func New(cfg Config) *Client {
	cfg = cfg.withDefaults()
	seed := cfg.Seed
	if seed == 0 {
		seed = int64(cfg.BaseBackoff) + int64(cfg.MaxAttempts)
	}
	return &Client{
		cfg:    cfg,
		ladder: backoff.Policy{Base: cfg.BaseBackoff, Max: cfg.MaxBackoff},
		rng:    backoff.NewRand(seed),
	}
}

// Do sends the request, retrying network errors and 429/503 responses
// up to MaxAttempts with capped exponential backoff plus jitter. A
// Retry-After header on a shed response raises the wait to at least the
// server's ask (still capped by MaxBackoff). Requests whose body cannot
// be replayed (no GetBody) are sent exactly once, and a dead request
// context is never retried — the caller canceled, and that decision
// stands.
func (c *Client) Do(req *http.Request) (*http.Response, error) {
	var lastErr error
	for attempt := 1; ; attempt++ {
		areq := req
		if attempt > 1 {
			areq = req.Clone(req.Context())
			// Bodyless requests (GET) have no GetBody rewinder and need
			// none; replayable() already refused retries for everything
			// else without one.
			if req.GetBody != nil {
				body, err := req.GetBody()
				if err != nil {
					return nil, err
				}
				areq.Body = body
			}
		}
		resp, err := c.cfg.HTTPClient.Do(areq)
		if err != nil {
			lastErr = err
			if req.Context().Err() != nil || attempt >= c.cfg.MaxAttempts || !replayable(req) {
				return nil, lastErr
			}
		} else {
			if !shedding(resp.StatusCode) || attempt >= c.cfg.MaxAttempts || !replayable(req) {
				return resp, nil
			}
			wait := c.rng.Jitter(c.ladder.Delay(attempt))
			if ra := retryAfter(resp); ra > wait {
				wait = ra
			}
			wait = min(wait, c.cfg.MaxBackoff)
			// The response will be replaced; drain it so the transport can
			// reuse the connection.
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
			_ = resp.Body.Close()
			if err := sleep(req.Context(), wait); err != nil {
				return nil, err
			}
			continue
		}
		if err := sleep(req.Context(), c.rng.Jitter(c.ladder.Delay(attempt))); err != nil {
			return nil, lastErr
		}
	}
}

// Get issues a retried GET.
func (c *Client) Get(ctx context.Context, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return c.Do(req)
}

// PostJSON issues a retried POST with v as the JSON body.
func (c *Client) PostJSON(ctx context.Context, url string, v any) (*http.Response, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.Do(req)
}

// replayable reports whether the request can be sent again: bodyless, or
// carrying the GetBody rewinder http.NewRequest installs for in-memory
// bodies.
func replayable(req *http.Request) bool {
	return req.Body == nil || req.Body == http.NoBody || req.GetBody != nil
}

// shedding reports whether the status invites a retry: 429 (the load
// shedder) and 503 (a draining instance or a crashed-worker response,
// both explicitly safe to retry).
func shedding(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// retryAfter parses the Retry-After header: delta-seconds or an HTTP
// date; 0 when absent or unparseable.
func retryAfter(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}

// sleep waits d or until ctx dies, whichever comes first.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
