// The router's response cache, its one hot tier. Every instance
// answers the same request body with the same bytes, so the router may
// answer a repeat itself. On a skewed workload (a few popular queries
// asked over and over, the repository-browsing case) the cache answers
// most arrivals, and each popular body reaches a backend about once per
// TTL; queryvisd ships it on with a 2s TTL (-route-stampede-ttl). The
// same layer collapses the failover stampede: the moment an instance
// dies or drains, every key it owned reroutes to ring successors whose
// diagram caches have never seen those requests, and a popular one
// arrives as N simultaneous identical requests against a cold cache.
// The layer reuses the semantics of internal/diagcache at the router
// tier:
//
//   - singleflight: concurrent identical request bodies share one
//     upstream call; followers wait for the leader and replay its
//     response — but only when that response is shareable (a 200 whose
//     verify status is "verified" or absent/off, never a degraded
//     artifact or an error). An unshareable leader result sends each
//     follower on its own upstream call, so failures are never
//     amplified by replay.
//   - a short-TTL response cache with verified-only inserts: a fresh
//     entry answers a repeat without a backend trip; the TTL bounds
//     how long the router serves an answer from its own memory.
//
// A replay keeps the stored status, body and headers but carries the
// caller's own request and trace IDs (see writeShared). Requests
// carrying chaos fault headers bypass the layer entirely — an injected
// fault must reach its backend and must never be replayed onto an
// innocent caller. The names keep their historical "stampede" prefix
// (Config.StampedeTTL, queryvis_router_stampede_* series).
package router

import (
	"net/http"
	"sync"
	"time"

	"repro/internal/diagcache"
)

// Bounds keeping the cache's memory honest: requests larger than
// stampedeMaxKeyBytes or responses larger than stampedeMaxBodyBytes are
// proxied straight through (popular queries are small-bodied by
// nature).
const (
	stampedeMaxKeyBytes  = 64 << 10
	stampedeMaxBodyBytes = 1 << 20
)

// sharedResp is one buffered upstream response, immutable once stored.
type sharedResp struct {
	status int
	header http.Header
	body   []byte
}

// shareable reports whether a response may be served to a caller other
// than the one whose request produced it: a 200 that diagcache's
// insert rule would cache. An absent verify header means verification
// was off.
func (sr *sharedResp) shareable() bool {
	if sr == nil || sr.status != http.StatusOK {
		return false
	}
	verify := sr.header.Get("X-Queryvis-Verify-Status")
	if verify == "" {
		verify = "off"
	}
	return diagcache.CacheableStatus(verify, sr.header.Get("X-Queryvis-Degraded"))
}

type stampedeEntry struct {
	sr      *sharedResp
	expires time.Time
}

// stampedeFlight is one in-progress leader call; followers wait on
// done and read sr (nil when the leader's result was unshareable).
type stampedeFlight struct {
	done chan struct{}
	sr   *sharedResp
}

// stampede is the router-side singleflight plus TTL response cache.
type stampede struct {
	mu      sync.Mutex
	entries map[string]*stampedeEntry
	flights map[string]*stampedeFlight

	ttl        time.Duration
	maxEntries int
}

func newStampede(ttl time.Duration, maxEntries int) *stampede {
	return &stampede{
		entries:    make(map[string]*stampedeEntry),
		flights:    make(map[string]*stampedeFlight),
		ttl:        ttl,
		maxEntries: maxEntries,
	}
}

// get returns a fresh cached response for key, nil on miss or expiry.
func (s *stampede) get(key string, now time.Time) *sharedResp {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[key]
	if e == nil {
		return nil
	}
	if now.After(e.expires) {
		delete(s.entries, key)
		return nil
	}
	return e.sr
}

// join enters the singleflight for key: the first caller becomes the
// leader (and MUST call complete exactly once); later callers get the
// existing flight to wait on.
func (s *stampede) join(key string) (*stampedeFlight, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.flights[key]; ok {
		return f, false
	}
	f := &stampedeFlight{done: make(chan struct{})}
	s.flights[key] = f
	return f, true
}

// complete resolves a leader's flight: followers wake with sr (nil when
// the outcome was unshareable), and a shareable response is inserted
// into the TTL cache. Reports whether the insert happened.
func (s *stampede) complete(key string, f *stampedeFlight, sr *sharedResp, now time.Time) bool {
	if sr != nil && (!sr.shareable() || len(sr.body) > stampedeMaxBodyBytes) {
		sr = nil
	}
	inserted := false
	s.mu.Lock()
	delete(s.flights, key)
	if sr != nil {
		if len(s.entries) >= s.maxEntries {
			s.pruneLocked(now)
		}
		if len(s.entries) < s.maxEntries {
			s.entries[key] = &stampedeEntry{sr: sr, expires: now.Add(s.ttl)}
			inserted = true
		}
	}
	s.mu.Unlock()
	f.sr = sr
	close(f.done)
	return inserted
}

// pruneLocked drops expired entries; if none have expired the cache is
// genuinely full of live entries and the insert is skipped — with a
// TTL this short, "full" resolves itself within seconds.
func (s *stampede) pruneLocked(now time.Time) {
	for k, e := range s.entries {
		if now.After(e.expires) {
			delete(s.entries, k)
		}
	}
}

// size reports resident cache entries (expired-but-unswept included).
func (s *stampede) size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}
