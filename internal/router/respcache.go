// The router's response cache, its one hot tier. Every instance
// answers the same request body with the same bytes, so the router may
// answer a repeat itself; on a skewed workload (the repository-browsing
// case) it answers nearly every arrival. It also collapses the failover
// stampede, when a dead member's popular keys arrive at once at a cold
// ring successor. It reuses diagcache's semantics at the router tier:
//
//   - singleflight: concurrent identical request bodies share one
//     upstream call; followers replay the leader's response only when
//     it is shareable (a 200 whose verify status is "verified" or
//     absent/off), so failures are never amplified by replay.
//   - a bounded LRU of shareable responses that never expire. Every
//     instance response names its answer identity (X-Queryvis-Build,
//     see internal/server); the fleet identity is the one all reporting
//     members agree on. Without one the cache is bypassed, counted as
//     outcome="bypass", but still coalesces. Leaving a known identity
//     bumps the generation and drops every entry, and only answers of
//     the current identity are inserted. Probes report identities, so a
//     changed binary or flag stops being replayed within one probe
//     interval.
//
// Replays carry the caller's own IDs and a fresh Date (see
// writeShared). Requests carrying chaos fault headers bypass the layer.
// Names keep their historical "stampede" prefix.
package router

import (
	"container/list"
	"net/http"
	"sync"

	"repro/internal/diagcache"
	"repro/internal/telemetry"
)

// Bounds keeping the cache's memory honest: requests larger than
// stampedeMaxKeyBytes or responses larger than stampedeMaxBodyBytes are
// proxied straight through (popular queries are small-bodied by
// nature), and the resident keys and bodies stay under
// stampedeMaxEntries and stampedeMaxBytes, diagcache's default.
const (
	stampedeMaxKeyBytes  = 64 << 10
	stampedeMaxBodyBytes = 1 << 20
	stampedeMaxEntries   = 1024
	stampedeMaxBytes     = 64 << 20
	headerBuild          = "X-Queryvis-Build" // an instance's answer identity
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
	key string
	sr  *sharedResp
}

// stampedeFlight is one in-progress leader call; followers wait on
// done and read sr (nil when the leader's result was unshareable).
type stampedeFlight struct {
	done chan struct{}
	sr   *sharedResp
}

// stampede is the router-side singleflight plus response cache.
type stampede struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	lru     list.List // of *stampedeEntry, most recent first
	bytes   int
	flights map[string]*stampedeFlight
	// ident is the fleet's answer identity, "" when there is none; gen
	// counts the times one was left, bypass the lookups made without one.
	ident       string
	gen, bypass *telemetry.Counter
	maxEntries  int // stampedeMaxEntries; white-box tests lower it
}

func newStampede(gen, bypass *telemetry.Counter) *stampede {
	return &stampede{
		entries:    make(map[string]*list.Element),
		flights:    make(map[string]*stampedeFlight),
		gen:        gen,
		bypass:     bypass,
		maxEntries: stampedeMaxEntries,
	}
}

// observe recomputes the fleet identity: the one every member that has
// reported agrees on, "" otherwise. Leaving a known identity bumps the
// generation and drops every entry. topo is loaded under the lock, so
// the last observer always sees the latest reports and members.
func (s *stampede) observe(topo func() *topology) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ident, n := "", 0
	for _, in := range topo().insts {
		if b, _ := in.build.Load().(string); b != "" && b != ident {
			ident, n = b, n+1
		}
	}
	if n > 1 {
		ident = ""
	}
	if ident != s.ident && s.ident != "" {
		s.gen.Inc()
		clear(s.entries)
		s.lru.Init()
		s.bytes = 0
	}
	s.ident = ident
}

// noteBuild records the answer identity in a member's response and,
// when it changed, recomputes the fleet's.
func (rt *Router) noteBuild(in *instance, h http.Header) {
	if b := h.Get(headerBuild); in.build.Swap(b) != b {
		rt.stampede.observe(rt.topo.Load)
	}
}

// get returns the cached response for key, nil on a miss. While the
// fleet has no identity the cache is empty and the lookup is counted.
func (s *stampede) get(key string) *sharedResp {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ident == "" {
		s.bypass.Inc()
		return nil
	}
	el := s.entries[key]
	if el == nil {
		return nil
	}
	s.lru.MoveToFront(el)
	return el.Value.(*stampedeEntry).sr
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
// the outcome was unshareable). A shareable response is inserted when
// its identity is the fleet's, evicting from the LRU tail until both
// caps hold. Reports whether the insert happened.
func (s *stampede) complete(key string, f *stampedeFlight, sr *sharedResp) bool {
	if sr != nil && (!sr.shareable() || len(sr.body) > stampedeMaxBodyBytes) {
		sr = nil
	}
	s.mu.Lock()
	delete(s.flights, key)
	inserted := sr != nil && s.ident != "" && sr.header.Get(headerBuild) == s.ident &&
		s.entries[key] == nil
	if inserted {
		s.entries[key] = s.lru.PushFront(&stampedeEntry{key: key, sr: sr})
		s.bytes += len(key) + len(sr.body)
		for s.lru.Len() > s.maxEntries || s.bytes > stampedeMaxBytes {
			e := s.lru.Remove(s.lru.Back()).(*stampedeEntry)
			delete(s.entries, e.key)
			s.bytes -= len(e.key) + len(e.sr.body)
		}
	}
	s.mu.Unlock()
	f.sr = sr
	close(f.done)
	return inserted
}

// stats reports the resident entries, the fleet identity and the
// generation.
func (s *stampede) stats() (entries int, ident string, gen int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len(), s.ident, s.gen.Value()
}
