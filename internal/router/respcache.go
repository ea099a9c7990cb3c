// The router's response cache, its one hot tier. Every instance of one
// build answers the same request body with the same bytes, so the
// router may answer a repeat itself; on a skewed workload (the
// repository-browsing case) it answers nearly every arrival. It also
// collapses the failover stampede, when a dead member's popular keys
// arrive at once at a cold ring successor. It reuses diagcache's
// semantics at the router tier:
//
//   - singleflight: concurrent identical request bodies share one
//     upstream call; followers replay the leader's response only when
//     it is shareable (a 200 whose verify status is "verified" or
//     absent/off), so failures are never amplified by replay.
//   - a bounded LRU of shareable responses that never expire. Every
//     instance response names its answer identity (X-Queryvis-Build,
//     see internal/server), and each entry keeps the identity of the
//     instance that answered it. An entry is served only while the
//     member a forward would reach (see answerer) reports that
//     identity; any other lookup is an ordinary miss, and its shareable
//     answer replaces the entry. So a hit returns the bytes a forward
//     would, in a coherent fleet, a mixed one (a rolling deploy) or
//     mid-failover. Probes report identities, so a changed binary or
//     flag stops being replayed within one probe interval.
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
	key   string
	h     uint32 // keyHash of the body, for the owner check
	build string // X-Queryvis-Build of the instance that answered
	sr    *sharedResp
}

// stampedeFlight is one in-progress leader call; followers wait on
// done and read sr (nil when the leader's result was unshareable).
type stampedeFlight struct {
	done chan struct{}
	sr   *sharedResp
}

// stampede is the router-side singleflight plus response cache.
type stampede struct {
	mu         sync.Mutex
	entries    map[string]*list.Element
	lru        list.List // of *stampedeEntry, most recent first
	bytes      int
	flights    map[string]*stampedeFlight
	maxEntries int // stampedeMaxEntries; white-box tests lower it
}

func newStampede() *stampede {
	return &stampede{
		entries:    make(map[string]*list.Element),
		flights:    make(map[string]*stampedeFlight),
		maxEntries: stampedeMaxEntries,
	}
}

// noteBuild records the answer identity in a member's response.
func noteBuild(in *instance, h http.Header) {
	if b := h.Get(headerBuild); b != in.reportedBuild() {
		in.build.Store(b)
	}
}

// answerer is the member a forward of key hash h reaches first: the
// first eligible member in ring order, else the ring owner. It walks
// the points, not order's list, so it allocates nothing.
func (tp *topology) answerer(h uint32) *instance {
	pts := tp.ring.points
	start := tp.ring.start(h)
	for i := range pts {
		if in := tp.insts[pts[(start+i)%len(pts)].idx]; in.eligible() {
			return in
		}
	}
	return tp.insts[pts[start].idx]
}

// get returns the cached response for key, nil on a miss. The entry is
// served only while its answerer in tp reports the build that produced
// it. The entry's stored hash locates the answerer, so a hit hashes
// nothing.
func (s *stampede) get(key string, tp *topology) *sharedResp {
	s.mu.Lock()
	defer s.mu.Unlock()
	el := s.entries[key]
	if el == nil {
		return nil
	}
	e := el.Value.(*stampedeEntry)
	if tp.answerer(e.h).reportedBuild() != e.build {
		return nil
	}
	s.lru.MoveToFront(el)
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
// the outcome was unshareable). A shareable response that names its
// identity is stored under it with the key's hash h, replacing any
// entry for key, and the LRU tail is evicted until both caps hold.
// Reports whether it was stored.
func (s *stampede) complete(key string, h uint32, f *stampedeFlight, sr *sharedResp) bool {
	build := ""
	if sr.shareable() && len(sr.body) <= stampedeMaxBodyBytes {
		build = sr.header.Get(headerBuild)
	} else {
		sr = nil
	}
	s.mu.Lock()
	delete(s.flights, key)
	inserted := build != ""
	if inserted {
		if el := s.entries[key]; el != nil {
			s.bytes -= len(key) + len(el.Value.(*stampedeEntry).sr.body)
			s.lru.Remove(el)
		}
		s.entries[key] = s.lru.PushFront(&stampedeEntry{key: key, h: h, build: build, sr: sr})
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

// len reports the resident entries.
func (s *stampede) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}
