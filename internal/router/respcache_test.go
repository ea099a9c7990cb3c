// White-box tests for the stampede layer: the verified-only
// shareability rule, singleflight leader/follower resolution, the
// per-entry answer-identity rule and the owner check that feeds it, and
// the LRU's entry and byte caps.
package router

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"strconv"
	"sync"
	"testing"
)

func respWith(status int, hdr map[string]string) *sharedResp {
	h := http.Header{}
	for k, v := range hdr {
		h.Set(k, v)
	}
	return &sharedResp{status: status, header: h, body: []byte(`{"diagram":"digraph {}"}`)}
}

func TestShareableFollowsVerifiedOnlyRule(t *testing.T) {
	cases := []struct {
		name string
		sr   *sharedResp
		want bool
	}{
		{"plain 200", respWith(200, nil), true},
		{"verified", respWith(200, map[string]string{"X-QueryVis-Verify-Status": "verified"}), true},
		{"verify off", respWith(200, map[string]string{"X-QueryVis-Verify-Status": "off"}), true},
		{"failed verify", respWith(200, map[string]string{"X-QueryVis-Verify-Status": "failed"}), false},
		{"timeout verify", respWith(200, map[string]string{"X-QueryVis-Verify-Status": "timeout"}), false},
		{"degraded", respWith(200, map[string]string{"X-QueryVis-Degraded": "worker_crash"}), false},
		{"shed 503", respWith(503, nil), false},
		{"client error", respWith(400, nil), false},
		{"nil", nil, false},
	}
	for _, c := range cases {
		if got := c.sr.shareable(); got != c.want {
			t.Errorf("%s: shareable() = %v, want %v", c.name, got, c.want)
		}
	}
}

// reporting is a one-member topology whose member, the answerer of
// every key, reports build b.
func reporting(b string) *topology {
	in := &instance{}
	in.build.Store(b)
	return &topology{members: []string{"m"}, insts: []*instance{in}, ring: newRing([]string{"m"}, 1)}
}

// fromBuild is a shareable 200 answered by an instance with identity b.
func fromBuild(b string) *sharedResp {
	return respWith(200, map[string]string{headerBuild: b})
}

// fill leads and completes one flight per key with sr, reporting how
// many were inserted. A key already in flight is waited for instead.
func fill(s *stampede, sr *sharedResp, keys ...string) int {
	n := 0
	for _, k := range keys {
		f, leader := s.join(k)
		if !leader {
			<-f.done
		} else if s.complete(k, 0, f, sr) {
			n++
		}
	}
	return n
}

func TestStampedeSingleflightResolution(t *testing.T) {
	s := newStampede()

	f1, leader := s.join("k")
	if !leader {
		t.Fatal("first join must lead")
	}
	f2, leader2 := s.join("k")
	if leader2 || f2 != f1 {
		t.Fatal("second join must follow the existing flight")
	}

	sr := fromBuild("b1")
	if !s.complete("k", 0, f1, sr) {
		t.Fatal("shareable 200 must be inserted")
	}
	select {
	case <-f2.done:
	default:
		t.Fatal("followers not woken by complete")
	}
	if f2.sr != sr {
		t.Fatal("follower did not receive the leader's response")
	}
	for i := 0; i < 3; i++ {
		if got := s.get("k", reporting("b1")); got != sr {
			t.Fatal("shareable response not served from the cache")
		}
	}

	// A fresh flight for the same key leads again once resolved.
	if _, leader := s.join("k"); !leader {
		t.Fatal("key not released after complete")
	}
}

func TestStampedeUnshareableResolvesNilAndCachesNothing(t *testing.T) {
	s := newStampede()
	f, _ := s.join("k")
	if s.complete("k", 0, f, respWith(503, map[string]string{headerBuild: "b1"})) {
		t.Fatal("a 503 must not be inserted")
	}
	if f.sr != nil {
		t.Fatal("followers must see nil for an unshareable outcome")
	}
	if s.get("k", reporting("b1")) != nil || len(s.entries) != 0 {
		t.Fatal("unshareable outcome leaked into the cache")
	}
}

// TestStampedeIdentityBumpInvalidates: an entry is served only to a
// lookup whose answerer reports the build that produced it. A lookup
// under another build misses, and that miss's answer replaces the entry.
func TestStampedeIdentityBumpInvalidates(t *testing.T) {
	s := newStampede()
	if fill(s, fromBuild("b1"), "k1", "k2") != 2 || s.get("k1", reporting("b1")) == nil {
		t.Fatal("entries of the answerer's identity not cached")
	}
	// Two flights begin while b1 answers and end after b2 does.
	old, straddled := s.join("k3")
	fresh, _ := s.join("k4")

	// The key's answerer now reports b2: the b1 entry is not replayed,
	// yet stays resident for answerers that still report b1.
	if s.get("k1", reporting("b2")) != nil {
		t.Fatal("an entry was served to an answerer of another identity")
	}
	if s.get("k2", reporting("b1")) == nil {
		t.Fatal("an entry of the answerer's identity was dropped")
	}
	if fill(s, fromBuild("b2"), "k1") != 1 || s.get("k1", reporting("b2")) == nil {
		t.Fatal("the new identity's answer did not replace the entry")
	}
	if s.get("k1", reporting("b1")) != nil || len(s.entries) != 2 {
		t.Fatalf("after the replacement: b1 still served or %d entries, want the one b2 entry for k1", len(s.entries)-1)
	}
	// Each straddling flight stores the answer it got, under its own
	// identity, and both reach their followers.
	if !straddled || !s.complete("k3", 0, old, fromBuild("b1")) || old.sr == nil || s.get("k3", reporting("b2")) != nil {
		t.Fatal("a b1 answer of a flight that began before the bump was not stored as b1")
	}
	if !s.complete("k4", 0, fresh, fromBuild("b2")) || s.get("k4", reporting("b2")) == nil {
		t.Fatal("a b2 answer of a flight that began before the bump was not stored")
	}

	// A direct b2 → b3 swap is a miss like any other.
	if s.get("k1", reporting("b3")) != nil {
		t.Fatal("b2 → b3: the b2 entry was served")
	}
	wantBytes := 0
	for k, el := range s.entries {
		wantBytes += len(k) + len(el.Value.(*stampedeEntry).sr.body)
	}
	if s.bytes != wantBytes {
		t.Fatalf("byte count %d after replacements, want %d", s.bytes, wantBytes)
	}
}

// TestStampedeMixedFleetHitsAndCoalesces: members of two builds each
// have their keys' entries served, and identical requests still share
// one flight.
func TestStampedeMixedFleetHitsAndCoalesces(t *testing.T) {
	s := newStampede()
	leader, _ := s.join("k")
	follower, lead := s.join("k")
	if lead || follower != leader {
		t.Fatal("a mixed fleet must still coalesce identical requests")
	}
	sr := fromBuild("b1")
	if !s.complete("k", 0, leader, sr) {
		t.Fatal("a b1 answer was not stored")
	}
	if follower.sr != sr {
		t.Fatal("the follower was not handed the leader's response")
	}
	if fill(s, fromBuild("b2"), "j") != 1 {
		t.Fatal("a b2 answer was not stored")
	}
	if s.get("k", reporting("b1")) != sr || s.get("j", reporting("b2")) == nil {
		t.Fatal("a mixed fleet did not serve each member's keys from the cache")
	}
	if s.get("k", reporting("b2")) != nil || s.get("j", reporting("b1")) != nil {
		t.Fatal("an entry was served across builds")
	}
}

// TestStampedeUnreportedMemberIgnored: an answer that names no identity
// is never stored, and a lookup whose answerer has not reported one
// misses.
func TestStampedeUnreportedMemberIgnored(t *testing.T) {
	s := newStampede()
	if fill(s, respWith(200, nil), "k") != 0 || len(s.entries) != 0 {
		t.Fatal("an answer without an identity was stored")
	}
	if fill(s, fromBuild("b1"), "k") != 1 || s.get("k", reporting("b1")) == nil {
		t.Fatal("an answer of a reporting member was not cached")
	}
	if s.get("k", reporting("")) != nil {
		t.Fatal("an entry was served for a member that has not reported an identity")
	}
	in := &instance{}
	if b := in.reportedBuild(); b != "" {
		t.Fatalf("a member that has not answered reports %q", b)
	}
	noteBuild(in, fromBuild("b1").header)
	if b := in.reportedBuild(); b != "b1" {
		t.Fatalf("after answering with b1 the member reports %q", b)
	}
}

// twoMembers is a topology over fakes a and b, both eligible.
func twoMembers() *topology {
	members := []string{"http://a", "http://b"}
	tp := &topology{members: members, ring: newRing(members, ringReplicas)}
	for _, m := range members {
		in := &instance{url: m}
		in.healthy.Store(true)
		tp.insts = append(tp.insts, in)
	}
	return tp
}

// TestAnswererIsFirstEligibleCandidate: the owner check names the
// member a forward would reach, the first eligible one in ring order,
// and falls back to the ring owner when none is eligible. A lookup
// with its owner check allocates nothing.
func TestAnswererIsFirstEligibleCandidate(t *testing.T) {
	tp := twoMembers()
	for i := 0; i < 64; i++ {
		body := []byte(fmt.Sprintf(`{"sql":"q%d"}`, i))
		h := keyHash(body)
		h64 := fnv.New64a()
		h64.Write(body)
		if legacy := hash32([]byte(strconv.FormatUint(h64.Sum64(), 16))); h != legacy {
			t.Fatalf("keyHash %d, want the ring position %d of the hex key", h, legacy)
		}
		order := tp.ring.order(h)
		owner, successor := tp.insts[order[0]], tp.insts[order[1]]
		if got := tp.answerer(h); got != owner {
			t.Fatalf("key %d: answerer %s, want its owner %s", i, got.url, owner.url)
		}
		owner.healthy.Store(false)
		if got := tp.answerer(h); got != successor {
			t.Fatalf("key %d with its owner down: answerer %s, want the successor %s", i, got.url, successor.url)
		}
		successor.draining.Store(true)
		if got := tp.answerer(h); got != owner {
			t.Fatalf("key %d with no member eligible: answerer %s, want the ring owner %s", i, got.url, owner.url)
		}
		owner.healthy.Store(true)
		successor.draining.Store(false)
	}
	// A lookup asks the answerer of the entry's stored hash, so the
	// owner check follows the ring without hashing the body again.
	body := []byte(`{"sql":"SELECT 1"}`)
	h := keyHash(body)
	owner := tp.insts[tp.ring.order(h)[0]]
	for _, in := range tp.insts {
		in.build.Store("other")
	}
	owner.build.Store("b1")
	s := newStampede()
	f, _ := s.join("k")
	s.complete("k", h, f, fromBuild("b1"))
	if s.get("k", tp) == nil {
		t.Fatal("the owner reports the entry's build, yet the lookup missed")
	}
	if n := testing.AllocsPerRun(100, func() { _ = keyHash(body) }); n != 0 {
		t.Fatalf("keyHash: %.0f allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = s.get("k", tp) }); n != 0 {
		t.Fatalf("lookup with its owner check: %.0f allocs, want 0", n)
	}
	owner.healthy.Store(false)
	if s.get("k", tp) != nil {
		t.Fatal("with its owner down, the entry was served for the successor's other build")
	}
}

func TestStampedeCacheStaysBounded(t *testing.T) {
	s := newStampede()
	s.maxEntries = 8
	for i := 0; i < 100; i++ {
		fill(s, fromBuild("b1"), fmt.Sprintf("k-%d", i))
	}
	if n := len(s.entries); n != 8 || s.lru.Len() != 8 {
		t.Fatalf("stampede cache holds %d entries (%d in the LRU), want its cap of 8", n, s.lru.Len())
	}
}

func TestStampedeLRUOrderAtEntryCap(t *testing.T) {
	s := newStampede()
	s.maxEntries = 3
	sr := fromBuild("b1")
	fill(s, sr, "a", "b", "c")
	s.get("a", reporting("b1")) // a is now the most recent; b the least
	fill(s, sr, "d")
	if s.get("b", reporting("b1")) != nil {
		t.Fatal("the least recently used entry survived an insert at the cap")
	}
	for _, k := range []string{"a", "c", "d"} {
		if s.get(k, reporting("b1")) == nil {
			t.Fatalf("entry %q evicted out of LRU order", k)
		}
	}
	fill(s, sr, "e", "f") // evicts a, then c
	for k, want := range map[string]bool{"a": false, "c": false, "d": true, "e": true, "f": true} {
		if got := s.get(k, reporting("b1")) != nil; got != want {
			t.Errorf("entry %q resident = %v, want %v", k, got, want)
		}
	}
	if n := len(s.entries); n != 3 {
		t.Fatalf("cache holds %d entries, want its cap of 3", n)
	}
}

func TestStampedeByteCapHolds(t *testing.T) {
	// Entries never expire, so only the byte cap bounds a cache of large
	// bodies. One 1 MiB body shared by every entry keeps the test small;
	// the accounting charges each entry for it.
	s := newStampede()
	sr := fromBuild("b1")
	sr.body = make([]byte, stampedeMaxBodyBytes)
	const n = stampedeMaxBytes/stampedeMaxBodyBytes + 8
	if n > stampedeMaxEntries {
		t.Fatalf("%d entries would reach the entry cap of %d first", n, stampedeMaxEntries)
	}
	for i := 0; i < n; i++ {
		fill(s, sr, fmt.Sprintf("k-%d", i))
		if s.bytes > stampedeMaxBytes {
			t.Fatalf("after %d inserts the cache holds %d bytes, past its %d-byte cap", i+1, s.bytes, stampedeMaxBytes)
		}
	}
	if got := len(s.entries); got >= n || got == 0 {
		t.Fatalf("%d of %d entries resident, want the byte cap to have evicted some", got, n)
	}
	if s.get(fmt.Sprintf("k-%d", n-1), reporting("b1")) == nil || s.get("k-0", reporting("b1")) != nil {
		t.Fatal("the byte cap did not evict from the LRU tail")
	}
}

func TestStampedeOversizedBodyNotShared(t *testing.T) {
	s := newStampede()
	sr := fromBuild("b1")
	sr.body = make([]byte, stampedeMaxBodyBytes+1)
	f, _ := s.join("k")
	if s.complete("k", 0, f, sr) {
		t.Fatal("oversized body must not be inserted")
	}
	if f.sr != nil {
		t.Fatal("oversized body must not be replayed to followers")
	}
}

// TestStampedeConcurrentBuilds: goroutines fill and read the cache with
// answers and lookups of changing identities. However they interleave,
// a lookup is only ever served an answer of the identity it asked for.
func TestStampedeConcurrentBuilds(t *testing.T) {
	s := newStampede()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (g+i)%8)
				fill(s, fromBuild(fmt.Sprintf("b%d", (g+i)%3)), k)
				want := fmt.Sprintf("b%d", i%3)
				if sr := s.get(k, reporting(want)); sr != nil && sr.header.Get(headerBuild) != want {
					t.Errorf("lookup of %q under %s served an answer of %s", k, want, sr.header.Get(headerBuild))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if fill(s, fromBuild("b9"), "k0") != 1 || s.get("k0", reporting("b9")) == nil {
		t.Fatal("k0 not cached under b9 after the storm")
	}
	if n := s.len(); n != len(s.entries) || n > 8 {
		t.Fatalf("%d entries in the LRU and %d in the map, want equal and at most 8", n, len(s.entries))
	}
}
