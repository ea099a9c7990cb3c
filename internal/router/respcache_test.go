// White-box tests for the stampede layer: the verified-only
// shareability rule, singleflight leader/follower resolution, the
// answer-identity generation rule, and the LRU's entry and byte caps.
package router

import (
	"fmt"
	"net/http"
	"sync"
	"testing"

	"repro/internal/telemetry"
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

// member is a ring member whose latest answer carried build; "" means
// it has not answered yet.
func member(build string) *instance {
	in := &instance{}
	if build != "" {
		in.build.Store(build)
	}
	return in
}

// topoOf is observe's view of a ring of members.
func topoOf(members ...*instance) func() *topology {
	return func() *topology { return &topology{insts: members} }
}

// coherent returns a response cache over members, with the fleet
// identity already observed.
func coherent(members ...*instance) *stampede {
	s := newStampede(&telemetry.Counter{}, &telemetry.Counter{})
	s.observe(topoOf(members...))
	return s
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
		} else if s.complete(k, f, sr) {
			n++
		}
	}
	return n
}

func TestStampedeSingleflightResolution(t *testing.T) {
	s := coherent(member("b1"))

	f1, leader := s.join("k")
	if !leader {
		t.Fatal("first join must lead")
	}
	f2, leader2 := s.join("k")
	if leader2 || f2 != f1 {
		t.Fatal("second join must follow the existing flight")
	}

	sr := fromBuild("b1")
	if !s.complete("k", f1, sr) {
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
		if got := s.get("k"); got != sr {
			t.Fatal("shareable response not served from the cache")
		}
	}

	// A fresh flight for the same key leads again once resolved.
	if _, leader := s.join("k"); !leader {
		t.Fatal("key not released after complete")
	}
	if n := s.bypass.Value(); n != 0 {
		t.Fatalf("%d lookups counted as bypassed in a fleet with an identity", n)
	}
}

func TestStampedeUnshareableResolvesNilAndCachesNothing(t *testing.T) {
	s := coherent(member("b1"))
	f, _ := s.join("k")
	if s.complete("k", f, respWith(503, map[string]string{headerBuild: "b1"})) {
		t.Fatal("a 503 must not be inserted")
	}
	if f.sr != nil {
		t.Fatal("followers must see nil for an unshareable outcome")
	}
	if s.get("k") != nil || len(s.entries) != 0 {
		t.Fatal("unshareable outcome leaked into the cache")
	}
}

func TestStampedeIdentityBumpInvalidates(t *testing.T) {
	a, b := member("b1"), member("b1")
	s := coherent(a, b)
	if _, ident, gen := s.stats(); ident != "b1" || gen != 0 {
		t.Fatalf("identity = %q gen %d, want b1 gen 0", ident, gen)
	}
	if fill(s, fromBuild("b1"), "k1", "k2") != 2 || s.get("k1") == nil {
		t.Fatal("entries of the fleet's identity not cached")
	}
	// Two flights begin under b1 and end after the fleet moved to b2.
	old, straddled := s.join("k3")
	fresh, _ := s.join("k4")

	// A rolling deploy: one member answers with a new identity, then the
	// other. Leaving b1 drops every entry once; reaching b2 from the
	// mixed state bumps nothing more.
	a.build.Store("b2")
	s.observe(topoOf(a, b))
	if _, ident, gen := s.stats(); ident != "" || gen != 1 {
		t.Fatalf("mixed fleet: identity %q gen %d, want none and gen 1", ident, gen)
	}
	if s.get("k1") != nil || len(s.entries) != 0 {
		t.Fatal("an entry survived leaving its identity")
	}
	b.build.Store("b2")
	s.observe(topoOf(a, b))
	if _, ident, gen := s.stats(); ident != "b2" || gen != 1 {
		t.Fatalf("converged fleet: identity %q gen %d, want b2 gen 1", ident, gen)
	}
	if fill(s, fromBuild("b1"), "k1") != 0 {
		t.Fatal("a response from the old identity was inserted")
	}
	if fill(s, fromBuild("b2"), "k1") != 1 || s.get("k1") == nil {
		t.Fatal("the new identity's response was not cached")
	}
	// Of the straddling flights, only the answer of the identity the
	// fleet now has is kept; both reach their followers.
	if !straddled || s.complete("k3", old, fromBuild("b1")) || old.sr == nil || s.get("k3") != nil {
		t.Fatal("an old-identity answer of a flight that began before the bump was inserted")
	}
	if !s.complete("k4", fresh, fromBuild("b2")) || s.get("k4") == nil {
		t.Fatal("a current-identity answer of a flight that began before the bump was not inserted")
	}

	// Any change away from a known identity invalidates, a direct
	// b2 → b3 swap included.
	a.build.Store("b3")
	b.build.Store("b3")
	s.observe(topoOf(a, b))
	if _, ident, gen := s.stats(); ident != "b3" || gen != 2 || s.get("k1") != nil {
		t.Fatalf("b2 → b3: identity %q gen %d entry kept %v, want b3 gen 2 and no entry",
			ident, gen, s.get("k1") != nil)
	}
}

func TestStampedeMixedFleetBypassesButCoalesces(t *testing.T) {
	s := coherent(member("b1"), member("b2"))
	if _, ident, _ := s.stats(); ident != "" {
		t.Fatalf("members disagree, yet the fleet identity is %q", ident)
	}
	leader, _ := s.join("k")
	follower, lead := s.join("k")
	if lead || follower != leader {
		t.Fatal("a mixed fleet must still coalesce identical requests")
	}
	sr := fromBuild("b1")
	if s.complete("k", leader, sr) {
		t.Fatal("a mixed fleet must not insert")
	}
	if follower.sr != sr {
		t.Fatal("the follower was not handed the leader's response")
	}
	if s.get("k") != nil || len(s.entries) != 0 {
		t.Fatal("a mixed fleet served or kept an entry")
	}
	if n := s.bypass.Value(); n != 1 {
		t.Fatalf("bypassed lookups = %d, want the one get counted", n)
	}
}

func TestStampedeUnreportedMemberIgnored(t *testing.T) {
	quiet := member("")
	s := coherent(member("b1"), quiet)
	if _, ident, _ := s.stats(); ident != "b1" {
		t.Fatalf("identity %q, want b1: a member that has not answered must not count", ident)
	}
	if fill(s, fromBuild("b1"), "k") != 1 || s.get("k") == nil {
		t.Fatal("cache off while the only reporting member agrees with itself")
	}

	// Once it answers, it counts: agreeing keeps the entries, and
	// disagreeing is a mixed fleet.
	quiet.build.Store("b1")
	s.observe(topoOf(member("b1"), quiet))
	if _, ident, gen := s.stats(); ident != "b1" || gen != 0 || s.get("k") == nil {
		t.Fatalf("agreeing answer: identity %q gen %d, want b1 gen 0 with the entry kept", ident, gen)
	}
	quiet.build.Store("b2")
	s.observe(topoOf(member("b1"), quiet))
	if _, ident, gen := s.stats(); ident != "" || gen != 1 || s.get("k") != nil {
		t.Fatalf("disagreeing answer: identity %q gen %d, want none, gen 1 and no entry", ident, gen)
	}

	// With nobody reporting there is no identity and nothing is cached.
	if _, ident, _ := coherent(member(""), member("")).stats(); ident != "" {
		t.Fatalf("no member reported, yet the fleet identity is %q", ident)
	}
}

func TestStampedeCacheStaysBounded(t *testing.T) {
	s := coherent(member("b1"))
	s.maxEntries = 8
	for i := 0; i < 100; i++ {
		fill(s, fromBuild("b1"), fmt.Sprintf("k-%d", i))
	}
	if n := len(s.entries); n != 8 || s.lru.Len() != 8 {
		t.Fatalf("stampede cache holds %d entries (%d in the LRU), want its cap of 8", n, s.lru.Len())
	}
}

func TestStampedeLRUOrderAtEntryCap(t *testing.T) {
	s := coherent(member("b1"))
	s.maxEntries = 3
	sr := fromBuild("b1")
	fill(s, sr, "a", "b", "c")
	s.get("a") // a is now the most recent; b the least
	fill(s, sr, "d")
	if s.get("b") != nil {
		t.Fatal("the least recently used entry survived an insert at the cap")
	}
	for _, k := range []string{"a", "c", "d"} {
		if s.get(k) == nil {
			t.Fatalf("entry %q evicted out of LRU order", k)
		}
	}
	fill(s, sr, "e", "f") // evicts a, then c
	for k, want := range map[string]bool{"a": false, "c": false, "d": true, "e": true, "f": true} {
		if got := s.get(k) != nil; got != want {
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
	s := coherent(member("b1"))
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
	if s.get(fmt.Sprintf("k-%d", n-1)) == nil || s.get("k-0") != nil {
		t.Fatal("the byte cap did not evict from the LRU tail")
	}
}

func TestStampedeOversizedBodyNotShared(t *testing.T) {
	s := coherent(member("b1"))
	sr := fromBuild("b1")
	sr.body = make([]byte, stampedeMaxBodyBytes+1)
	f, _ := s.join("k")
	if s.complete("k", f, sr) {
		t.Fatal("oversized body must not be inserted")
	}
	if f.sr != nil {
		t.Fatal("oversized body must not be replayed to followers")
	}
}

// TestStampedeConcurrentObserve: members change identity while other
// goroutines fill and read the cache. However the reports interleave,
// the cache only ever holds answers of the fleet's current identity,
// and the last observe settles on the members' final one.
func TestStampedeConcurrentObserve(t *testing.T) {
	members := []*instance{member("b0"), member("b0")}
	topo := topoOf(members...)
	s := newStampede(&telemetry.Counter{}, &telemetry.Counter{})
	s.observe(topo)
	// incoherent reports an entry whose answer is not of the fleet's
	// current identity.
	incoherent := func() string {
		s.mu.Lock()
		defer s.mu.Unlock()
		for k, el := range s.entries {
			if got := el.Value.(*stampedeEntry).sr.header.Get(headerBuild); got != s.ident {
				return fmt.Sprintf("entry %q holds an answer of %q under identity %q", k, got, s.ident)
			}
		}
		return ""
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				members[(g+i)%2].build.Store(fmt.Sprintf("b%d", i%3))
				s.observe(topo)
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (g+i)%8)
				fill(s, fromBuild(fmt.Sprintf("b%d", i%3)), k)
				s.get(k)
				if msg := incoherent(); msg != "" {
					t.Error(msg)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, in := range members {
		in.build.Store("b9")
	}
	s.observe(topo)
	fill(s, fromBuild("b9"), "k0")
	if _, ident, _ := s.stats(); ident != "b9" || s.get("k0") == nil {
		t.Fatalf("fleet identity %q after the members settled on b9, want b9 with k0 cached", ident)
	}
	if msg := incoherent(); msg != "" {
		t.Fatal(msg)
	}
}
