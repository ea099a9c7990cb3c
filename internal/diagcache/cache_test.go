package diagcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func mkEntry(status, payload string) *Entry {
	return &Entry{
		DOT:            "dot:" + payload,
		SVG:            "svg:" + payload,
		Text:           "text:" + payload,
		Interpretation: "reading of " + payload,
		ReadingOrder:   []int{0},
		Tables:         1,
		VerifyStatus:   status,
	}
}

func TestCacheableStatus(t *testing.T) {
	cases := []struct {
		status, degraded string
		want             bool
	}{
		{"verified", "", true},
		{"off", "", true},
		{"verified", "simplified", false}, // degraded results never cache
		{"off", "trc", false},
		{"skipped", "", false},
		{"mismatch", "", false},
		{"ambiguous", "", false},
		{"budget_exhausted", "", false},
		{"timeout", "", false},
		{"error", "", false},
		{"", "", false},
	}
	for _, c := range cases {
		if got := CacheableStatus(c.status, c.degraded); got != c.want {
			t.Errorf("CacheableStatus(%q, %q) = %v, want %v", c.status, c.degraded, got, c.want)
		}
	}
}

func TestPutAndLookups(t *testing.T) {
	c := New(Config{MaxEntries: 8})
	e := mkEntry("verified", "p1")
	if !c.Put("key1", e) {
		t.Fatal("Put rejected a verified entry")
	}
	got, ok := c.Get("key1", true)
	if !ok || got != e {
		t.Fatalf("Get = %v, %v; want the inserted entry", got, ok)
	}
	if _, ok := c.Get("never-seen", false); ok {
		t.Fatal("Get hit an unknown key")
	}

	// Uncacheable statuses are rejected at the single insertion point.
	for _, status := range []string{"skipped", "mismatch", "timeout", ""} {
		if c.Put("keyX", mkEntry(status, "x")) {
			t.Errorf("Put accepted status %q", status)
		}
	}
	if _, ok := c.Get("keyX", false); ok {
		t.Fatal("rejected entry is somehow resident")
	}
}

func TestWantVerifiedAcceptance(t *testing.T) {
	c := New(Config{MaxEntries: 8})
	c.Put("key", mkEntry("off", "unproven"))

	if _, ok := c.Get("key", true); ok {
		t.Fatal("a wantVerified lookup accepted an unverified entry")
	}
	if _, ok := c.Get("key", false); !ok {
		t.Fatal("a verify-off lookup rejected an 'off' entry")
	}

	// A verified build replaces the unverified entry (counted as a
	// replace-eviction), and then serves both kinds of lookup.
	ver := mkEntry("verified", "proven")
	if !c.Put("key", ver) {
		t.Fatal("verified Put rejected")
	}
	for _, want := range []bool{true, false} {
		if e, ok := c.Get("key", want); !ok || e != ver {
			t.Fatalf("verified entry did not replace the unverified one (wantVerified %v)", want)
		}
	}
	if n := int64(c.reg.Value(MetricEvictions, "cause", EvictReplace)); n != 1 {
		t.Fatalf("replace evictions = %d, want 1", n)
	}

	// An unverified build must never downgrade a verified entry.
	if c.Put("key", mkEntry("off", "weaker")) {
		t.Fatal("an 'off' entry downgraded a verified one")
	}
	if e, ok := c.Get("key", true); !ok || e != ver {
		t.Fatal("verified entry lost after downgrade attempt")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(Config{MaxEntries: 2, Shards: 1})
	c.Put("p1", mkEntry("verified", "1"))
	c.Put("p2", mkEntry("verified", "2"))
	if _, ok := c.Get("p1", true); !ok { // touch p1: p2 becomes LRU
		t.Fatal("p1 missing before eviction")
	}
	c.Put("p3", mkEntry("verified", "3"))

	if _, ok := c.Get("p2", true); ok {
		t.Fatal("LRU entry p2 survived over-capacity insert")
	}
	if _, ok := c.Get("p1", true); !ok {
		t.Fatal("recently used p1 was evicted")
	}
	if _, ok := c.Get("p3", true); !ok {
		t.Fatal("fresh p3 missing")
	}
	if n := int64(c.reg.Value(MetricEvictions, "cause", EvictLRU)); n != 1 {
		t.Fatalf("lru evictions = %d, want 1", n)
	}
	st := c.Stats()
	if st.Entries != 2 {
		t.Fatalf("entries gauge = %d, want 2", st.Entries)
	}
}

func TestBytesBound(t *testing.T) {
	big := mkEntry("verified", string(make([]byte, 4096)))
	c := New(Config{MaxEntries: 1024, MaxBytes: 2 * big.size(), Shards: 1})
	c.Put("p1", mkEntry("verified", string(make([]byte, 4096))))
	c.Put("p2", mkEntry("verified", string(make([]byte, 4096))))
	c.Put("p3", mkEntry("verified", string(make([]byte, 4096))))
	if got := c.Stats().Entries; got > 2 {
		t.Fatalf("bytes bound did not evict: %d entries resident", got)
	}
	if c.Stats().Bytes > c.cfg.MaxBytes {
		t.Fatalf("resident bytes %d exceed bound %d", c.Stats().Bytes, c.cfg.MaxBytes)
	}

	// A single entry larger than the bound still resides (the bound
	// never evicts the only entry), keeping the cache useful rather than
	// thrashing on every insert.
	tiny := New(Config{MaxEntries: 16, MaxBytes: 16, Shards: 1})
	tiny.Put("huge", mkEntry("verified", string(make([]byte, 1024))))
	if _, ok := tiny.Get("huge", true); !ok {
		t.Fatal("oversized single entry was evicted to an empty cache")
	}
}

// TestKeyHoldsEveryInput: each input that decides a response's bytes
// changes the key, so no two requests that may differ share an entry.
func TestKeyHoldsEveryInput(t *testing.T) {
	base := Key("beers", false, false, "limits-a", "SELECT 1")
	for name, k := range map[string]string{
		"schema":     Key("sailors", false, false, "limits-a", "SELECT 1"),
		"simplify":   Key("beers", true, false, "limits-a", "SELECT 1"),
		"keepExists": Key("beers", false, true, "limits-a", "SELECT 1"),
		"config":     Key("beers", false, false, "limits-b", "SELECT 1"),
		"sql":        Key("beers", false, false, "limits-a", "SELECT 2"),
	} {
		if k == base {
			t.Errorf("changing %s left the key unchanged", name)
		}
	}
	if Key("beers", false, false, "limits-a", "SELECT 1") != base {
		t.Error("the same request keyed twice differently")
	}
}

// getOrBuild is the test harness shorthand: verified build of payload
// under key.
func getOrBuild(c *Cache, ctx context.Context, key, payload string, builds *atomic.Int64) (*Entry, Outcome, error) {
	return c.GetOrBuild(ctx, key, "degrade", true, false,
		func(context.Context) (*Entry, error) {
			if builds != nil {
				builds.Add(1)
			}
			return mkEntry("verified", payload), nil
		})
}

func TestGetOrBuildOutcomes(t *testing.T) {
	c := New(Config{MaxEntries: 8})
	ctx := context.Background()
	var builds atomic.Int64

	e1, out, err := getOrBuild(c, ctx, "key-a", "v", &builds)
	if err != nil || out != OutcomeMiss || e1 == nil {
		t.Fatalf("first call: %v, %v, %v; want miss", e1, out, err)
	}
	e2, out, _ := getOrBuild(c, ctx, "key-a", "v", &builds)
	if out != OutcomeHit || e2 != e1 {
		t.Fatalf("repeat key: outcome %v, want hit with the same entry", out)
	}
	// Another key is another entry, whatever its build would share.
	e3, out, _ := getOrBuild(c, ctx, "key-b", "v2", &builds)
	if out != OutcomeMiss || e3 == e1 || e3.DOT != "dot:v2" {
		t.Fatalf("second key: outcome %v, want a miss with its own entry", out)
	}
	if builds.Load() != 2 {
		t.Fatalf("builds = %d, want exactly 2", builds.Load())
	}

	// Build error → uncacheable with the error surfaced.
	buildErr := errors.New("parse exploded")
	_, out, err = c.GetOrBuild(ctx, "key-d", "degrade", true, false,
		func(context.Context) (*Entry, error) { return nil, buildErr })
	if !errors.Is(err, buildErr) || out != OutcomeUncacheable {
		t.Fatalf("build error: %v, %v", out, err)
	}

	// Uncacheable build (nil, nil) → nothing inserted.
	_, out, err = c.GetOrBuild(ctx, "key-e", "degrade", true, false,
		func(context.Context) (*Entry, error) { return nil, nil })
	if err != nil || out != OutcomeUncacheable {
		t.Fatalf("uncacheable build: %v, %v", out, err)
	}
	if _, ok := c.Get("key-e", false); ok {
		t.Fatal("uncacheable build inserted an entry")
	}
}

func TestSingleflightCollapse(t *testing.T) {
	c := New(Config{MaxEntries: 8})
	const followers = 8
	var builds atomic.Int64
	release := make(chan struct{})

	// The leader's build blocks until every follower is accounted for in
	// the singleflight-wait counter, making hit_flight deterministic.
	build := func(context.Context) (*Entry, error) {
		builds.Add(1)
		<-release
		return mkEntry("verified", "shared"), nil
	}

	type res struct {
		e   *Entry
		out Outcome
		err error
	}
	results := make(chan res, followers+1)
	var wg sync.WaitGroup
	for i := 0; i <= followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, out, err := c.GetOrBuild(context.Background(), "key", "degrade", true, false, build)
			results <- res{e, out, err}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.cSFWaits.Value() < followers {
		if time.Now().After(deadline) {
			t.Fatal("followers never queued behind the leader")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(results)

	var miss, flight int
	var shared *Entry
	for r := range results {
		if r.err != nil {
			t.Fatalf("unexpected error: %v", r.err)
		}
		if shared == nil {
			shared = r.e
		}
		if r.e != shared {
			t.Fatal("callers received different entries")
		}
		switch r.out {
		case OutcomeMiss:
			miss++
		case OutcomeHitFlight:
			flight++
		default:
			t.Fatalf("unexpected outcome %v", r.out)
		}
	}
	if miss != 1 || flight != followers {
		t.Fatalf("miss=%d flight=%d, want 1 and %d", miss, flight, followers)
	}
	if builds.Load() != 1 || c.cBuilds.Value() != 1 {
		t.Fatalf("builds = %d (metric %d), want exactly 1", builds.Load(), c.cBuilds.Value())
	}
}

func TestFlightClassPartitioning(t *testing.T) {
	// A strict leader's failure must not be replayed onto a degrade
	// follower: the two modes fly separately.
	c := New(Config{MaxEntries: 8})
	strictEntered := make(chan struct{})
	strictRelease := make(chan struct{})
	strictDone := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrBuild(context.Background(), "key", "strict", true, false,
			func(context.Context) (*Entry, error) {
				close(strictEntered)
				<-strictRelease
				return nil, errors.New("strict verification failed")
			})
		strictDone <- err
	}()
	<-strictEntered

	e, out, err := getOrBuild(c, context.Background(), "key", "ok", nil)
	if err != nil || e == nil || out != OutcomeMiss {
		t.Fatalf("degrade caller was coupled to the strict flight: %v, %v, %v", e, out, err)
	}
	close(strictRelease)
	if err := <-strictDone; err == nil {
		t.Fatal("strict leader's error was lost")
	}
}

// TestFollowerOfUncacheableLeaderBuildsItself: followers of a leader
// whose build was uncacheable run their own build through the same
// closure, so every caller holds its own result.
func TestFollowerOfUncacheableLeaderBuildsItself(t *testing.T) {
	c := New(Config{MaxEntries: 8})
	const followers = 4
	var builds atomic.Int64
	release := make(chan struct{})
	build := func(context.Context) (*Entry, error) {
		if builds.Add(1) == 1 {
			<-release // the leader holds the flight until everyone waits
		}
		return nil, nil
	}
	var wg sync.WaitGroup
	outs := make(chan Outcome, followers+1)
	for i := 0; i <= followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, out, err := c.GetOrBuild(context.Background(), "key", "degrade", true, false, build)
			if e != nil || err != nil {
				t.Errorf("uncacheable build served entry %v, err %v", e != nil, err)
			}
			outs <- out
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.cSFWaits.Value() < followers {
		if time.Now().After(deadline) {
			t.Fatal("followers never queued behind the leader")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(outs)
	for out := range outs {
		if out != OutcomeUncacheable {
			t.Fatalf("outcome %v, want uncacheable", out)
		}
	}
	if n := builds.Load(); n != followers+1 {
		t.Fatalf("builds = %d, want one per caller (%d)", n, followers+1)
	}
	if _, ok := c.Get("key", false); ok {
		t.Fatal("an uncacheable build inserted an entry")
	}
}

// TestNilCacheBuilds: a nil cache serves every request from its own
// build and counts nothing.
func TestNilCacheBuilds(t *testing.T) {
	var c *Cache
	ran := false
	e, out, err := c.GetOrBuild(context.Background(), "key", "degrade", true, false,
		func(context.Context) (*Entry, error) { ran = true; return mkEntry("verified", "x"), nil })
	if !ran || e != nil || out != OutcomeBypass || err != nil {
		t.Fatalf("nil cache: ran %v, entry %v, outcome %v, err %v", ran, e != nil, out, err)
	}
}

func TestFollowerOutlivesDeadLeader(t *testing.T) {
	c := New(Config{MaxEntries: 8})
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	entered := make(chan struct{})

	go func() {
		_, _, _ = c.GetOrBuild(leaderCtx, "key", "degrade", true, false,
			func(ctx context.Context) (*Entry, error) {
				close(entered)
				<-ctx.Done() // die mid-build
				return nil, ctx.Err()
			})
	}()
	<-entered
	followerDone := make(chan struct{})
	var (
		e   *Entry
		out Outcome
		err error
	)
	go func() {
		defer close(followerDone)
		e, out, err = getOrBuild(c, context.Background(), "key", "rebuilt", nil)
	}()
	// Give the follower a moment to queue behind the doomed leader, then
	// kill the leader; the follower must take over, not inherit the
	// cancellation.
	time.Sleep(10 * time.Millisecond)
	cancelLeader()
	select {
	case <-followerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("follower never completed after leader death")
	}
	if err != nil || e == nil {
		t.Fatalf("follower inherited the dead leader's fate: %v, %v", out, err)
	}
}

func TestStats(t *testing.T) {
	c := New(Config{MaxEntries: 4})
	ctx := context.Background()
	getOrBuild(c, ctx, "k1", "1", nil) // miss
	getOrBuild(c, ctx, "k1", "1", nil) // hit
	getOrBuild(c, ctx, "k1", "1", nil) // hit
	if e, out, _ := c.GetOrBuild(ctx, "k1", "degrade", true, true,
		func(context.Context) (*Entry, error) { return nil, nil }); e != nil || out != OutcomeBypass {
		t.Fatalf("bypass: entry %v, outcome %v; want no entry, bypass", e != nil, out)
	}

	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Builds != 1 {
		t.Fatalf("stats = %+v; want hits=2 misses=1 builds=1", st)
	}
	if st.Entries != 1 || st.Bytes <= 0 {
		t.Fatalf("occupancy = %+v", st)
	}
	if n := int64(c.reg.Value(MetricRequests, "outcome", string(OutcomeBypass))); n != 1 {
		t.Fatalf("bypass count = %d, want 1", n)
	}
}

func TestConcurrentChurn(t *testing.T) {
	// Tiny capacity, many keys, many goroutines: exercises the
	// eviction/insert interleavings under the race detector. The
	// assertion is absence of deadlock and torn state; byte-identity per
	// key is checked at the end.
	c := New(Config{MaxEntries: 2, Shards: 1, MaxBytes: -1})
	const keys, workers, rounds = 6, 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				p := fmt.Sprintf("key%d", (w+i)%keys)
				e, _, err := getOrBuild(c, context.Background(), p, p, nil)
				if err != nil {
					t.Errorf("churn error: %v", err)
					return
				}
				if e != nil && e.DOT != "dot:"+p {
					t.Errorf("key %s served foreign bytes %q", p, e.DOT)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := c.Stats(); st.Entries > 2 {
		t.Fatalf("capacity bound violated: %d entries", st.Entries)
	}
}
