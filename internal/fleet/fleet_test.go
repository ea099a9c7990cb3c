package fleet

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/leak"
	"repro/internal/router"
	"repro/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// fakeRing is an in-memory Ring with scriptable member health and
// in-flight counts, so the reconcile loop can be stepped
// deterministically without a router.
type fakeRing struct {
	mu      sync.Mutex
	epoch   uint64
	order   []string
	members map[string]*router.InstanceState
	ops     []string // "join URL", "drain URL", "eject URL"
}

func newFakeRing() *fakeRing {
	return &fakeRing{members: make(map[string]*router.InstanceState)}
}

// add seeds a member directly, bypassing the op log — "the ring already
// looked like this when the supervisor arrived".
func (f *fakeRing) add(url string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.members[url] = &router.InstanceState{URL: url, Healthy: true}
	f.order = append(f.order, url)
}

func (f *fakeRing) setHealthy(url string, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if in := f.members[url]; in != nil {
		in.Healthy = ok
	}
}

func (f *fakeRing) setInflight(url string, n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if in := f.members[url]; in != nil {
		in.Inflight = n
	}
}

func (f *fakeRing) has(url string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.members[url] != nil
}

func (f *fakeRing) draining(url string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	in := f.members[url]
	return in != nil && in.Draining
}

func (f *fakeRing) opCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.ops)
}

func (f *fakeRing) State() router.State {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := router.State{Status: "ok", Epoch: f.epoch}
	for _, url := range f.order {
		st.Instances = append(st.Instances, *f.members[url])
	}
	return st
}

func (f *fakeRing) Join(url string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops = append(f.ops, "join "+url)
	if f.members[url] != nil {
		return errors.New("already a member")
	}
	// A newcomer starts unhealthy, as on the router, until its prober
	// admits it; the fake has no prober, so it stays that way.
	f.members[url] = &router.InstanceState{URL: url}
	f.order = append(f.order, url)
	f.epoch++
	return nil
}

func (f *fakeRing) Drain(url string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops = append(f.ops, "drain "+url)
	in := f.members[url]
	if in == nil {
		return router.ErrUnknownMember
	}
	in.Draining = true
	return nil
}

func (f *fakeRing) Eject(url string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops = append(f.ops, "eject "+url)
	if f.members[url] == nil {
		return router.ErrUnknownMember
	}
	delete(f.members, url)
	for i, u := range f.order {
		if u == url {
			f.order = append(f.order[:i], f.order[i+1:]...)
			break
		}
	}
	f.epoch++
	return nil
}

// memberURLs returns n distinct member URLs. The supervisor sends no
// requests, so nothing has to listen on them.
func memberURLs(n int) []string {
	urls := make([]string, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://127.0.0.1:%d", 9001+i)
	}
	return urls
}

// fakeSource is a scriptable desired-state Source.
type fakeSource struct {
	mu      sync.Mutex
	members []Member
	err     error
}

func (f *fakeSource) set(urls ...string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.members = f.members[:0]
	for _, u := range urls {
		f.members = append(f.members, Member{URL: u})
	}
	f.err = nil
}

func (f *fakeSource) fail(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.err = err
}

func (f *fakeSource) Desired(context.Context) ([]Member, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return nil, f.err
	}
	return append([]Member(nil), f.members...), nil
}

// newTestSup builds a supervisor with fast, deterministic settings.
func newTestSup(t *testing.T, ring Ring, src Source, mut func(*Config)) *Supervisor {
	t.Helper()
	cfg := Config{
		Ring:         ring,
		Source:       src,
		MinHealthy:   1,
		DrainTimeout: time.Nanosecond,
		Metrics:      telemetry.NewRegistry(),
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func tick(s *Supervisor, n int) {
	for range n {
		s.ReconcileOnce(context.Background())
	}
}

// TestJoinsEveryDesiredMemberAtOnce: the first tick joins every desired
// member, before anything has probed it. A newcomer the ring keeps
// unhealthy stays on the ring: admission is the router's call.
func TestJoinsEveryDesiredMemberAtOnce(t *testing.T) {
	defer leak.Check(t)()
	u := memberURLs(2)
	fr := newFakeRing()
	src := &fakeSource{}
	src.set(u...)
	s := newTestSup(t, fr, src, nil)

	tick(s, 1)
	if !fr.has(u[0]) || !fr.has(u[1]) {
		t.Fatal("both desired members should be on the ring after the first tick")
	}
	tick(s, 5)
	if n := fr.opCount(); n != 2 {
		t.Fatalf("%d ring operations, want the 2 joins only", n)
	}
	if got := s.reg.Value(mActions, "action", "join"); got != 2 {
		t.Fatalf("join actions = %v, want 2", got)
	}
	st := s.Status()
	if st.ActionCounts["join"] != 2 || len(st.Desired) != 2 {
		t.Fatalf("status = %+v, want 2 joins and 2 desired", st)
	}
}

// TestRingHealthNeverMovesMembership: the router's verdicts decide who
// serves, never who is a member. A dead member and a flapping one stay
// on the ring, undrained, with no action recorded.
func TestRingHealthNeverMovesMembership(t *testing.T) {
	defer leak.Check(t)()
	u := memberURLs(3)
	fr := newFakeRing()
	for _, url := range u {
		fr.add(url)
	}
	src := &fakeSource{}
	src.set(u...)
	s := newTestSup(t, fr, src, nil)

	fr.setHealthy(u[0], false)
	for i := range 10 {
		fr.setHealthy(u[1], i%2 == 0)
		tick(s, 1)
	}
	if n := fr.opCount(); n != 0 {
		t.Fatalf("ring health changes caused %d ring operations, want 0", n)
	}
	if st := s.Status(); len(st.Actions) != 0 {
		t.Fatalf("supervisor acted on health: %+v", st.Actions)
	}
}

// TestReaddedMemberRejoins: a member dropped from the spec is drained;
// re-added before its removal, its drain still finishes, and the next
// tick joins it again.
func TestReaddedMemberRejoins(t *testing.T) {
	defer leak.Check(t)()
	u := memberURLs(2)
	fr := newFakeRing()
	fr.add(u[0])
	fr.add(u[1])
	src := &fakeSource{}
	src.set(u[0])
	s := newTestSup(t, fr, src, func(c *Config) { c.DrainTimeout = time.Hour })

	tick(s, 1)
	if !fr.draining(u[1]) {
		t.Fatal("the dropped member should be draining")
	}
	src.set(u...)
	tick(s, 1)
	if fr.has(u[1]) {
		t.Fatal("the idle draining member should have been ejected")
	}
	tick(s, 1)
	if !fr.has(u[1]) || fr.draining(u[1]) {
		t.Fatal("the re-added member should have rejoined")
	}
	st := s.Status()
	want := map[string]int64{"remove": 1, "drained": 1, "join": 1}
	for action, n := range want {
		if st.ActionCounts[action] != n {
			t.Fatalf("action %q count = %d, want %d (all: %v)", action, st.ActionCounts[action], n, st.ActionCounts)
		}
	}
}

func TestBudgetLastMember(t *testing.T) {
	defer leak.Check(t)()
	u := memberURLs(1)
	fr := newFakeRing()
	fr.add(u[0])
	src := &fakeSource{}
	src.set() // desired: nobody

	s := newTestSup(t, fr, src, nil)
	tick(s, 3)
	if !fr.has(u[0]) || fr.draining(u[0]) {
		t.Fatal("the last ring member must never be drained")
	}
	if got := s.reg.Value(mDenied, "reason", "last_member"); got < 1 {
		t.Fatalf("last_member denials = %v, want >= 1", got)
	}
	if s.Status().BudgetDenied["last_member"] < 1 {
		t.Fatal("status should surface the last_member denial")
	}
}

func TestBudgetDrainConcurrency(t *testing.T) {
	defer leak.Check(t)()
	u := memberURLs(3)
	fr := newFakeRing()
	for _, url := range u {
		fr.add(url)
	}
	src := &fakeSource{}
	src.set(u[0])
	s := newTestSup(t, fr, src, func(c *Config) {
		c.DrainTimeout = time.Hour // keep the first drain pending
	})

	tick(s, 1)
	d1, d2 := fr.draining(u[1]), fr.draining(u[2])
	if !d1 || d2 {
		t.Fatalf("exactly the first undesired member should drain (got %v, %v); maxConcurrentDrains=1", d1, d2)
	}
	if got := s.reg.Value(mDenied, "reason", "drain_concurrency"); got != 1 {
		t.Fatalf("drain_concurrency denials = %v, want 1", got)
	}
}

func TestBudgetMinHealthy(t *testing.T) {
	defer leak.Check(t)()
	u := memberURLs(2)
	fr := newFakeRing()
	fr.add(u[0])
	fr.add(u[1])
	src := &fakeSource{}
	src.set(u[0])
	s := newTestSup(t, fr, src, func(c *Config) {
		c.MinHealthy = 2
		c.DrainTimeout = time.Hour
	})

	tick(s, 2)
	if fr.draining(u[1]) {
		t.Fatal("draining a ring-healthy member below the MinHealthy floor must be refused")
	}
	if got := s.reg.Value(mDenied, "reason", "min_healthy"); got < 1 {
		t.Fatalf("min_healthy denials = %v, want >= 1", got)
	}

	// Once the ring itself marks the member unhealthy, removing it costs
	// no serving capacity — it must be removable even below the floor.
	fr.setHealthy(u[1], false)
	tick(s, 1)
	if !fr.draining(u[1]) {
		t.Fatal("a ring-unhealthy member must be removable below the MinHealthy floor")
	}
}

// TestBudgetCountsForwardedFailures: the disruption budget counts the
// verdict the router routes by. Member B's healthz passes but every
// request forwarded to it gets a 503. Once traffic has taken B out of
// rotation, A is the only member that serves, so dropping A from the
// spec must be refused with min_healthy rather than draining it.
func TestBudgetCountsForwardedFailures(t *testing.T) {
	defer leak.Check(t)()
	a := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"diagram":"digraph {}"}`)
	}))
	defer a.Close()
	b := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		http.Error(w, `{"error":{"category":"overloaded","message":"sick"}}`, http.StatusServiceUnavailable)
	}))
	defer b.Close()
	rt, err := router.New(router.Config{
		Backends:       []string{a.URL, b.URL},
		HealthInterval: time.Hour, // no later probe round readmits B
		Metrics:        telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt)
	defer front.Close()
	src := &fakeSource{}
	src.set(a.URL, b.URL)
	s := newTestSup(t, rt, src, func(c *Config) { c.DrainTimeout = time.Hour })
	tick(s, 1)

	// Fresh keys until the router holds B out of rotation.
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; rt.State().Status != "degraded"; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("B never left rotation: %+v", rt.State())
		}
		resp, err := http.Post(front.URL+"/v1/diagram", "application/json",
			strings.NewReader(fmt.Sprintf(`{"sql":"SELECT %d"}`, i)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	src.set(b.URL)
	tick(s, 2)
	serving := false
	for _, in := range rt.State().Instances {
		serving = serving || (in.URL == a.URL && !in.Draining)
	}
	if !serving {
		t.Fatalf("A drained while B was out of rotation: the budget counted B as serving (%+v)", s.Status().Actions)
	}
	if got := s.reg.Value(mDenied, "reason", "min_healthy"); got < 1 {
		t.Fatalf("min_healthy denials = %v, want >= 1", got)
	}
}

func TestRemoveUndesiredMember(t *testing.T) {
	defer leak.Check(t)()
	u := memberURLs(2)
	keep, extra := u[0], u[1]
	fr := newFakeRing()
	fr.add(keep)
	fr.add(extra)
	src := &fakeSource{}
	src.set(keep) // extra is on the ring but not desired
	fr.setInflight(extra, 1)
	s := newTestSup(t, fr, src, nil)

	tick(s, 1)
	if !fr.draining(extra) {
		t.Fatal("undesired member should be draining after the first reconcile")
	}
	tick(s, 1) // escalation past DrainTimeout with a request in flight
	if fr.has(extra) {
		t.Fatal("undesired member should be ejected once its drain escalates")
	}
	if !fr.has(keep) {
		t.Fatal("desired member must survive")
	}
	st := s.Status()
	if st.ActionCounts["remove"] != 1 || st.ActionCounts["eject"] != 1 {
		t.Fatalf("action counts = %v, want remove=1 eject=1", st.ActionCounts)
	}
}

// TestDrainCompletesOnceIdle: the supervisor finishes the drains it
// starts. A drain started this tick is not finished this tick, even at
// zero in flight; a member with requests in flight stays on the ring;
// the first later tick that reads it idle ejects it as "drained", not
// as an escalated "eject".
func TestDrainCompletesOnceIdle(t *testing.T) {
	defer leak.Check(t)()
	u := memberURLs(2)
	keep, extra := u[0], u[1]
	fr := newFakeRing()
	fr.add(keep)
	fr.add(extra)
	src := &fakeSource{}
	src.set(keep)
	s := newTestSup(t, fr, src, func(c *Config) { c.DrainTimeout = time.Hour })

	tick(s, 1)
	if !fr.draining(extra) {
		t.Fatal("undesired member should be draining after the first reconcile")
	}
	fr.setInflight(extra, 2)
	tick(s, 2)
	if !fr.has(extra) {
		t.Fatal("a draining member with requests in flight was removed")
	}
	fr.setInflight(extra, 0)
	tick(s, 1)
	if fr.has(extra) {
		t.Fatal("an idle draining member should be ejected on the next tick")
	}
	st := s.Status()
	if st.ActionCounts["remove"] != 1 || st.ActionCounts["drained"] != 1 || st.ActionCounts["eject"] != 0 {
		t.Fatalf("action counts = %v, want remove=1 drained=1 eject=0", st.ActionCounts)
	}
	if got := s.reg.Value(mActions, "action", "drained"); got != 1 {
		t.Fatalf("drained actions metric = %v, want 1", got)
	}

	// At zero in flight from the start, the tick that starts a drain
	// still leaves the member on the ring.
	fr2 := newFakeRing()
	fr2.add(keep)
	fr2.add(extra)
	s2 := newTestSup(t, fr2, src, func(c *Config) { c.DrainTimeout = time.Hour })
	tick(s2, 1)
	if !fr2.has(extra) || !fr2.draining(extra) {
		t.Fatal("a drain was finished on the tick that started it")
	}
	tick(s2, 1)
	if fr2.has(extra) {
		t.Fatal("an idle draining member should be ejected on the tick after the drain started")
	}
}

// TestSpecURLsNormalizedToRing: the supervisor keys members by the
// router's normalized URL. A spec whose URLs carry a trailing slash
// names the same two members a real router already holds, so a healthy
// ring is left alone: the epoch stays 1 and no action is recorded. A
// desired set with an invalid URL or two URLs that normalize alike is a
// source error and keeps the last good set.
func TestSpecURLsNormalizedToRing(t *testing.T) {
	defer leak.Check(t)()
	ok := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
	b1, b2 := httptest.NewServer(ok), httptest.NewServer(ok)
	defer b1.Close()
	defer b2.Close()
	fi1, fi2 := b1.URL, b2.URL
	rt, err := router.New(router.Config{
		Backends:       []string{fi1, fi2},
		HealthInterval: 10 * time.Millisecond,
		Metrics:        telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	src := &fakeSource{}
	src.set(fi1+"/", fi2+"/")
	s := newTestSup(t, rt, src, nil)

	tick(s, 12)
	if ep := rt.State().Epoch; ep != 1 {
		t.Fatalf("ring epoch = %d after 12 ticks over an unchanged fleet, want 1", ep)
	}
	st := s.Status()
	if len(st.Actions) != 0 {
		t.Fatalf("supervisor acted on a healthy ring: %+v (denials %v)", st.Actions, st.BudgetDenied)
	}
	if len(st.Desired) != 2 || st.Desired[0] != fi1 || st.Desired[1] != fi2 {
		t.Fatalf("desired = %v, want the normalized URLs", st.Desired)
	}

	for i, bad := range [][]string{
		{fi1, fi1 + "/"}, // duplicate once normalized
		{fi1, "ftp://127.0.0.1:1"},
		{fi1, ""}, // a spec entry without a url
	} {
		src.set(bad...)
		tick(s, 1)
		if got := s.reg.Value(mReconcileErr, "kind", "source"); got != float64(i+1) {
			t.Fatalf("%v: source errors = %v, want %d", bad, got, i+1)
		}
		if d := s.Status().Desired; len(d) != 2 {
			t.Fatalf("%v: desired = %v, want the last good set", bad, d)
		}
	}
	if ep := rt.State().Epoch; ep != 1 || len(s.Status().Actions) != 0 {
		t.Fatalf("a rejected desired set changed the ring: epoch %d, actions %+v", ep, s.Status().Actions)
	}
}

func TestSourceErrorKeepsLastGoodSet(t *testing.T) {
	defer leak.Check(t)()
	fi := memberURLs(1)[0]
	fr := newFakeRing()
	src := &fakeSource{}
	src.set(fi)
	s := newTestSup(t, fr, src, nil)

	tick(s, 2)
	if !fr.has(fi) {
		t.Fatal("setup: member should have joined")
	}

	src.fail(errors.New("torn spec file"))
	tick(s, 3)
	if !fr.has(fi) || fr.draining(fi) {
		t.Fatal("a source error must not read as scale-to-zero; last good set should hold")
	}
	st := s.Status()
	if len(st.Desired) != 1 || st.Desired[0] != fi {
		t.Fatalf("desired set = %v, want last good [%s]", st.Desired, fi)
	}
	if got := s.reg.Value(mReconcileErr, "kind", "source"); got != 3 {
		t.Fatalf("source error counter = %v, want 3", got)
	}
}

func TestSourceNeverGoodHoldsOff(t *testing.T) {
	defer leak.Check(t)()
	u := memberURLs(2)
	fi, fi2 := u[0], u[1]
	// Two seeded members: with only one, the last-member budget rule
	// would mask the regression this test exists to catch.
	fr := newFakeRing()
	fr.add(fi)
	fr.add(fi2)
	src := &fakeSource{}
	src.fail(errors.New("spec missing at boot"))
	s := newTestSup(t, fr, src, nil)

	// The source has never succeeded: the ring members the router was
	// seeded with must not be read as undesired and drained.
	tick(s, 4)
	if got := fr.opCount(); got != 0 {
		t.Fatalf("ring ops before first good read = %d, want 0", got)
	}
	if !fr.has(fi) || fr.draining(fi) {
		t.Fatal("seeded members must be untouched while the source has never succeeded")
	}
	if got := s.reg.Value(mReconciles); got != 4 {
		t.Fatalf("reconcile ticks = %v, want 4 (held-off ticks still count)", got)
	}

	// First good read unfreezes the loop.
	src.set(fi, fi2)
	tick(s, 2)
	st := s.Status()
	if len(st.Desired) != 2 {
		t.Fatalf("desired set after recovery = %v, want both members", st.Desired)
	}
	if !fr.has(fi) || !fr.has(fi2) {
		t.Fatal("members must stay on the ring after the source recovers")
	}
}

func TestSpecSource(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	good := write("good.json", `{"instances": [
		{"url": "http://127.0.0.1:8081"},
		{"url": "http://127.0.0.1:8082", "args": ["-cache-entries", "512"]}
	]}`)
	ms, err := (&SpecSource{Path: good}).Desired(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || ms[1].URL != "http://127.0.0.1:8082" || len(ms[1].Args) != 2 {
		t.Fatalf("parsed spec = %+v", ms)
	}

	if _, err := (&SpecSource{Path: write("torn.json", `{"instances": [{"url": "http://a`)}).Desired(context.Background()); err == nil {
		t.Error("torn.json: want error, got none")
	}
	if _, err := (&SpecSource{Path: filepath.Join(dir, "absent.json")}).Desired(context.Background()); err == nil {
		t.Error("absent file: want error, got none")
	}
}

// fakeResolver scripts SRV answers.
type fakeResolver struct {
	addrs []*net.SRV
	err   error
}

func (f *fakeResolver) LookupSRV(context.Context, string, string, string) (string, []*net.SRV, error) {
	return "", f.addrs, f.err
}

func TestSRVSource(t *testing.T) {
	src := &SRVSource{
		Resolver: &fakeResolver{addrs: []*net.SRV{
			{Target: "b.fleet.internal.", Port: 8082},
			{Target: "a.fleet.internal.", Port: 8081},
			{Target: "b.fleet.internal.", Port: 8082}, // duplicate answer
		}},
		Service: "queryvis", Proto: "tcp", Name: "fleet.internal",
	}
	ms, err := src.Desired(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"http://a.fleet.internal:8081", "http://b.fleet.internal:8082"}
	if len(ms) != len(want) {
		t.Fatalf("members = %+v, want %v", ms, want)
	}
	for i, w := range want {
		if ms[i].URL != w {
			t.Fatalf("members[%d] = %q, want %q (sorted, deduped, root dot trimmed)", i, ms[i].URL, w)
		}
	}

	src.Resolver = &fakeResolver{err: errors.New("SERVFAIL")}
	if _, err := src.Desired(context.Background()); err == nil {
		t.Fatal("resolver error should propagate")
	}
}

func TestSpawnRespawnWithBackoff(t *testing.T) {
	defer leak.Check(t)()
	defer leak.CheckChildren(t)()
	fi := memberURLs(1)[0]
	fr := newFakeRing()
	src := &fakeSource{}
	src.set(fi)
	s := newTestSup(t, fr, src, func(c *Config) {
		c.RespawnBase = 20 * time.Millisecond
		c.RespawnMax = 50 * time.Millisecond
		c.Spawn = func(m Member) (*exec.Cmd, error) {
			return exec.Command("true"), nil // exits immediately: a crash loop
		}
	})
	defer s.shutdown()

	tick(s, 1)
	if got := s.reg.Value(mActions, "action", "spawn"); got != 1 {
		t.Fatalf("spawn actions = %v, want 1", got)
	}

	// Each respawn waits out the jittered backoff first; ticking again
	// immediately must not relaunch.
	deadline := time.Now().Add(5 * time.Second)
	for s.reg.Value(mRespawns) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("respawns = %v, want >= 2 before deadline", s.reg.Value(mRespawns))
		}
		tick(s, 1)
		time.Sleep(5 * time.Millisecond)
	}
	st := s.Status()
	var mv *memberView
	for i := range st.Members {
		if st.Members[i].URL == fi {
			mv = &st.Members[i]
		}
	}
	if mv == nil || !mv.Managed || mv.Respawns < 2 {
		t.Fatalf("member view = %+v, want managed with >= 2 respawns", mv)
	}
}

func TestSpawnStopsUndesiredAndShutsDown(t *testing.T) {
	defer leak.Check(t)()
	defer leak.CheckChildren(t)()
	u := memberURLs(2)
	keep, gone := u[0], u[1]
	fr := newFakeRing()
	src := &fakeSource{}
	src.set(keep, gone)
	s := newTestSup(t, fr, src, func(c *Config) {
		c.Spawn = func(m Member) (*exec.Cmd, error) {
			return exec.Command("sleep", "60"), nil
		}
	})
	defer s.shutdown()

	tick(s, 1)
	s.mu.Lock()
	pk, pg := s.procs[keep], s.procs[gone]
	s.mu.Unlock()
	if pk == nil || !pk.running() || pg == nil || !pg.running() {
		t.Fatal("each desired member should have a live managed process")
	}

	// Dropping a member from desired state takes it off the ring (drain,
	// then eject), then terminates its process.
	src.set(keep)
	tick(s, 3)
	if fr.has(gone) {
		t.Fatal("the dropped member should be off the ring")
	}
	s.mu.Lock()
	remaining := len(s.procs)
	s.mu.Unlock()
	if remaining != 1 {
		t.Fatalf("%d managed processes remain, want 1 (the kept member's)", remaining)
	}
	if pg.running() {
		t.Fatal("undesired member's process should have been stopped")
	}

	s.shutdown()
	if pk.running() {
		t.Fatal("shutdown should stop every managed process")
	}
}

// TestSpawnKeepsDrainingMemberProcess: dropping an on-ring member from
// the spec drains it first; its process keeps serving while the ring
// still holds it and is stopped only once the member is off the ring.
func TestSpawnKeepsDrainingMemberProcess(t *testing.T) {
	defer leak.Check(t)()
	defer leak.CheckChildren(t)()
	u := memberURLs(2)
	keep, gone := u[0], u[1]
	fr := newFakeRing()
	fr.add(keep)
	fr.add(gone)
	src := &fakeSource{}
	src.set(keep, gone)
	s := newTestSup(t, fr, src, func(c *Config) {
		c.DrainTimeout = time.Hour
		c.Spawn = func(m Member) (*exec.Cmd, error) {
			return exec.Command("sleep", "60"), nil
		}
	})
	defer s.shutdown()

	tick(s, 1)
	s.mu.Lock()
	p := s.procs[gone]
	s.mu.Unlock()
	if p == nil || !p.running() {
		t.Fatal("desired member should have a live managed process")
	}

	fr.setInflight(gone, 1)
	src.set(keep)
	tick(s, 2)
	if !fr.draining(gone) {
		t.Fatal("the dropped member should be draining")
	}
	if !p.running() {
		t.Fatal("the process of a member still draining on the ring was stopped")
	}

	fr.setInflight(gone, 0)
	tick(s, 1)
	if fr.has(gone) {
		t.Fatal("the idle draining member should have been ejected")
	}
	tick(s, 1)
	if p.running() {
		t.Fatal("the process of a member off the ring and out of the spec should be stopped")
	}
	s.mu.Lock()
	remaining := len(s.procs)
	s.mu.Unlock()
	if remaining != 1 {
		t.Fatalf("%d managed processes, want 1 (the kept member's)", remaining)
	}
}

func TestFleetMetricsGolden(t *testing.T) {
	defer leak.Check(t)()
	u := memberURLs(2)
	fi1, fi2 := u[0], u[1]
	fr := newFakeRing()
	src := &fakeSource{}
	src.set(fi1, fi2)
	s := newTestSup(t, fr, src, nil)

	// Three ticks: both join (1), the gauges read the grown ring (2, 3).
	tick(s, 3)

	var buf bytes.Buffer
	s.reg.WritePrometheus(&buf)
	var lines []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, "queryvis_fleet_") {
			lines = append(lines, line)
		}
	}
	got := strings.Join(lines, "\n") + "\n"

	golden := filepath.Join("testdata", "fleet_metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("fleet metrics exposition drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
