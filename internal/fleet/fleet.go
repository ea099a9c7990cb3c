// Package fleet is the self-healing control plane over the router's
// ring and the ring's one membership writer: a reconciliation loop that
// compares desired membership (a spec file, a DNS SRV watcher —
// anything implementing Source) against observed state (direct healthz
// probes plus the router's own view) and drives the ring toward desired
// — joining newly discovered healthy instances, drain-then-ejecting
// persistently unhealthy or undesired ones, and rejoining recovered
// ones. To join, drain or eject a member by hand, edit the spec and
// send SIGHUP (Poke).
//
// A drain is the supervisor's from start to removal. The tick that
// starts it only sets the router's draining flag; a later tick ejects
// the member once the router reports it idle ("drained"), or hard-ejects
// it once the drain has outlived DrainTimeout ("eject").
//
// Two properties make the loop safe to leave unattended:
//
//   - Hysteresis. Membership changes key off consecutive-observation
//     streaks (DownAfter failures to act against a member, UpAfter
//     successes to admit one), so a flapping link oscillates the
//     supervisor's streak counters, never the ring.
//
//   - A disruption budget. Every removal is gated: at most
//     maxConcurrentDrains drains in flight, never below the MinHealthy
//     floor of healthy serving members, never the last member. A denied
//     action is counted and logged, then retried on a later tick when
//     the budget allows — the supervisor heals the fleet strictly one
//     safe step at a time, because a control plane that reacts to a
//     partition by ejecting everything it cannot see is itself the
//     outage.
//
// With a Spawn function configured the supervisor also owns the member
// processes: it starts one per desired member, restarts exits with
// jittered exponential backoff (reset after a stable run, the same
// policy the worker pool applies to its children), and tears them down
// on shutdown. `queryvisd -route -fleet fleet.json -fleet-spawn` is
// thereby a one-command self-healing deployment.
//
// Every action and denial is counted in the telemetry registry and
// recorded in a bounded action log that the router's /v1/fleet endpoint
// surfaces, so "what did the supervisor do and why" is one GET away.
package fleet

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"os/exec"
	"sync"
	"time"

	"repro/internal/backoff"
	"repro/internal/router"
	"repro/internal/telemetry"
)

// Ring is the membership surface the supervisor drives; *router.Router
// satisfies it.
type Ring interface {
	State() router.State
	Join(url string) error
	Drain(url string) error
	Eject(url string) error
}

// Metric families. Registered at New so the exposition is stable from
// the first scrape, empty or not.
const (
	mReconciles   = "queryvis_fleet_reconciles_total"
	mReconcileErr = "queryvis_fleet_reconcile_errors_total"
	mActions      = "queryvis_fleet_actions_total"
	mDenied       = "queryvis_fleet_budget_denied_total"
	mRespawns     = "queryvis_fleet_respawns_total"
	mDesired      = "queryvis_fleet_desired_members"
	mRingMembers  = "queryvis_fleet_ring_members"
	mUnhealthy    = "queryvis_fleet_unhealthy_members"
	mDrains       = "queryvis_fleet_pending_drains"
	mProcs        = "queryvis_fleet_managed_processes"
	mHealDur      = "queryvis_fleet_heal_duration_seconds"
)

// maxConcurrentDrains caps drains in flight.
const maxConcurrentDrains = 1

// Config tunes the supervisor. Ring and Source are required; zero
// durations and counts take the documented defaults.
type Config struct {
	// Ring is the membership surface to reconcile (required).
	Ring Ring
	// Source yields desired membership each tick (required). A Source
	// error keeps the last good desired set — a torn spec file or a DNS
	// blip must not read as "desired: nobody".
	Source Source
	// Interval is the reconcile cadence (default 500ms).
	Interval time.Duration
	// ProbeTimeout bounds one direct healthz probe (default 1s).
	ProbeTimeout time.Duration
	// DownAfter is how many consecutive bad observations of a member
	// precede action against it (default 3). This is the down-side
	// hysteresis: a single lost probe never drains anyone.
	DownAfter int
	// UpAfter is how many consecutive good observations an off-ring
	// member needs before (re)joining (default 2) — the up-side
	// hysteresis that keeps a flapping instance from oscillating the
	// ring.
	UpAfter int
	// MinHealthy is the disruption-budget floor: the supervisor refuses
	// any removal that would leave fewer healthy, undraining members
	// serving (default 1). A member that is already unhealthy does not
	// count toward the floor, so dead members are always removable.
	MinHealthy int
	// DrainTimeout escalates a drain that has not completed — the
	// member still on the ring with requests in flight — to a hard
	// eject (default 10s).
	DrainTimeout time.Duration
	// Spawn, when non-nil, turns on process supervision: it builds the
	// (unstarted) command for one desired member. The supervisor starts
	// it, watches it, and respawns it with backoff when it exits.
	Spawn func(Member) (*exec.Cmd, error)
	// RespawnBase/RespawnMax bound the respawn backoff ladder
	// (defaults 200ms / 5s).
	RespawnBase time.Duration
	RespawnMax  time.Duration
	// StableAfter is the uptime after which a respawned process is
	// considered stable and the backoff ladder resets (default 10s).
	StableAfter time.Duration
	// Seed fixes the jitter stream (0 ⇒ 1; determinism over entropy).
	Seed int64
	// Metrics receives the supervisor's counter/gauge families
	// (default: a private registry).
	Metrics *telemetry.Registry
	// HTTPClient performs healthz probes (default: a fresh client with
	// ProbeTimeout and its own transport, closed with the supervisor).
	HTTPClient *http.Client
	// Logger, when non-nil, gets one line per action, denial, and
	// respawn.
	Logger *slog.Logger
}

// WithDefaults returns the config with every zero field set to its
// documented default: the values New runs with.
func (c Config) WithDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 3
	}
	if c.UpAfter <= 0 {
		c.UpAfter = 2
	}
	if c.MinHealthy <= 0 {
		c.MinHealthy = 1
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.RespawnBase <= 0 {
		c.RespawnBase = 200 * time.Millisecond
	}
	if c.RespawnMax <= 0 {
		c.RespawnMax = 5 * time.Second
	}
	if c.StableAfter <= 0 {
		c.StableAfter = 10 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Action is one entry in the bounded reconcile log: what the supervisor
// did (or refused to do), to whom, and why.
type Action struct {
	Time   time.Time `json:"time"`
	Action string    `json:"action"` // join|rejoin|drain|remove|drained|eject|spawn|respawn|denied
	URL    string    `json:"url"`
	Detail string    `json:"detail,omitempty"`
}

// actionLogCap bounds the in-memory action log surfaced via /v1/fleet.
const actionLogCap = 64

// memberView is one member's reconciliation state in a Status snapshot.
type memberView struct {
	URL        string `json:"url"`
	Desired    bool   `json:"desired"`
	OnRing     bool   `json:"on_ring"`
	Draining   bool   `json:"draining"`
	OKStreak   int    `json:"ok_streak"`
	FailStreak int    `json:"fail_streak"`
	Managed    bool   `json:"managed,omitempty"`
	Respawns   int64  `json:"respawns,omitempty"`
}

// Status is the supervisor's self-report, embedded in /v1/fleet.
type Status struct {
	Reconciles   int64            `json:"reconciles"`
	Desired      []string         `json:"desired"`
	Members      []memberView     `json:"members"`
	Actions      []Action         `json:"actions"`
	ActionCounts map[string]int64 `json:"action_counts"`
	BudgetDenied map[string]int64 `json:"budget_denied"`
}

// memberState is the supervisor's private ledger for one member URL.
type memberState struct {
	member       Member
	okStreak     int
	failStreak   int
	drainStarted time.Time // zero unless a drain we issued is pending
	downSince    time.Time // zero unless currently judged down (heal timer)
	everOnRing   bool      // distinguishes join from rejoin
}

// Supervisor runs the reconciliation loop. Create with New, drive with
// Run (blocking) or single ReconcileOnce steps in tests.
type Supervisor struct {
	cfg Config
	reg *telemetry.Registry
	hc  *http.Client

	ownTransport *http.Transport // non-nil when we built the probe client

	ladder backoff.Policy
	rng    *backoff.Rand

	mu           sync.Mutex
	desired      []Member // last good desired set
	haveDesired  bool     // has the source ever succeeded?
	states       map[string]*memberState
	procs        map[string]*proc
	actions      []Action
	actionCounts map[string]int64
	denied       map[string]int64
	reconciles   int64

	poke chan struct{}
}

// New builds a Supervisor and registers its metric families.
func New(cfg Config) (*Supervisor, error) {
	if cfg.Ring == nil {
		return nil, fmt.Errorf("fleet: Config.Ring is required")
	}
	if cfg.Source == nil {
		return nil, fmt.Errorf("fleet: Config.Source is required")
	}
	cfg = cfg.WithDefaults()
	s := &Supervisor{
		cfg:          cfg,
		reg:          cfg.Metrics,
		ladder:       backoff.Policy{Base: cfg.RespawnBase, Max: cfg.RespawnMax},
		rng:          backoff.NewRand(cfg.Seed),
		states:       make(map[string]*memberState),
		procs:        make(map[string]*proc),
		actionCounts: make(map[string]int64),
		denied:       make(map[string]int64),
		poke:         make(chan struct{}, 1),
	}
	if s.reg == nil {
		s.reg = telemetry.NewRegistry()
	}
	s.hc = cfg.HTTPClient
	if s.hc == nil {
		s.ownTransport = &http.Transport{MaxIdleConnsPerHost: 4}
		s.hc = &http.Client{Timeout: cfg.ProbeTimeout, Transport: s.ownTransport}
	}

	s.reg.Counter(mReconciles, "Reconcile ticks completed.")
	s.reg.Counter(mReconcileErr, "Reconcile errors by kind.", "kind", "source")
	for _, a := range []string{"join", "rejoin", "drain", "drained", "eject", "remove", "spawn", "respawn"} {
		s.reg.Counter(mActions, "Reconcile actions taken, by action.", "action", a)
	}
	for _, r := range []string{"drain_concurrency", "min_healthy", "last_member"} {
		s.reg.Counter(mDenied, "Actions refused by the disruption budget, by reason.", "reason", r)
	}
	s.reg.Counter(mRespawns, "Managed processes respawned after exit.")
	s.reg.GaugeFunc(mDesired, "Members in the desired set.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.desired))
	})
	s.reg.GaugeFunc(mProcs, "Managed member processes currently running.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		n := 0
		for _, p := range s.procs {
			if p.running() {
				n++
			}
		}
		return float64(n)
	})
	s.reg.Gauge(mRingMembers, "Members on the ring at the last reconcile.")
	s.reg.Gauge(mUnhealthy, "Desired members currently judged unhealthy.")
	s.reg.Gauge(mDrains, "Drains currently pending on the ring.")
	s.reg.Histogram(mHealDur, "Seconds from a member judged down to back-on-ring healthy.",
		[]float64{0.5, 1, 2.5, 5, 10, 30, 60, 120})
	return s, nil
}

// Poke requests an immediate reconcile — the SIGHUP path after a spec
// edit. Coalesces: poking a loop that is already due is a no-op.
func (s *Supervisor) Poke() {
	select {
	case s.poke <- struct{}{}:
	default:
	}
}

// Run reconciles until ctx ends, then stops every managed process and
// returns. The first reconcile happens immediately, not a tick later.
func (s *Supervisor) Run(ctx context.Context) {
	t := time.NewTicker(s.cfg.Interval)
	defer t.Stop()
	for {
		s.ReconcileOnce(ctx)
		select {
		case <-ctx.Done():
			s.shutdown()
			return
		case <-t.C:
		case <-s.poke:
		}
	}
}

// shutdown tears down managed processes and the probe transport.
func (s *Supervisor) shutdown() {
	s.mu.Lock()
	procs := make([]*proc, 0, len(s.procs))
	for _, p := range s.procs {
		procs = append(procs, p)
	}
	s.mu.Unlock()
	for _, p := range procs {
		p.stop()
	}
	if s.ownTransport != nil {
		s.ownTransport.CloseIdleConnections()
	}
}

// observation is one member's probed + ring-reported state this tick.
type observation struct {
	member    Member
	probeOK   bool
	probeErr  string
	onRing    bool
	ringState router.InstanceState
}

// ReconcileOnce runs a single reconcile tick: refresh desired state,
// observe every member, then converge the ring one budgeted action at a
// time. Exported so tests (and the CI smoke) can step the loop
// deterministically.
func (s *Supervisor) ReconcileOnce(ctx context.Context) {
	if ctx.Err() != nil {
		return
	}
	// 1. Desired state. A source error keeps the previous set — and if
	// the source has NEVER succeeded there is no previous set to keep,
	// so the supervisor must not act at all: an unreadable spec at boot
	// would otherwise read as "desired: nobody" and start draining
	// whatever the ring was seeded with.
	desired, err := s.cfg.Source.Desired(ctx)
	if err == nil {
		desired, err = normalize(desired)
	}
	s.mu.Lock()
	if err != nil {
		s.reg.Counter(mReconcileErr, "Reconcile errors by kind.", "kind", "source").Inc()
		if !s.haveDesired {
			s.log("desired-state source failed before first good read; holding off", "err", err)
			s.reconciles++
			s.reg.Counter(mReconciles, "Reconcile ticks completed.").Inc()
			s.mu.Unlock()
			return
		}
		s.log("desired-state source failed; keeping last good set", "err", err)
		desired = s.desired
	} else {
		s.desired = desired
		s.haveDesired = true
	}
	spawnOn := s.cfg.Spawn != nil
	s.mu.Unlock()

	// 2. The ring's view, read once per tick.
	ringState := s.cfg.Ring.State()
	onRing := make(map[string]router.InstanceState, len(ringState.Instances))
	for _, in := range ringState.Instances {
		onRing[in.URL] = in
	}

	// 3. Process supervision (spawn mode only): every desired member
	// gets a running process, and an undesired one keeps its process
	// until it is off the ring.
	if spawnOn {
		s.ensureProcesses(desired, onRing)
	}

	// 4. Observe: one direct healthz probe per desired member.
	obs := s.observe(ctx, desired, onRing)

	// 5. Update streaks and converge.
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reconcileLocked(obs, onRing, len(ringState.Instances))
	s.reconciles++
	s.reg.Counter(mReconciles, "Reconcile ticks completed.").Inc()
}

// observe probes every desired member concurrently. Members on the ring
// but not desired are carried as observations too (no probe needed —
// they are leaving regardless of health).
func (s *Supervisor) observe(ctx context.Context, desired []Member, onRing map[string]router.InstanceState) []observation {
	obs := make([]observation, len(desired))
	var wg sync.WaitGroup
	for i, m := range desired {
		wg.Add(1)
		go func(i int, m Member) {
			defer wg.Done()
			o := observation{member: m}
			if in, ok := onRing[m.URL]; ok {
				o.onRing, o.ringState = true, in
			}
			o.probeOK, o.probeErr = s.probe(ctx, m.URL)
			obs[i] = o
		}(i, m)
	}
	wg.Wait()
	return obs
}

// probe performs one direct healthz GET. Any transport error or non-200
// is a bad observation — a member answering 503 is telling us it cannot
// serve, which is exactly what the streak should record.
func (s *Supervisor) probe(ctx context.Context, url string) (bool, string) {
	pctx, cancel := context.WithTimeout(ctx, s.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, url+"/v1/healthz", nil)
	if err != nil {
		return false, err.Error()
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return false, err.Error()
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Sprintf("healthz answered HTTP %d", resp.StatusCode)
	}
	return true, ""
}

// reconcileLocked converges the ring toward the desired set. Caller
// holds s.mu.
func (s *Supervisor) reconcileLocked(obs []observation, onRing map[string]router.InstanceState, ringSize int) {
	now := time.Now()
	desiredSet := make(map[string]bool, len(obs))
	unhealthy := 0

	// Streak bookkeeping for every desired member.
	for _, o := range obs {
		desiredSet[o.member.URL] = true
		st := s.states[o.member.URL]
		if st == nil {
			st = &memberState{member: o.member}
			s.states[o.member.URL] = st
		}
		st.member = o.member
		if o.onRing {
			st.everOnRing = true
		}
		// A bad observation: the direct probe failed, or the router's
		// prober has independently condemned the member.
		bad := !o.probeOK || (o.onRing && !o.ringState.Healthy)
		if bad {
			st.failStreak++
			st.okStreak = 0
			if st.failStreak >= s.cfg.DownAfter && st.downSince.IsZero() {
				st.downSince = now
			}
		} else {
			st.okStreak++
			st.failStreak = 0
		}
		if !st.downSince.IsZero() {
			unhealthy++
		}
	}
	// Forget members that are neither desired nor on the ring.
	for url, st := range s.states {
		if !desiredSet[url] {
			if _, stillOn := onRing[url]; !stillOn {
				if !st.drainStarted.IsZero() || st.everOnRing {
					delete(s.states, url)
				}
			}
		}
	}

	pendingDrains := 0
	healthyServing := 0
	for _, in := range onRing {
		if in.Draining {
			pendingDrains++
		} else if in.Healthy {
			healthyServing++
		}
	}
	s.reg.Gauge(mRingMembers, "Members on the ring at the last reconcile.").Set(int64(ringSize))
	s.reg.Gauge(mUnhealthy, "Desired members currently judged unhealthy.").Set(int64(unhealthy))
	s.reg.Gauge(mDrains, "Drains currently pending on the ring.").Set(int64(pendingDrains))

	// budget answers "may I remove target now" — the one gate every
	// drain, eject, and removal passes through.
	budget := func(target string) (ok bool, reason string) {
		in, on := onRing[target]
		if !on {
			return true, "" // off-ring: nothing to disrupt
		}
		if ringSize <= 1 {
			return false, "last_member"
		}
		if in.Draining {
			return true, "" // already budgeted when the drain started
		}
		if pendingDrains >= maxConcurrentDrains {
			return false, "drain_concurrency"
		}
		// The floor gates the *delta*, not the absolute: removing a
		// member the ring already counts unhealthy costs no serving
		// capacity, so dead members stay removable even below the floor.
		after := healthyServing
		if in.Healthy {
			after--
		}
		if after < healthyServing && after < s.cfg.MinHealthy {
			return false, "min_healthy"
		}
		return true, ""
	}
	deny := func(action, target, reason string) {
		s.denied[reason]++
		s.reg.Counter(mDenied, "Actions refused by the disruption budget, by reason.", "reason", reason).Inc()
		s.record(Action{Time: now, Action: "denied", URL: target,
			Detail: action + " refused: " + reason})
		s.log("disruption budget denied action", "action", action, "member", target, "reason", reason)
	}
	// startRemoval drains target (finished by finishDrain on a later
	// tick) and keeps the budget accounting coherent within this tick.
	startRemoval := func(st *memberState, action, detail string) {
		target := st.member.URL
		ok, reason := budget(target)
		if !ok {
			deny(action, target, reason)
			return
		}
		if err := s.cfg.Ring.Drain(target); err != nil {
			s.log("drain failed", "member", target, "err", err)
			return
		}
		if st.drainStarted.IsZero() {
			st.drainStarted = now
		}
		in := onRing[target]
		if !in.Draining { // newly started drain consumes budget this tick
			pendingDrains++
			if in.Healthy {
				healthyServing--
			}
		}
		s.act(now, action, target, detail)
	}

	// 5a. Remove ring members that are no longer desired.
	for url, in := range onRing {
		if desiredSet[url] {
			continue
		}
		st := s.states[url]
		if st == nil {
			st = &memberState{member: Member{URL: url}, everOnRing: true}
			s.states[url] = st
		}
		if st.drainStarted.IsZero() {
			startRemoval(st, "remove", "not in desired set")
		}
		s.finishDrain(st, in, now)
	}

	// 5b. Drain persistently unhealthy desired members; finish drains.
	for _, o := range obs {
		st := s.states[o.member.URL]
		if !o.onRing {
			st.drainStarted = time.Time{}
			continue
		}
		if st.failStreak >= s.cfg.DownAfter && st.drainStarted.IsZero() && !o.ringState.Draining {
			startRemoval(st, "drain", fmt.Sprintf("unhealthy for %d consecutive observations (%s)",
				st.failStreak, o.probeErr))
		}
		s.finishDrain(st, o.ringState, now)
	}

	// 5c. Join (or rejoin) healthy desired members that are off the
	// ring. Joins are additive — they never consume disruption budget.
	for _, o := range obs {
		st := s.states[o.member.URL]
		if o.onRing || st.okStreak < s.cfg.UpAfter {
			continue
		}
		action := "join"
		if st.everOnRing {
			action = "rejoin"
		}
		if err := s.cfg.Ring.Join(o.member.URL); err != nil {
			s.log("join failed", "member", o.member.URL, "err", err)
			continue
		}
		st.everOnRing = true
		st.drainStarted = time.Time{}
		if !st.downSince.IsZero() {
			s.reg.Histogram(mHealDur, "Seconds from a member judged down to back-on-ring healthy.",
				[]float64{0.5, 1, 2.5, 5, 10, 30, 60, 120}).Observe(now.Sub(st.downSince).Seconds())
			st.downSince = time.Time{}
		}
		s.act(now, action, o.member.URL, "")
	}
}

// finishDrain ejects a member whose drain this supervisor started: as
// "drained" once the ring reports it idle, as "eject" once the drain has
// outlived DrainTimeout. in is the ring's view read at the start of this
// tick, so in.Draining means the drain began on an earlier tick: a
// request assigned just before the flag landed has had a whole interval
// to show up in Inflight. Caller holds s.mu.
func (s *Supervisor) finishDrain(st *memberState, in router.InstanceState, now time.Time) {
	if st.drainStarted.IsZero() {
		return
	}
	action, detail := "drained", "no requests in flight"
	switch {
	case in.Draining && in.Inflight == 0:
	case now.Sub(st.drainStarted) >= s.cfg.DrainTimeout:
		action = "eject"
		detail = fmt.Sprintf("drain exceeded %s; escalated (inflight %d)", s.cfg.DrainTimeout, in.Inflight)
	default:
		return
	}
	if err := s.cfg.Ring.Eject(st.member.URL); err != nil {
		s.log("eject failed", "member", st.member.URL, "action", action, "err", err)
		return
	}
	st.drainStarted = time.Time{}
	s.act(now, action, st.member.URL, detail)
}

// act counts and logs one completed action. Caller holds s.mu.
func (s *Supervisor) act(now time.Time, action, url, detail string) {
	s.actionCounts[action]++
	s.reg.Counter(mActions, "Reconcile actions taken, by action.", "action", action).Inc()
	s.record(Action{Time: now, Action: action, URL: url, Detail: detail})
	s.log("reconcile action", "action", action, "member", url, "detail", detail)
}

// record appends to the bounded action log. Caller holds s.mu.
func (s *Supervisor) record(a Action) {
	s.actions = append(s.actions, a)
	if len(s.actions) > actionLogCap {
		s.actions = s.actions[len(s.actions)-actionLogCap:]
	}
}

// Status snapshots the supervisor for /v1/fleet. Safe for concurrent
// use; wire it up with router.SetFleetStatus(func() any { return
// sup.Status() }).
func (s *Supervisor) Status() Status {
	ringState := s.cfg.Ring.State()
	onRing := make(map[string]router.InstanceState, len(ringState.Instances))
	for _, in := range ringState.Instances {
		onRing[in.URL] = in
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		Reconciles:   s.reconciles,
		Desired:      make([]string, 0, len(s.desired)),
		Actions:      append([]Action(nil), s.actions...),
		ActionCounts: make(map[string]int64, len(s.actionCounts)),
		BudgetDenied: make(map[string]int64, len(s.denied)),
	}
	desiredSet := make(map[string]bool, len(s.desired))
	for _, m := range s.desired {
		st.Desired = append(st.Desired, m.URL)
		desiredSet[m.URL] = true
	}
	for k, v := range s.actionCounts {
		st.ActionCounts[k] = v
	}
	for k, v := range s.denied {
		st.BudgetDenied[k] = v
	}
	for url, ms := range s.states {
		mv := memberView{
			URL:        url,
			Desired:    desiredSet[url],
			OKStreak:   ms.okStreak,
			FailStreak: ms.failStreak,
		}
		if in, ok := onRing[url]; ok {
			mv.OnRing, mv.Draining = true, in.Draining
		}
		if p, ok := s.procs[url]; ok {
			mv.Managed = true
			mv.Respawns = p.respawns
		}
		st.Members = append(st.Members, mv)
	}
	return st
}

func (s *Supervisor) log(msg string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Info("fleet: "+msg, args...)
	}
}
