// Package fleet is the control plane over the router's ring: its one
// membership writer and, with Spawn, the owner of the member processes.
// A reconciliation loop keeps ring membership equal to the desired set
// (a spec file, a DNS SRV watcher — anything implementing Source): it
// joins every desired member at once and leaves it on the ring until
// the source drops it, then drains it and ejects it. To join or remove a
// member by hand, edit the spec and send SIGHUP (Poke).
//
// The supervisor judges no member's health. Who serves is the router's
// call: its prober admits a joined member only after a streak of passing
// probes, failed probes or failed forwarded requests take a member out
// of rotation, and the prober readmits it once it passes again. The
// budget below counts that same verdict. A member out of rotation stays
// on the ring, and the identity-keyed ring hands its keys to exactly the
// successors an eject would, so a crash, a partition or a flapping link
// never changes membership and never spends disruption budget.
//
// A drain is the supervisor's from start to removal. The tick that
// starts it only sets the router's draining flag; a later tick ejects
// the member once the router reports it idle ("drained"), or hard-ejects
// it once the drain has outlived DrainTimeout ("eject").
//
// Every removal passes a disruption budget: at most maxConcurrentDrains
// drains in flight, never below the MinHealthy floor of healthy serving
// members, never the last member. A denied removal is counted and
// logged, then retried on a later tick when the budget allows.
//
// With a Spawn function configured the supervisor also owns the member
// processes: it starts one per desired member, restarts exits with
// jittered exponential backoff (reset after a stable run, the same
// policy the worker pool applies to its children), and tears them down
// on shutdown. `queryvisd -route -fleet fleet.json -fleet-spawn` is
// thereby a one-command self-healing deployment: a killed member is
// respawned where it was, and the router readmits it.
//
// Every action and denial is counted in the telemetry registry and
// recorded in a bounded action log that the router's /v1/fleet endpoint
// surfaces, so "what did the supervisor do and why" is one GET away.
package fleet

import (
	"context"
	"fmt"
	"log/slog"
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
	mDrains       = "queryvis_fleet_pending_drains"
	mProcs        = "queryvis_fleet_managed_processes"
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
	// MinHealthy is the disruption-budget floor: the supervisor refuses
	// any removal that would leave fewer healthy, undraining members
	// serving (default 1). A member the router already judges unhealthy
	// does not count toward the floor, so a dead member is always
	// removable.
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
	Action string    `json:"action"` // join|remove|drained|eject|spawn|respawn|denied
	URL    string    `json:"url"`
	Detail string    `json:"detail,omitempty"`
}

// actionLogCap bounds the in-memory action log surfaced via /v1/fleet.
const actionLogCap = 64

// memberView is one member's reconciliation state in a Status snapshot.
type memberView struct {
	URL      string `json:"url"`
	Desired  bool   `json:"desired"`
	OnRing   bool   `json:"on_ring"`
	Draining bool   `json:"draining"`
	Managed  bool   `json:"managed,omitempty"`
	Respawns int64  `json:"respawns,omitempty"`
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

// Supervisor runs the reconciliation loop. Create with New, drive with
// Run (blocking) or single ReconcileOnce steps in tests.
type Supervisor struct {
	cfg Config
	reg *telemetry.Registry

	ladder backoff.Policy
	rng    *backoff.Rand

	mu           sync.Mutex
	desired      []Member             // last good desired set
	haveDesired  bool                 // has the source ever succeeded?
	drains       map[string]time.Time // member URL → start of the drain we issued
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
		drains:       make(map[string]time.Time),
		procs:        make(map[string]*proc),
		actionCounts: make(map[string]int64),
		denied:       make(map[string]int64),
		poke:         make(chan struct{}, 1),
	}
	if s.reg == nil {
		s.reg = telemetry.NewRegistry()
	}

	s.reg.Counter(mReconciles, "Reconcile ticks completed.")
	s.reg.Counter(mReconcileErr, "Reconcile errors by kind.", "kind", "source")
	for _, a := range []string{"join", "drained", "eject", "remove", "spawn", "respawn"} {
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
	s.reg.Gauge(mDrains, "Drains currently pending on the ring.")
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

// shutdown tears down managed processes.
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
}

// ReconcileOnce runs a single reconcile tick: refresh desired state,
// read the ring, then converge the ring one budgeted removal at a time.
// Exported so tests (and the CI smoke) can step the loop
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
	ring := s.cfg.Ring.State().Instances
	onRing := make(map[string]router.InstanceState, len(ring))
	for _, in := range ring {
		onRing[in.URL] = in
	}

	// 3. Process supervision (spawn mode only): every desired member
	// gets a running process, and an undesired one keeps its process
	// until it is off the ring.
	if spawnOn {
		s.ensureProcesses(desired, onRing)
	}

	// 4. Converge.
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reconcileLocked(desired, ring, onRing)
	s.reconciles++
	s.reg.Counter(mReconciles, "Reconcile ticks completed.").Inc()
}

// reconcileLocked converges the ring toward the desired set: it finishes
// the drains it started, drains undesired members, and joins desired
// members that are off the ring. ring is the router's view read at the
// start of this tick, in ring order; onRing indexes it by URL. Caller
// holds s.mu.
func (s *Supervisor) reconcileLocked(desired []Member, ring []router.InstanceState, onRing map[string]router.InstanceState) {
	now := time.Now()
	desiredSet := make(map[string]bool, len(desired))
	for _, m := range desired {
		desiredSet[m.URL] = true
	}
	// A drain we issued is over once its member has left the ring.
	for url := range s.drains {
		if _, on := onRing[url]; !on {
			delete(s.drains, url)
		}
	}

	pendingDrains := 0
	healthyServing := 0
	for _, in := range ring {
		if in.Draining {
			pendingDrains++
		} else if in.Healthy {
			healthyServing++
		}
	}
	s.reg.Gauge(mRingMembers, "Members on the ring at the last reconcile.").Set(int64(len(ring)))
	s.reg.Gauge(mDrains, "Drains currently pending on the ring.").Set(int64(pendingDrains))

	// budget answers "may I start removing in now" — the one gate every
	// removal passes through.
	budget := func(in router.InstanceState) (ok bool, reason string) {
		if len(ring) <= 1 {
			return false, "last_member"
		}
		if in.Draining {
			return true, "" // already budgeted when the drain started
		}
		if pendingDrains >= maxConcurrentDrains {
			return false, "drain_concurrency"
		}
		// The floor gates the *delta*, not the absolute: removing a
		// member the router already counts unhealthy costs no serving
		// capacity, so dead members stay removable even below the floor.
		if in.Healthy && healthyServing-1 < s.cfg.MinHealthy {
			return false, "min_healthy"
		}
		return true, ""
	}

	// 4a. Finish the drains this supervisor started, and drain ring
	// members that are no longer desired. A drain is finished even when
	// its member was desired again meanwhile; 4b then joins it anew.
	for _, in := range ring {
		if _, started := s.drains[in.URL]; started {
			s.finishDrain(in, now)
			continue
		}
		if desiredSet[in.URL] {
			continue
		}
		if ok, reason := budget(in); !ok {
			s.denied[reason]++
			s.reg.Counter(mDenied, "Actions refused by the disruption budget, by reason.", "reason", reason).Inc()
			s.record(Action{Time: now, Action: "denied", URL: in.URL, Detail: "remove refused: " + reason})
			s.log("disruption budget denied action", "action", "remove", "member", in.URL, "reason", reason)
			continue
		}
		if err := s.cfg.Ring.Drain(in.URL); err != nil {
			s.log("drain failed", "member", in.URL, "err", err)
			continue
		}
		s.drains[in.URL] = now
		if !in.Draining { // a newly started drain consumes budget this tick
			pendingDrains++
			if in.Healthy {
				healthyServing--
			}
		}
		s.act(now, "remove", in.URL, "not in desired set")
	}

	// 4b. Join every desired member that is off the ring, healthy or
	// not: the router keeps a newcomer out of rotation until its prober
	// admits it. Joins are additive — they never consume disruption
	// budget.
	for _, m := range desired {
		if _, on := onRing[m.URL]; on {
			continue
		}
		if err := s.cfg.Ring.Join(m.URL); err != nil {
			s.log("join failed", "member", m.URL, "err", err)
			continue
		}
		s.act(now, "join", m.URL, "")
	}
}

// finishDrain ejects a member whose drain this supervisor started: as
// "drained" once the ring reports it idle, as "eject" once the drain has
// outlived DrainTimeout. in is the ring's view read at the start of this
// tick, so in.Draining means the drain began on an earlier tick: a
// request assigned just before the flag landed has had a whole interval
// to show up in Inflight. Caller holds s.mu.
func (s *Supervisor) finishDrain(in router.InstanceState, now time.Time) {
	action, detail := "drained", "no requests in flight"
	switch {
	case in.Draining && in.Inflight == 0:
	case now.Sub(s.drains[in.URL]) >= s.cfg.DrainTimeout:
		action = "eject"
		detail = fmt.Sprintf("drain exceeded %s; escalated (inflight %d)", s.cfg.DrainTimeout, in.Inflight)
	default:
		return
	}
	if err := s.cfg.Ring.Eject(in.URL); err != nil {
		s.log("eject failed", "member", in.URL, "action", action, "err", err)
		return
	}
	delete(s.drains, in.URL)
	s.act(now, action, in.URL, detail)
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

// Status snapshots the supervisor for /v1/fleet: every desired member,
// then every other ring member in ring order. Safe for concurrent use;
// wire it up with router.SetFleetStatus(func() any { return
// sup.Status() }).
func (s *Supervisor) Status() Status {
	ring := s.cfg.Ring.State().Instances
	onRing := make(map[string]router.InstanceState, len(ring))
	for _, in := range ring {
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
	urls := make([]string, 0, len(s.desired)+len(ring))
	desiredSet := make(map[string]bool, len(s.desired))
	for _, m := range s.desired {
		st.Desired = append(st.Desired, m.URL)
		desiredSet[m.URL] = true
		urls = append(urls, m.URL)
	}
	for _, in := range ring {
		if !desiredSet[in.URL] {
			urls = append(urls, in.URL)
		}
	}
	for k, v := range s.actionCounts {
		st.ActionCounts[k] = v
	}
	for k, v := range s.denied {
		st.BudgetDenied[k] = v
	}
	for _, url := range urls {
		mv := memberView{URL: url, Desired: desiredSet[url]}
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
