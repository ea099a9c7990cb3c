// Live ring membership. The router's view of its backends is one
// immutable topology value — the member list, their instance state, and
// the consistent-hash ring built over them — behind an atomic pointer.
// Requests load the pointer once and route against a self-consistent
// snapshot; membership changes build a fresh topology under a mutex and
// swap it in with a bumped epoch, so a join or eject lands between two
// requests, never inside one. Instance state (health streaks, drain
// flags, in-flight counts) is carried by pointer from the old topology
// to the new, so surviving members keep their history across every
// swap.
package router

import (
	"errors"
	"fmt"
	"net/url"
	"strings"

	"repro/internal/telemetry"
)

// topology is one immutable membership snapshot.
type topology struct {
	epoch   uint64
	members []string // instance URLs, the ring's member-id basis
	insts   []*instance
	ring    *ring
}

// find returns the member instance for url, nil when absent.
func (tp *topology) find(url string) *instance {
	for _, in := range tp.insts {
		if in.url == url {
			return in
		}
	}
	return nil
}

// ErrLastMember is returned when an eject would leave the ring empty.
// The last member can be drained — it stops taking traffic and the
// router sheds honestly — but never removed: a ring with zero members
// cannot be grown back by a failing router.
var ErrLastMember = errors.New("router: cannot remove the last ring member")

// ErrUnknownMember is returned for operations naming a URL that is not
// on the ring.
var ErrUnknownMember = errors.New("router: no such ring member")

// NormalizeMember validates and canonicalizes an instance base URL. It
// is the one rule for member identity: the ring, its metric series and
// the fleet supervisor's desired set all key members by its result.
func NormalizeMember(raw string) (string, error) {
	s := strings.TrimRight(strings.TrimSpace(raw), "/")
	u, err := url.Parse(s)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("router: %q is not an http(s) base URL", raw)
	}
	return s, nil
}

// swap installs a new topology built from members, carrying over the
// instance state of every retained member. Caller holds memberMu.
func (rt *Router) swap(members []string) *topology {
	old := rt.topo.Load()
	nt := &topology{
		epoch:   old.epoch + 1,
		members: members,
		insts:   make([]*instance, len(members)),
		ring:    newRing(members, ringReplicas),
	}
	for i, m := range members {
		if in := old.find(m); in != nil {
			nt.insts[i] = in
			continue
		}
		nt.insts[i] = rt.newInstance(m)
	}
	rt.topo.Store(nt)
	return nt
}

// Join adds url to the ring, bumping the epoch. A URL already on the
// ring is an error. The joined instance starts unhealthy and serves
// once the prober has seen probeUpAfter passing probes; by the
// minimal-movement property of the identity-keyed ring, only the
// ~K/(N+1) keys the newcomer wins move to it.
func (rt *Router) Join(rawURL string) error {
	u, err := NormalizeMember(rawURL)
	if err != nil {
		return err
	}
	rt.memberMu.Lock()
	defer rt.memberMu.Unlock()
	cur := rt.topo.Load()
	if cur.find(u) != nil {
		return fmt.Errorf("router: %s is already a ring member", u)
	}
	members := append(append([]string{}, cur.members...), u)
	nt := rt.swap(members)
	rt.countMembership("join")
	rt.log("ring member joined", "instance", u, "epoch", nt.epoch, "members", len(members))
	return nil
}

// Eject removes url from the ring immediately, moving its keys to the
// survivors and bumping the epoch. In-flight requests already proxied
// to it finish on their own; new assignments stop with the swap. The
// last member cannot be ejected.
func (rt *Router) Eject(rawURL string) error {
	u, err := NormalizeMember(rawURL)
	if err != nil {
		return err
	}
	rt.memberMu.Lock()
	defer rt.memberMu.Unlock()
	cur := rt.topo.Load()
	if cur.find(u) == nil {
		return ErrUnknownMember
	}
	if len(cur.members) == 1 {
		return ErrLastMember
	}
	members := make([]string, 0, len(cur.members)-1)
	for _, m := range cur.members {
		if m != u {
			members = append(members, m)
		}
	}
	nt := rt.swap(members)
	rt.countMembership("eject")
	rt.log("ring member ejected", "instance", u, "epoch", nt.epoch, "members", len(members))
	return nil
}

// Drain begins retiring url: the member stops receiving new
// assignments at once, and the ring itself is untouched, so no other
// key moves and the epoch holds. Its in-flight requests finish; the
// caller ejects it once State reports it idle. Idempotent while the
// member is draining.
func (rt *Router) Drain(rawURL string) error {
	u, err := NormalizeMember(rawURL)
	if err != nil {
		return err
	}
	rt.memberMu.Lock()
	defer rt.memberMu.Unlock()
	in := rt.topo.Load().find(u)
	if in == nil {
		return ErrUnknownMember
	}
	if in.draining.CompareAndSwap(false, true) {
		rt.countMembership("drain")
		rt.log("ring member draining", "instance", u, "inflight", in.inflight.Load())
	}
	return nil
}

// newInstance builds a new member's instance state, starting unhealthy,
// with its metric series. Caller holds memberMu (or is New, before the
// router is shared).
func (rt *Router) newInstance(url string) *instance {
	in := &instance{url: url}
	in.reqs, in.fails = rt.registerInstanceSeries(url)
	return in
}

// registerInstanceSeries creates the per-instance metric series for a
// member URL, once per URL for the router's lifetime, and returns its
// attempt and failure counters. The gauges resolve through the current
// topology at scrape time, so a member that leaves reads
// 0/absent-shaped values and one that rejoins under the same URL lights
// the same series back up — no duplicate families, no stale closures
// over dead instances. Caller holds memberMu (or is New, before the
// router is shared).
func (rt *Router) registerInstanceSeries(url string) (reqs, fails *telemetry.Counter) {
	reqs = rt.reg.Counter(mInstReqs, "Proxied attempts per instance.", "instance", url)
	fails = rt.reg.Counter(mInstFails, "Failed attempts per instance.", "instance", url)
	if rt.seenURLs[url] {
		return reqs, fails
	}
	rt.seenURLs[url] = true
	rt.reg.GaugeFunc(mInstUp, "Prober verdict per instance (1 healthy).", func() float64 {
		if in := rt.topo.Load().find(url); in != nil && in.healthy.Load() {
			return 1
		}
		return 0
	}, "instance", url)
	rt.reg.GaugeFunc(mInstDraining, "Drain state per instance (1 draining).", func() float64 {
		if in := rt.topo.Load().find(url); in != nil && in.draining.Load() {
			return 1
		}
		return 0
	}, "instance", url)
	return reqs, fails
}

func (rt *Router) countMembership(op string) {
	rt.reg.Counter(mMembership, "Ring membership changes by operation.", "op", op).Inc()
}
