package router

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// probeUpAfter is how many consecutive passing probes admit an
// unhealthy instance: a newcomer, or one marked down. A flapping
// instance has to prove a streak before the ring trusts it with keys
// again.
const probeUpAfter = 2

// probeTimeout bounds one health probe.
const probeTimeout = time.Second

// instance is one routed-to backend plus its health bookkeeping. Two
// signals gate traffic: the member's health verdict (healthy) and the
// supervisor's drain flag. The verdict is the fleet's only health
// verdict: an unhealthy member stays on the ring, and its keys go to
// its ring successors until the prober readmits it.
type instance struct {
	url string
	// reqs and fails are this member's mInstReqs and mInstFails series,
	// resolved once when the instance joins.
	reqs, fails *telemetry.Counter

	// healthy is the hysteresis-filtered verdict. The backends New is
	// given start optimistic — a router booting ahead of its backends
	// must not shed its first requests; a dead backend costs one
	// failover, not an outage. A member joined at runtime starts
	// unhealthy and serves only once the prober admits it.
	healthy atomic.Bool
	// downSince is when the member was last marked down, in unix nanos;
	// 0 while healthy or never marked down.
	downSince atomic.Int64
	// failStreak / passStreak are the member's one streak. Probes and
	// forwarded outcomes both feed failStreak, and ProbeDownAfter
	// failures mark the member down; only probes feed passStreak, and
	// probeUpAfter consecutive passes admit it. A pass clears the
	// failures of its own kind: a forwarded pass clears them all, a
	// probe pass only the failed probes, since a healthz that answers
	// says nothing about the requests that did not (fwdFails counts the
	// forwarded failures in the streak). A single blown probe or request
	// must not take out a member that is merely busy, and a single lucky
	// probe must not readmit one that is flapping. verdictMu orders the
	// writers; atomics keep healthz reads and the clean-streak fast path
	// lock-free.
	verdictMu  sync.Mutex
	failStreak atomic.Int32
	passStreak atomic.Int32
	fwdFails   int32
	// draining marks an instance the fleet supervisor is retiring: it
	// receives no new assignments and finishes what it has; the
	// supervisor ejects it once its in-flight count reads zero.
	draining atomic.Bool
	// inflight counts requests currently proxied to this instance.
	inflight atomic.Int64
	// probing is set while a probe of this instance is outstanding, so a
	// slow probe is never overlapped by the next round's; that round
	// counts a miss instead.
	probing atomic.Bool
	// build is the X-Queryvis-Build of its latest answer (respcache.go).
	build atomic.Value
}

// eligible reports whether the ring may hand this instance a request.
func (in *instance) eligible() bool {
	return in.healthy.Load() && !in.draining.Load()
}

// reportedBuild is the answer identity of the member's latest answer,
// "" before it has answered.
func (in *instance) reportedBuild() string {
	b, _ := in.build.Load().(string)
	return b
}

// probe runs one active health check: a GET against /v1/healthz with a
// hard timeout, cut short when the router closes. Any 200 is a pass;
// anything else — including a healthz that answers 503 because the
// backend is draining — is a fail.
func (rt *Router) probe(in *instance) {
	ok := false
	ctx, cancel := context.WithTimeout(rt.ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, in.url+"/v1/healthz", nil)
	if err == nil {
		if resp, perr := rt.probeClient.Do(req); perr == nil {
			drain(resp)
			noteBuild(in, resp.Header)
			ok = resp.StatusCode == http.StatusOK
		}
	}
	rt.verdict(in, ok, true)
}

// forwarded feeds one forwarded outcome into the member's streak. A
// pass that finds the streak clean takes no lock, so the miss path
// costs what it did before forwarded outcomes counted.
func (rt *Router) forwarded(in *instance, ok bool) {
	if ok && in.failStreak.Load() == 0 {
		return
	}
	rt.verdict(in, ok, false)
}

// verdict feeds one pass or fail into the member's streak; the verdict
// flips only on a full streak, so a flapping instance cannot thrash the
// ring's eligibility set outcome by outcome. Failures from either
// source count toward ProbeDownAfter; admission is the prober's alone,
// so a forwarded outcome on a down member (a request that was in flight
// when it went down) changes nothing.
func (rt *Router) verdict(in *instance, ok, probed bool) {
	in.verdictMu.Lock()
	defer in.verdictMu.Unlock()
	if !in.healthy.Load() {
		if !probed {
			return
		}
		in.failStreak.Store(0)
		in.fwdFails = 0
		if !ok {
			in.passStreak.Store(0)
			return
		}
		if in.passStreak.Add(1) < probeUpAfter {
			return
		}
		in.passStreak.Store(0)
		in.healthy.Store(true)
		if down := in.downSince.Swap(0); down != 0 {
			rt.healDur.Observe(time.Since(time.Unix(0, down)).Seconds())
		}
		rt.log("instance admitted", "instance", in.url)
		return
	}
	switch {
	case ok && probed:
		in.failStreak.Store(in.fwdFails)
		return
	case ok:
		in.failStreak.Store(0)
		in.fwdFails = 0
		return
	case !probed:
		in.fwdFails++
	}
	if in.failStreak.Add(1) < int32(rt.cfg.ProbeDownAfter) {
		return
	}
	in.failStreak.Store(0)
	in.fwdFails = 0
	in.healthy.Store(false)
	in.downSince.Store(time.Now().UnixNano())
	rt.log("instance unhealthy", "instance", in.url, "probe", probed)
}

// prober polls every current ring member on the configured interval
// until Close. Membership is read fresh each round, so joined
// instances are probed from their next round and ejected ones are
// forgotten. A round's probes run concurrently, and a member whose
// previous probe is still outstanding counts a miss instead of a new
// probe: a blackholed member goes down after ProbeDownAfter rounds, not
// after ProbeDownAfter probe timeouts, and costs no other member's
// verdict anything. A healthz slower than HealthInterval therefore
// counts as a miss too, though its late pass still resets the streak.
func (rt *Router) prober() {
	defer rt.loops.Done()
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	for {
		for _, in := range rt.topo.Load().insts {
			if !in.probing.CompareAndSwap(false, true) {
				rt.verdict(in, false, true)
				continue
			}
			rt.loops.Add(1)
			go func() {
				defer rt.loops.Done()
				defer in.probing.Store(false)
				rt.probe(in)
			}()
		}
		select {
		case <-rt.ctx.Done():
			return
		case <-t.C:
		}
	}
}
