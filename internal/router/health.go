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
// unhealthy instance: a newcomer, or one the prober marked down. A
// flapping instance has to prove a streak before the ring trusts it
// with keys again.
const probeUpAfter = 2

// probeTimeout bounds one health probe.
const probeTimeout = time.Second

// instance is one routed-to backend plus its health bookkeeping. Three
// independent signals gate traffic: the active prober's verdict
// (healthy), the request-path circuit breaker (openUntil), and the
// supervisor's drain flag. Any of them alone can take the instance out
// of rotation; all must agree it is fine before the ring hands it a key
// again. The prober's verdict is the fleet's only health verdict: an
// unhealthy member stays on the ring, and its keys go to its ring
// successors until the prober readmits it.
type instance struct {
	url string
	// reqs and fails are this member's mInstReqs and mInstFails series,
	// resolved once when the instance joins.
	reqs, fails *telemetry.Counter

	// healthy is the prober's hysteresis-filtered verdict against
	// /v1/healthz. The backends New is given start optimistic — a router
	// booting ahead of its backends must not shed its first requests; a
	// dead backend costs one failover, not an outage. A member joined at
	// runtime starts unhealthy and serves only once the prober admits it.
	healthy atomic.Bool
	// downSince is when the prober last marked this instance down, in
	// unix nanos; 0 while healthy or never marked down.
	downSince atomic.Int64
	// probeFails / probeOKs are the prober's consecutive-verdict
	// streaks. A single blown probe must not take out an instance that is
	// merely busy, and a single lucky probe must not readmit one that is
	// flapping — the verdict flips only after ProbeDownAfter consecutive
	// failures or probeUpAfter consecutive passes. verdictMu orders the
	// two writers, the finished probe and the round that finds it still
	// outstanding; atomics keep healthz reads clean.
	verdictMu  sync.Mutex
	probeFails atomic.Int32
	probeOKs   atomic.Int32
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
	// consecFails counts request-path failures (transport errors,
	// 502/503) since the last success; reaching the breaker threshold
	// opens the breaker for the cooldown.
	consecFails atomic.Int64
	// openUntil is the breaker deadline in unix nanos; 0 means closed.
	openUntil atomic.Int64
	// build is the X-Queryvis-Build of its latest answer (respcache.go).
	build atomic.Value
}

// eligible reports whether the ring may hand this instance a request.
func (in *instance) eligible(now time.Time) bool {
	return in.healthy.Load() && !in.draining.Load() && now.UnixNano() >= in.openUntil.Load()
}

func (in *instance) breakerOpen(now time.Time) bool {
	return now.UnixNano() < in.openUntil.Load()
}

// recordSuccess closes the breaker — any proxied success proves the
// instance serves again.
func (in *instance) recordSuccess() {
	in.consecFails.Store(0)
	in.openUntil.Store(0)
}

// recordFailure counts one request-path failure and opens the breaker
// once the run reaches threshold.
func (in *instance) recordFailure(threshold int, cooldown time.Duration) {
	if in.consecFails.Add(1) >= int64(threshold) {
		in.openUntil.Store(time.Now().Add(cooldown).UnixNano())
	}
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
			rt.noteBuild(in, resp.Header)
			ok = resp.StatusCode == http.StatusOK
		}
	}
	rt.verdict(in, ok)
}

// verdict feeds one pass or fail into the hysteresis counters; the
// healthy verdict flips only on a full streak, so a flapping instance
// cannot thrash the ring's eligibility set probe by probe.
func (rt *Router) verdict(in *instance, ok bool) {
	in.verdictMu.Lock()
	defer in.verdictMu.Unlock()
	if ok {
		in.probeFails.Store(0)
		if in.healthy.Load() {
			in.probeOKs.Store(0)
			return
		}
		if in.probeOKs.Add(1) < probeUpAfter {
			return
		}
		in.probeOKs.Store(0)
		in.healthy.Store(true)
		// Recovery observed by the prober also closes the breaker: the
		// cooldown exists to stop hammering a struggling instance, and a
		// passing health-check streak is better evidence than an expired
		// timer.
		in.recordSuccess()
		if down := in.downSince.Swap(0); down != 0 {
			rt.healDur.Observe(time.Since(time.Unix(0, down)).Seconds())
		}
		rt.log("instance admitted", "instance", in.url)
		return
	}
	in.probeOKs.Store(0)
	if !in.healthy.Load() {
		in.probeFails.Store(0)
		return
	}
	if in.probeFails.Add(1) < int32(rt.cfg.ProbeDownAfter) {
		return
	}
	in.probeFails.Store(0)
	in.healthy.Store(false)
	in.downSince.Store(time.Now().UnixNano())
	rt.log("instance unhealthy", "instance", in.url)
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
				rt.verdict(in, false)
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
