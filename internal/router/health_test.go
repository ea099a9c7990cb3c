package router

import "testing"

// verdictRouter is a router with nothing but its health policy: enough
// to drive verdict and forwarded directly, with no prober and no clock.
func verdictRouter() (*Router, *instance) {
	rt := &Router{cfg: Config{Backends: []string{"http://a"}}.WithDefaults()}
	in := &instance{url: "http://a"}
	in.healthy.Store(true)
	return rt, in
}

// TestLyingMemberGoesDown: a member whose healthz passes while every
// request forwarded to it fails leaves rotation within ProbeDownAfter
// probe intervals even at one request per interval: a passing probe
// does not erase a forwarded failure.
func TestLyingMemberGoesDown(t *testing.T) {
	rt, in := verdictRouter()
	for interval := 1; interval <= rt.cfg.ProbeDownAfter; interval++ {
		rt.verdict(in, true, true) // healthz passes
		rt.forwarded(in, false)    // the one request of the interval 503s
	}
	if in.healthy.Load() {
		t.Fatalf("liar still healthy after %d probe intervals", rt.cfg.ProbeDownAfter)
	}
}

// TestForwardedPassClearsForwardedFailure: one 502 followed by
// successful requests keeps the member in rotation, however the probes
// interleave; so do failed probes answered by passing ones.
func TestForwardedPassClearsForwardedFailure(t *testing.T) {
	rt, in := verdictRouter()
	rt.forwarded(in, false)
	rt.verdict(in, true, true)
	rt.forwarded(in, true)
	for i := 0; i < 10; i++ {
		rt.verdict(in, true, true)
		rt.forwarded(in, true)
	}
	rt.forwarded(in, false)
	rt.forwarded(in, true)
	rt.verdict(in, false, true)
	rt.verdict(in, true, true)
	rt.verdict(in, false, true)
	if !in.healthy.Load() {
		t.Fatal("member with isolated failures was marked down")
	}
	// A failed probe on top of a standing forwarded failure completes
	// the streak.
	rt.forwarded(in, false)
	rt.verdict(in, true, true)
	rt.verdict(in, false, true)
	if in.healthy.Load() {
		t.Fatal("forwarded failure plus failed probe left the member up")
	}
}
