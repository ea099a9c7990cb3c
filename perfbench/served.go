package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"time"

	queryvis "repro"
	"repro/internal/telemetry"
)

// Open-loop arrival rates, the same for every run so both sides of a
// comparison offer the same load. Each sits at a sixth or less of its
// workload's saturation throughput on a 2-core host, so the open-loop
// latency measures service time plus ordinary queueing, and a host slowed
// threefold by its other tenants still keeps up instead of building a
// backlog that no later window recovers from.
const (
	serveColdRate = 500.0
	fleetHotRate  = 1000.0
)

const (
	// setupRepeats is how many times a run starts its fleet; setup_s is
	// the median and the last fleet serves the load.
	setupRepeats = 15
	// traceEvery samples one traced operation in this many for trace
	// lookup and the layer replay.
	traceEvery = 4
	// fleetHotSpellings is K, the spellings drawn per paper query.
	fleetHotSpellings = 4
	// fleetHotZipf is the skew over patterns, the Zipf(1.4) the router's
	// own hot-replication benchmark and churn test use.
	fleetHotZipf = 1.4
)

// servedInput is one request's input and the library's reference for it.
type servedInput struct {
	q        query
	simplify bool
	format   string
	want     expect
	alt      *expect // the reference while the verification breaker is open
}

// servedPlan is a served workload: its inputs, its arrivals and how to
// start its fleet.
type servedPlan struct {
	inputs []servedInput
	reqs   []request // open-loop arrivals in order; the saturation phase cycles them
	rate   float64   // open-loop arrivals per second
	// prime, sent once before the warm-up, holds one request per distinct
	// input of a workload with a cache, so every measured phase sees the
	// same warm caches rather than the first sight of a rare spelling.
	prime []request
	// probes marks a fleet whose cache is on: a request that runs the
	// pipeline first computes its pattern key.
	probes bool
	start  func(c config, f *fleet) error
}

func (p *servedPlan) addRequests(order []int) error {
	for _, in := range order {
		x := &p.inputs[in]
		body, err := json.Marshal(map[string]any{
			"sql": x.q.sql, "schema": x.q.schema, "simplify": x.simplify, "format": x.format,
		})
		if err != nil {
			return err
		}
		p.reqs = append(p.reqs, request{in: in, body: body, want: &x.want, alt: x.alt})
	}
	return nil
}

// phases splits a run's seconds. Every run first warms its system up
// with the open-loop load for a tenth of them, untimed, so the measured
// phases see filled caches and a grown heap. A timed run then has an
// open-loop phase and a closed-loop saturation phase; a traced one has
// two equal open-loop phases, untraced and traced.
func phases(c config) (warm, first, second time.Duration) {
	s := time.Duration(c.seconds * float64(time.Second))
	if c.traced {
		return s / 10, s * 45 / 100, s * 45 / 100
	}
	return s / 10, s / 2, s * 2 / 5
}

// tracedFirst reports whether a traced run measures its traced phase
// before its untraced one. The order alternates with the seed, so drift
// of the host over a run does not always favour the same phase.
func tracedFirst(c config) bool { return c.seed%2 != 0 }

// openArrivals is the number of open-loop arrivals a run sends at rate.
func openArrivals(c config, rate float64) int {
	warm, first, second := phases(c)
	d := warm + first
	if c.traced {
		d += second
	}
	return int(rate*d.Seconds()) + 16
}

// coldDraw counts how serve-cold's inputs were drawn.
type coldDraw struct {
	Drawn int `json:"drawn"`
	// Refused are generated queries the library rejects with an error,
	// which queryvisd would answer with a non-200; they are left out.
	Refused int `json:"refused"`
	// Unverified are kept queries whose reference is not verified or is
	// degraded: the inverse search ran out of budget or fell down the
	// ladder.
	Unverified int `json:"unverified"`
}

// serveColdInputs returns n generated inputs and how they were drawn.
// Every generated query the library answers is kept, verified or not.
// Half set simplify; the format rotates over dot, svg and text. Each
// input also carries the reference for an open verification breaker,
// under which queryvisd serves the unverified diagram flagged "skipped".
func serveColdInputs(seed int64, n int) ([]servedInput, coldDraw) {
	var out []servedInput
	var d coldDraw
	for batch := int64(0); len(out) < n && batch < 8; batch++ {
		qs := generated(seed*1000+batch, n+n/4)
		ins := make([]servedInput, len(qs))
		okay := make([]bool, len(qs))
		unverified := make([]bool, len(qs))
		parallel(len(qs), func(i int) {
			in := servedInput{q: qs[i], simplify: i%2 == 1, format: formats[i%3]}
			res, err := servedResult(in.q.sql, in.q.schema, in.simplify, queryvis.VerifyDegrade)
			if err != nil {
				return
			}
			if in.want, err = servedExpect(res, in.format); err != nil {
				return
			}
			if res.VerifyStatus != queryvis.VerifyStatusVerified || res.Degraded != "" {
				unverified[i] = true
				if res, err = servedResult(in.q.sql, in.q.schema, in.simplify, queryvis.VerifyOff); err != nil {
					return
				}
			}
			out, err := render(res, in.format)
			if err != nil {
				return
			}
			alt := wireDiagram{in.format, out, queryvis.VerifyStatusSkipped, ""}.expect()
			in.alt = &alt
			ins[i], okay[i] = in, true
		})
		for i, ok := range okay {
			if len(out) == n {
				break
			}
			d.Drawn++
			switch {
			case !ok:
				d.Refused++
			case unverified[i]:
				d.Unverified++
				fallthrough
			default:
				out = append(out, ins[i])
			}
		}
	}
	return out, d
}

// runServeCold: one instance, in-process pipeline, verify=degrade, cache
// off; every open-loop arrival is a distinct generated query.
func runServeCold(c config, rep *report) error {
	checkPaper(c.root, rep)
	n := openArrivals(c, serveColdRate)
	inputs, draw := serveColdInputs(c.seed, n)
	if len(inputs) < n {
		return fmt.Errorf("only %d of %d generated inputs render", len(inputs), n)
	}
	rep.note("inputs_drawn", draw)
	rep.note("inputs_refused_share", float64(draw.Refused)/float64(max(draw.Drawn, 1)))
	rep.note("inputs_unverified_share", float64(draw.Unverified)/float64(len(inputs)))
	p := &servedPlan{inputs: inputs, rate: serveColdRate}
	order := make([]int, len(p.inputs))
	for i := range order {
		order[i] = i
	}
	if err := p.addRequests(order); err != nil {
		return err
	}
	p.start = func(c config, f *fleet) error {
		args := []string{"-isolation=none", "-verify", "degrade", "-cache-entries", "0"}
		if c.traced {
			args = append(args, "-pprof")
		}
		urls, err := f.startInstances(c.queryvisd, 1, args...)
		if err != nil {
			return err
		}
		f.target = urls[0]
		return nil
	}
	return runServed(c, rep, p)
}

// runFleetHot: a router over two process-isolated instances with the
// cache at its defaults, serving Zipf-skewed respellings of the paper
// corpus.
func runFleetHot(c config, rep *report) error {
	checkPaper(c.root, rep)
	p, groups, err := fleetHotPlan(c.seed)
	if err != nil {
		return err
	}
	rep.note("patterns", groups)
	rep.note("inputs", len(p.inputs))
	rng := rand.New(rand.NewSource(c.seed))
	zipf := rand.NewZipf(rng, fleetHotZipf, 1, uint64(len(groups)-1))
	p.rate = fleetHotRate
	order := make([]int, openArrivals(c, p.rate))
	for i := range order {
		g := groups[zipf.Uint64()]
		spelling := g[rng.Intn(len(g))]
		order[i] = spelling*len(formats) + i%len(formats)
	}
	all := make([]int, len(p.inputs))
	for i := range all {
		all[i] = i
	}
	if err := p.addRequests(all); err != nil {
		return err
	}
	p.prime, p.reqs = p.reqs, nil
	if err := p.addRequests(order); err != nil {
		return err
	}
	p.start = func(c config, f *fleet) error {
		f.workers = 2
		args := []string{"-isolation=process", "-workers", "2"}
		var extra []string
		if c.traced {
			extra = []string{"-pprof"}
		}
		urls, err := f.startInstances(c.queryvisd, 2, append(args, extra...)...)
		if err != nil {
			return err
		}
		f.target, err = f.startRouter(c.queryvisd, urls, extra...)
		return err
	}
	return runServed(c, rep, p)
}

// fleetHotPlan builds fleet-hot's inputs: one representative per
// distinct pattern key of the paper corpus, its pattern-mates and the
// respellings of both, each admitted only when the library renders it
// to the representative's exact bytes in every format. Input
// spelling*3+f is spelling s in formats[f]. groups lists each pattern's
// spellings in corpus order, which is also the Zipf rank order.
func fleetHotPlan(seed int64) (*servedPlan, [][]int, error) {
	paper := paperCorpus()
	type ref struct {
		key   string
		bytes [3]expect
		ok    bool
	}
	renderAll := func(sql, schemaName string) (r ref) {
		res, err := servedResult(sql, schemaName, false, queryvis.VerifyDegrade)
		if err != nil || res.VerifyStatus != queryvis.VerifyStatusVerified || res.Degraded != "" {
			return r
		}
		key, keyed := queryvis.PatternFingerprintBounded(res.Diagram, queryvis.DefaultFingerprintPerms)
		if !keyed {
			return r
		}
		for f, format := range formats {
			if r.bytes[f], err = servedExpect(res, format); err != nil {
				return r
			}
		}
		r.key, r.ok = key, true
		return r
	}
	refs := make([]ref, len(paper))
	parallel(len(paper), func(i int) { refs[i] = renderAll(paper[i].sql, paper[i].schema) })

	// group[i] is paper query i's pattern, or -1 when it is left out: it
	// does not render, or it is a pattern-mate the pattern cache would
	// serve its representative's bytes for.
	group := make([]int, len(paper))
	var groupBytes [][3]expect
	byKey := map[string]int{}
	for i := range paper {
		group[i] = -1
		if !refs[i].ok {
			continue
		}
		g, seen := byKey[refs[i].key]
		if !seen {
			g = len(groupBytes)
			byKey[refs[i].key] = g
			groupBytes = append(groupBytes, refs[i].bytes)
		}
		if groupBytes[g] == refs[i].bytes {
			group[i] = g
		}
	}
	rng := rand.New(rand.NewSource(seed))
	seeds := make([]int64, len(paper))
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	spellings := make([][]string, len(paper))
	parallel(len(paper), func(i int) {
		if g := group[i]; g >= 0 {
			spellings[i] = respellings(seeds[i], paper[i].sql, fleetHotSpellings, func(s string) bool {
				r := renderAll(s, paper[i].schema)
				return r.ok && r.bytes == groupBytes[g]
			})
		}
	})

	p := &servedPlan{probes: true}
	groups := make([][]int, len(groupBytes))
	for i, q := range paper {
		for k, s := range spellings[i] {
			g := group[i]
			groups[g] = append(groups[g], len(p.inputs)/len(formats))
			for f, format := range formats {
				p.inputs = append(p.inputs, servedInput{
					q:      query{fmt.Sprintf("%s#%d", q.name, k), s, q.schema},
					format: format,
					want:   groupBytes[g][f],
				})
			}
		}
	}
	var kept [][]int
	for _, g := range groups {
		if len(g) > 0 {
			kept = append(kept, g)
		}
	}
	if len(kept) < 2 {
		return nil, nil, errors.New("fewer than two paper patterns render verified diagrams")
	}
	return p, kept, nil
}

// runServed sets up the plan's fleet several times, keeps the last one,
// warms it up and measures it.
func runServed(c config, rep *report, p *servedPlan) error {
	if c.queryvisd == "" {
		return errors.New("--queryvisd is required for the served workloads")
	}
	var setups []float64
	var f *fleet
	for k := 0; k < setupRepeats; k++ {
		if f != nil {
			for _, pr := range f.stop() {
				rep.problem("%s", pr)
			}
		}
		f = &fleet{}
		t0 := time.Now()
		if err := p.start(c, f); err != nil {
			f.stop()
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		for _, pr := range f.stop() {
			rep.problem("%s", pr)
		}
	}()
	rep.note("setup_runs_s", setups)
	rep.set("setup_s", median(setups), "s")
	rep.note("rate_per_s", p.rate)
	rep.note("connections", nproc)

	cl := newLoadClient(f.target, nproc)
	defer cl.close()
	warm, first, second := phases(c)
	var primed []sample
	for i := range p.prime {
		primed = append(primed, cl.do(&p.prime[i], "p"+strconv.Itoa(i)))
	}
	rep.count(summarize(primed))
	reqs := p.reqs
	w := openLoop(cl, reqs, p.rate, warm, nproc, "w", nil)
	rep.count(summarize(w))
	// The requests an instance served so far, in order: the cache replay
	// of a traced run starts from them.
	served := append(reachedInstance(p.prime, primed), reachedInstance(reqs, w)...)
	reqs = reqs[len(w):]
	runtime.GC() // leave the set-up garbage out of the measured phases
	if c.traced {
		return tracedServed(c, rep, p, f, cl, reqs, served, first, second)
	}

	m := startMeter(f.usage)
	open := openLoop(cl, reqs, p.rate, first, nproc, "o", nil)
	us := m.finish()
	sat := closedLoop(second, nproc, func(i int) sample {
		return cl.do(&reqs[(len(open)+i)%len(reqs)], "c"+strconv.Itoa(i))
	})
	cpus, rsss := perWindow(us, open)

	to, ts := summarize(open), summarize(sat)
	rep.count(to)
	rep.count(ts)
	rep.set("latency_p50_ms", to.p50, "ms")
	rep.set("latency_p99_ms", to.p99, "ms")
	rep.set("throughput_rps", ts.throughput, "1/s")
	rep.set("cpu_ms_per_op", phaseCPU(us, open), "ms")
	rep.set("peak_rss_mb", median(rsss), "MB")
	windowNotes(rep, to, ts, cpus)
	rep.set("loadgen.lateness_p99_ms", to.lateP99, "ms")
	rep.note("latency_samples", to.n)
	rep.note("saturation_ops", ts.n)
	if p.probes {
		rep.note("tiers", tiers(open))
	}
	return nil
}

// reachedInstance returns the requests whose samples an instance
// served, not the router's response cache.
func reachedInstance(reqs []request, ss []sample) []request {
	var out []request
	for i, s := range ss {
		if !s.routed {
			out = append(out, reqs[i])
		}
	}
	return out
}

// tiers is the share of a cached fleet's arrivals that each tier
// answered: the router's response cache, an instance's diagram cache
// (exact or pattern hit), or a pipeline build.
func tiers(ss []sample) map[string]float64 {
	var router, hit, build float64
	for _, s := range ss {
		switch {
		case !s.ok:
		case s.routed:
			router++
		case s.cached:
			hit++
		default:
			build++
		}
	}
	n := float64(max(len(ss), 1))
	return map[string]float64{"router_cache": router / n, "instance_cache": hit / n, "pipeline": build / n}
}

// tracedServed runs two open-loop phases on one fleet, untraced and
// traced, in the order tracedFirst gives. In the traced phase one
// operation in traceEvery has its merged trace fetched from the target's
// /v1/traces as soon as it completes. queryvisd traces every request in
// both phases, so on a served workload the difference of the two phases'
// end-to-end numbers is the cost of trace collection: the lookups and
// the router's read-time assembly. The traced phase's spans, the
// /v1/metrics counters scraped around it and an in-process replay of its
// inputs give the per-layer metrics. served lists the requests the
// instances served before the measured phases, for the cache replay.
func tracedServed(c config, rep *report, p *servedPlan, f *fleet, cl *loadClient, reqs, served []request, first, second time.Duration) error {
	var (
		a, b       []sample
		breqs      []request
		cpuA, cpuB float64
		mem0, mem1 []map[string]float64
		met0, met1 []map[string]float64
		traces     []tracedOp
		missed     int
	)
	untraced := func(rs []request) int {
		mem0 = scrapeAll(f.urls, scrapeMemStats)
		cpu0 := f.cpuMS()
		a = openLoop(cl, rs, p.rate, first, nproc, "a", nil)
		cpuA = f.cpuMS() - cpu0
		mem1 = scrapeAll(f.urls, scrapeMemStats)
		return len(a)
	}
	traced := func(rs []request) int {
		breqs = rs
		met0 = scrapeAll(f.urls, scrapeMetrics)
		fetch := newTraceFetcher(f.target, int(p.rate*second.Seconds())/traceEvery+1)
		cpu0 := f.cpuMS()
		b = openLoop(cl, rs, p.rate, second, nproc, "b", func(i int, s sample) {
			if i%traceEvery == 0 && s.ok {
				fetch.add(i, s.rid)
			}
		})
		cpuB = f.cpuMS() - cpu0
		traces, missed = fetch.wait(), fetch.missed
		met1 = scrapeAll(f.urls, scrapeMetrics)
		return len(b)
	}
	if tracedFirst(c) {
		untraced(reqs[traced(reqs):])
	} else {
		n := untraced(reqs)
		served = append(served, reachedInstance(reqs, a)...)
		traced(reqs[n:])
	}
	rep.note("traced_phase_first", tracedFirst(c))

	ta, tb := summarize(a), summarize(b)
	rep.count(ta)
	rep.count(tb)
	cpuA /= float64(max(ta.ok, 1))
	cpuB /= float64(max(tb.ok, 1))
	rep.set("latency_p99_ms", ta.p99, "ms")
	rep.set("trace.overhead_p50_ms", tb.p50-ta.p50, "ms")
	rep.set("trace.overhead_p99_ms", tb.p99-ta.p99, "ms")
	rep.set("trace.overhead_cpu_ms_per_op", cpuB-cpuA, "ms")
	rep.set("loadgen.lateness_p99_ms", tb.lateP99, "ms")
	rep.note("untraced", map[string]float64{"p50_ms": ta.p50, "p99_ms": ta.p99, "cpu_ms_per_op": cpuA})
	rep.note("traced", map[string]float64{"p50_ms": tb.p50, "p99_ms": tb.p99, "cpu_ms_per_op": cpuB})

	// The Go runtime of the router and instances, from their own
	// MemStats; worker children expose none.
	mallocs := sumKey(mem1, "Mallocs") - sumKey(mem0, "Mallocs")
	bytes := sumKey(mem1, "TotalAlloc") - sumKey(mem0, "TotalAlloc")
	rep.set("runtime.allocs_per_op", mallocs/float64(max(ta.n, 1)), "count")
	rep.set("runtime.bytes_per_op", bytes/float64(max(ta.n, 1)), "bytes")
	rep.set("runtime.gc_cpu_fraction", sumKey(mem1, "GCCPUFraction")/float64(max(len(mem1), 1)), "ratio")

	counterLayers(rep, met0, met1)
	if p.probes {
		t := tiers(b)
		rep.note("tiers", t)
		rep.set("diagcache.served_hit_ratio", t["instance_cache"], "ratio")
		replayCache(rep, p, served, reachedInstance(breqs, b))
	}

	var ops []opTrace
	for _, t := range traces {
		in := breqs[t.i].in
		ops = append(ops, opTrace{ID: t.rid, in: in, format: p.inputs[in].format, Spans: t.spans})
	}
	rep.note("trace_lookups_missed", missed)
	costs := newCostBook(func(in int) (query, bool, bool) {
		x := p.inputs[in]
		return x.q, x.simplify, true
	})
	spanLayers(rep, ops, costs, p.probes)
	writeSpans(c, ops)
	return nil
}

// scrapeAll scrapes every URL, skipping those that fail.
func scrapeAll(urls []string, scrape func(string) (map[string]float64, error)) []map[string]float64 {
	var out []map[string]float64
	for _, u := range urls {
		if m, err := scrape(u); err == nil {
			out = append(out, m)
		}
	}
	return out
}

// sumKey adds key over the scraped processes.
func sumKey(ms []map[string]float64, key string) float64 {
	s := 0.0
	for _, m := range ms {
		s += m[key]
	}
	return s
}

// sumPrefixAll adds every series starting with prefix over the scraped
// processes.
func sumPrefixAll(ms []map[string]float64, prefix string) float64 {
	s := 0.0
	for _, m := range ms {
		s += sumPrefix(m, prefix)
	}
	return s
}

// counterLayers turns the /v1/metrics counters scraped before and after
// the traced phase into the server, workerpool and router metrics.
func counterLayers(rep *report, m0, m1 []map[string]float64) {
	delta := func(prefix string) float64 { return sumPrefixAll(m1, prefix) - sumPrefixAll(m0, prefix) }
	shed, served := delta("queryvis_http_shed_total"), delta("queryvis_http_served_total")
	rep.set("server.shed_ratio", shed/max(shed+served, 1), "ratio")

	// Only an instance with a worker pool exports its counters.
	if sumPrefixAll(m1, "queryvis_worker_spawns_total") > 0 {
		batches := delta("queryvis_worker_batches_total")
		rep.set("workerpool.batch_size", delta("queryvis_worker_batch_items_total")/max(batches, 1), "count")
		rep.set("workerpool.respawns", delta("queryvis_worker_spawns_total"), "count")
		rep.note("workerpool_coalesced_frames", batches)
	}

	routed := delta("queryvis_router_requests_total")
	if routed == 0 {
		return
	}
	rep.set("router.respcache_hit_ratio", delta(`queryvis_router_stampede_total{outcome="hit"}`)/routed, "ratio")
	rep.set("router.retries", delta("queryvis_router_failovers_total"), "count")
	per := map[string]float64{}
	for i, m := range m1 {
		for k, v := range m {
			if strings.HasPrefix(k, "queryvis_router_instance_requests_total{") {
				before := 0.0
				if i < len(m0) {
					before = m0[i][k]
				}
				per[k] += v - before
			}
		}
	}
	total, top := 0.0, 0.0
	for _, v := range per {
		total += v
		top = max(top, v)
	}
	if total > 0 {
		rep.set("router.max_instance_share", top/total, "ratio")
	}
}

// tracedOp is one fetched trace.
type tracedOp struct {
	i     int
	rid   string
	spans []telemetry.Span
}

// traceFetcher looks traces up by request ID while the load runs: the
// rings hold the last 256 traces of each process, so a lookup must
// follow its request closely.
type traceFetcher struct {
	target string
	ids    chan tracedOp
	done   chan struct{}
	got    []tracedOp
	missed int
}

// newTraceFetcher's queue holds every lookup a phase can ask for, so
// queueing one never blocks the load.
func newTraceFetcher(target string, capacity int) *traceFetcher {
	t := &traceFetcher{target: target, ids: make(chan tracedOp, capacity), done: make(chan struct{})}
	go func() {
		defer close(t.done)
		for op := range t.ids {
			spans, err := fetchTrace(t.target, op.rid)
			if err != nil || len(spans) == 0 {
				t.missed++
				continue
			}
			op.spans = spans
			t.got = append(t.got, op)
		}
	}()
	return t
}

// add queues a lookup; a full queue drops it rather than block the load.
func (t *traceFetcher) add(i int, rid string) {
	select {
	case t.ids <- tracedOp{i: i, rid: rid}:
	default:
	}
}

func (t *traceFetcher) wait() []tracedOp {
	close(t.ids)
	<-t.done
	return t.got
}

func fetchTrace(target, rid string) ([]telemetry.Span, error) {
	resp, err := probe.Get(target + "/v1/traces?request_id=" + url.QueryEscape(rid))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var body struct {
		Traces []struct {
			Spans      []telemetry.Span `json:"spans"`
			MergeError string           `json:"merge_error"`
		} `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	if len(body.Traces) == 0 {
		return nil, errors.New("trace not held")
	}
	if e := body.Traces[0].MergeError; e != "" {
		return nil, errors.New(e)
	}
	return body.Traces[0].Spans, nil
}

// replayCache models the worker caches of the fleet with one library
// pattern cache (FromSQLCachedContext, the path each worker runs): the
// workers' caches export no counters of their own. It replays, nproc at
// a time and in order, the requests the instances served before the
// traced phase, then those they served in it, and reads the cache's own
// counters over the second part. Requests the router's response cache
// answered never reach a worker and are not replayed.
func replayCache(rep *report, p *servedPlan, before, during []request) {
	reg := telemetry.NewRegistry()
	cache := queryvis.NewDiagramCache(queryvis.DiagramCacheConfig{Metrics: reg})
	lim := queryvis.DefaultLimits()
	replay := func(reqs []request) {
		parallel(len(reqs), func(i int) {
			x := p.inputs[reqs[i].in]
			_, _, _, _ = queryvis.FromSQLCached(x.q.sql, mustSchema(x.q.schema), queryvis.Options{
				Simplify: x.simplify, Limits: &lim, Verify: queryvis.VerifyDegrade, Cache: cache,
			})
		})
	}
	const requests = "queryvis_cache_requests_total"
	read := func() [5]float64 {
		return [5]float64{
			reg.Value(requests, "outcome", "hit"),
			reg.Value(requests, "outcome", "hit_pattern"),
			reg.Value(requests, "outcome", "hit_flight"),
			reg.Value("queryvis_cache_inserts_total"),
			float64(cache.Stats().Evictions),
		}
	}
	replay(before)
	v0 := read()
	replay(during)
	v1 := read()
	n := float64(max(len(during), 1))
	rep.set("diagcache.exact_hit_ratio", (v1[0]-v0[0])/n, "ratio")
	rep.set("diagcache.pattern_hit_ratio", (v1[1]-v0[1])/n, "ratio")
	rep.set("diagcache.flight_wait_ratio", (v1[2]-v0[2])/n, "ratio")
	rep.set("diagcache.inserts", v1[3]-v0[3], "count")
	rep.set("diagcache.evictions", v1[4]-v0[4], "count")
	rep.note("diagcache_replayed", map[string]int{"before": len(before), "during": len(during)})
}
