package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	queryvis "repro"
	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/inverse"
	"repro/internal/logictree"
	"repro/internal/sqlparse"
	"repro/internal/svg"
	"repro/internal/telemetry"
	"repro/internal/trc"
)

// perLayer lists the metrics a --trace 1 run reports, named by module.
// Timings are mean self time per operation; a layer a workload does not
// exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"sqlparse.parse_us", "us"},
	{"sqlparse.resolve_us", "us"},
	{"sqlparse.allocs", "count"},
	{"trc.convert_us", "us"},
	{"trc.allocs", "count"},
	{"logictree.build_us", "us"},
	{"logictree.nodes", "count"},
	{"logictree.allocs", "count"},
	{"core.build_us", "us"},
	{"core.tables", "count"},
	{"core.edges", "count"},
	{"core.build_allocs", "count"},
	{"core.patternkey_us", "us"},
	{"core.patternkey_p99_us", "us"},
	{"core.patternkey_perms", "count"},
	{"core.patternkey_refused_ratio", "ratio"},
	{"core.patternkey_allocs", "count"},
	{"inverse.recover_us", "us"},
	{"inverse.recover_p99_us", "us"},
	{"inverse.search_nodes", "count"},
	{"inverse.verified_ratio", "ratio"},
	{"inverse.allocs", "count"},
	{"dot.render_us", "us"},
	{"dot.text_us", "us"},
	{"dot.bytes", "bytes"},
	{"dot.allocs", "count"},
	{"svg.render_us", "us"},
	{"svg.bytes", "bytes"},
	{"svg.allocs", "count"},
	{"diagcache.exact_hit_ratio", "ratio"},
	{"diagcache.pattern_hit_ratio", "ratio"},
	{"diagcache.flight_wait_ratio", "ratio"},
	{"diagcache.inserts", "count"},
	{"diagcache.evictions", "count"},
	{"diagcache.served_hit_ratio", "ratio"},
	{"server.elapsed_ms", "ms"},
	{"server.elapsed_p99_ms", "ms"},
	{"server.shed_ratio", "ratio"},
	{"workerpool.dispatch_wait_ms", "ms"},
	{"workerpool.batch_size", "count"},
	{"workerpool.respawns", "count"},
	{"router.hop_ms", "ms"},
	{"router.respcache_hit_ratio", "ratio"},
	{"router.max_instance_share", "ratio"},
	{"router.retries", "count"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.bytes_per_op", "bytes"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"trace.overhead_p50_ms", "ms"},
	{"trace.overhead_p99_ms", "ms"},
	{"trace.overhead_cpu_ms_per_op", "ms"},
	{"trace.sampled_ops", "count"},
	{"latency_p99_ms", "ms"},
	{"loadgen.lateness_p99_ms", "ms"},
	{"error_rate", "ratio"},
}

// A unit is one call into a layer's public functions: a pipeline span
// name, "patternkey", or "render:<format>".
var (
	timeMetric = map[string]string{
		"parse": "sqlparse.parse_us", "resolve": "sqlparse.resolve_us",
		"convert": "trc.convert_us", "logictree": "logictree.build_us",
		"build": "core.build_us", "patternkey": "core.patternkey_us",
		"verify": "inverse.recover_us", "render:dot": "dot.render_us",
		"render:text": "dot.text_us", "render:svg": "svg.render_us",
	}
	allocMetric = map[string]string{
		"parse": "sqlparse.allocs", "resolve": "sqlparse.allocs",
		"convert": "trc.allocs", "logictree": "logictree.allocs",
		"build": "core.build_allocs", "patternkey": "core.patternkey_allocs",
		"verify": "inverse.allocs", "render:dot": "dot.allocs",
		"render:text": "dot.allocs", "render:svg": "svg.allocs",
	}
)

// opTrace is the trace of one sampled operation.
type opTrace struct {
	ID     string           `json:"request_id"`
	Spans  []telemetry.Span `json:"spans"`
	in     int              // input index
	format string           // rendering the request asked for
}

// selfTimes returns each span's duration minus the part of it that its
// child spans cover.
func selfTimes(spans []telemetry.Span) []time.Duration {
	children := make(map[string][]int, len(spans))
	for i, sp := range spans {
		if sp.Parent != "" {
			children[sp.Parent] = append(children[sp.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, sp := range spans {
		end := sp.Start.Add(sp.Duration)
		type iv struct{ s, e time.Time }
		var ivs []iv
		for _, c := range children[sp.ID] {
			s, e := spans[c].Start, spans[c].Start.Add(spans[c].Duration)
			if s.Before(sp.Start) {
				s = sp.Start
			}
			if e.After(end) {
				e = end
			}
			if e.After(s) {
				ivs = append(ivs, iv{s, e})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].s.Before(ivs[b].s) })
		var covered time.Duration
		var cur iv
		for k, v := range ivs {
			switch {
			case k == 0:
				cur = v
			case !v.s.After(cur.e):
				if v.e.After(cur.e) {
					cur.e = v.e
				}
			default:
				covered += cur.e.Sub(cur.s)
				cur = v
			}
		}
		if len(ivs) > 0 {
			covered += cur.e.Sub(cur.s)
		}
		out[i] = max(sp.Duration-covered, 0)
	}
	return out
}

// costs is what an in-process replay of one input through each layer's
// public functions measured: allocations per unit, the pattern-key call
// time, and the sizes of the artifacts.
type costs struct {
	allocs  map[string]float64
	bytes   map[string]float64
	keyUS   float64
	perms   float64
	refused bool
	nodes   float64
	tables  float64
	edges   float64
}

// costBook replays inputs on demand, once each.
type costBook struct {
	input func(in int) (q query, simplify, verify bool)
	memo  map[int]*costs
	perms map[string]float64 // by pattern key, an isomorphism invariant
}

func newCostBook(input func(int) (query, bool, bool)) *costBook {
	return &costBook{input: input, memo: map[int]*costs{}, perms: map[string]float64{}}
}

func (b *costBook) get(in int) *costs {
	if c, ok := b.memo[in]; ok {
		return c
	}
	q, simplify, verify := b.input(in)
	c := b.measure(q, simplify, verify)
	b.memo[in] = c
	return c
}

// measure runs one input through the stages the pipeline runs, counting
// each stage's heap allocations. It runs after the load has stopped, so
// the process's allocation counter sees only the stage.
func (b *costBook) measure(q query, simplify, verify bool) *costs {
	c := &costs{allocs: map[string]float64{}, bytes: map[string]float64{}}
	var ms runtime.MemStats
	step := func(unit string, f func()) {
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		f()
		runtime.ReadMemStats(&ms)
		c.allocs[unit] = float64(ms.Mallocs - m0)
	}
	var (
		pq        *sqlparse.Query
		r         *sqlparse.Resolution
		e         *trc.Expr
		raw, tree *logictree.LT
		d         *core.Diagram
		err       error
	)
	if step("parse", func() { pq, err = sqlparse.Parse(q.sql) }); err != nil {
		return c
	}
	if step("resolve", func() { r, err = sqlparse.Resolve(pq, mustSchema(q.schema)) }); err != nil {
		return c
	}
	if step("convert", func() { e, err = trc.Convert(pq, r) }); err != nil {
		return c
	}
	step("logictree", func() {
		raw = logictree.FromTRC(e).Flatten()
		tree = raw
		if simplify {
			tree = raw.Simplified()
		}
	})
	if step("build", func() { d, err = core.Build(tree) }); err != nil {
		return c
	}
	c.nodes, c.tables, c.edges = float64(tree.NodeCount()), float64(len(d.Tables)), float64(len(d.Edges))
	var key string
	var keyed bool
	step("patternkey", func() {
		t0 := time.Now()
		key, keyed = core.PatternKeyBounded(d, queryvis.DefaultFingerprintPerms)
		c.keyUS = float64(time.Since(t0)) / 1e3
	})
	c.refused = !keyed
	if keyed {
		c.perms = b.permsOf(key, d)
	}
	if verify {
		step("verify", func() {
			dNE := d
			if simplify {
				if dNE, err = core.Build(raw); err != nil {
					return
				}
			}
			_, _, _ = inverse.RecoverContextStats(context.Background(), dNE, 0)
		})
	}
	for _, f := range formats {
		var out string
		step("render:"+f, func() {
			switch f {
			case "svg":
				out = svg.Render(d)
			case "text":
				out = dot.Text(d)
			default:
				out = dot.Render(d)
			}
		})
		c.bytes["render:"+f] = float64(len(out))
	}
	return c
}

// permsOf finds the serializations the canonical labeling of d visits:
// the smallest bound PatternKeyBounded accepts is exactly that count.
func (b *costBook) permsOf(key string, d *core.Diagram) float64 {
	if v, ok := b.perms[key]; ok {
		return v
	}
	lo, hi := 1, queryvis.DefaultFingerprintPerms
	for lo < hi {
		mid := (lo + hi) / 2
		if _, ok := core.PatternKeyBounded(d, mid); ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	b.perms[key] = float64(lo)
	return float64(lo)
}

// spanLayers turns sampled operation traces into the per-layer metrics.
// Units with a span take its self time; the pattern key of a cached
// fleet has no span, so when probes is set an operation that parsed is
// charged the replayed pattern-key call. Allocations and sizes come from
// the replay of each operation's input, for the units its trace ran.
func spanLayers(rep *report, ops []opTrace, book *costBook, probes bool) {
	rep.set("trace.sampled_ops", float64(len(ops)), "count")
	if len(ops) == 0 {
		rep.problem("no traced operation was captured")
		return
	}
	n := float64(len(ops))
	selfUS := map[string]float64{}
	allocs := map[string]float64{}
	sizes := map[string][]float64{}
	var verifyUS, keyUS, instMS, hopMS, waitMS []float64
	var verifyCalls, verified, searched, refused, perms float64
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	for _, op := range ops {
		c := book.get(op.in)
		self := selfTimes(op.Spans)
		var routerD, instD, dispD, workerD time.Duration
		var renders []time.Duration
		ran := map[string]bool{}
		for j, sp := range op.Spans {
			us := float64(self[j]) / 1e3
			switch sp.Name {
			case "router":
				routerD += sp.Duration
			case "instance":
				instD += sp.Duration
			case "dispatch":
				dispD += sp.Duration
			case "worker":
				workerD += sp.Duration
			case "render":
				renders = append(renders, self[j])
			case "verify":
				verifyUS = append(verifyUS, us)
				verifyCalls++
				if v, err := strconv.Atoi(sp.Attr("budget_spent")); err == nil {
					searched += float64(v)
				}
				if sp.Attr("status") == queryvis.VerifyStatusVerified {
					verified++
				}
				selfUS["verify"] += us
				ran["verify"] = true
			case "patternkey":
				keyUS = append(keyUS, us)
				selfUS["patternkey"] += us
				ran["patternkey"] = true
			case "parse", "resolve", "convert", "logictree", "build":
				selfUS[sp.Name] += us
				ran[sp.Name] = true
			}
		}
		// A cache-filling build renders every format, DOT first; any other
		// request renders its own.
		for k, d := range renders {
			unit := "render:" + op.format
			if len(renders) == len(formats) {
				unit = "render:" + formats[k]
			}
			selfUS[unit] += float64(d) / 1e3
			ran[unit] = true
		}
		if probes && ran["parse"] && !ran["patternkey"] {
			keyUS = append(keyUS, c.keyUS)
			selfUS["patternkey"] += c.keyUS
			ran["patternkey"] = true
		}
		if ran["patternkey"] {
			perms += c.perms
			if c.refused {
				refused++
			}
		}
		for unit := range ran {
			allocs[allocMetric[unit]] += c.allocs[unit]
		}
		if ran["logictree"] {
			sizes["logictree.nodes"] = append(sizes["logictree.nodes"], c.nodes)
		}
		if ran["build"] {
			sizes["core.tables"] = append(sizes["core.tables"], c.tables)
			sizes["core.edges"] = append(sizes["core.edges"], c.edges)
		}
		if ran["render:dot"] {
			sizes["dot.bytes"] = append(sizes["dot.bytes"], c.bytes["render:dot"])
		}
		if ran["render:svg"] {
			sizes["svg.bytes"] = append(sizes["svg.bytes"], c.bytes["render:svg"])
		}
		if instD > 0 {
			instMS = append(instMS, ms(instD))
		}
		if routerD > 0 {
			hopMS = append(hopMS, ms(routerD-instD))
		}
		if dispD > 0 && workerD > 0 {
			waitMS = append(waitMS, ms(dispD-workerD))
		}
	}
	for unit, us := range selfUS {
		rep.set(timeMetric[unit], us/n, "us")
	}
	for name, a := range allocs {
		rep.set(name, a/n, "count")
	}
	for name, xs := range sizes {
		unit := "count"
		if strings.HasSuffix(name, ".bytes") {
			unit = "bytes"
		}
		rep.set(name, mean(xs), unit)
	}
	if len(keyUS) > 0 {
		k := float64(len(keyUS))
		rep.set("core.patternkey_perms", perms/k, "count")
		rep.set("core.patternkey_refused_ratio", refused/k, "ratio")
		rep.set("core.patternkey_p99_us", percentile(keyUS, 0.99), "us")
	}
	if verifyCalls > 0 {
		rep.set("inverse.recover_p99_us", percentile(verifyUS, 0.99), "us")
		rep.set("inverse.search_nodes", searched/verifyCalls, "count")
		rep.set("inverse.verified_ratio", verified/verifyCalls, "ratio")
	}
	if len(instMS) > 0 {
		rep.set("server.elapsed_ms", mean(instMS), "ms")
		rep.set("server.elapsed_p99_ms", percentile(instMS, 0.99), "ms")
	}
	if len(hopMS) > 0 {
		rep.set("router.hop_ms", mean(hopMS), "ms")
	}
	if len(waitMS) > 0 {
		rep.set("workerpool.dispatch_wait_ms", mean(waitMS), "ms")
	}
}

// rankLayers orders the layers by mean self time and by allocations per
// operation, largest first.
func rankLayers(m map[string]metric) map[string][]string {
	rank := func(match func(string) bool) []string {
		var keys []string
		for k, v := range m {
			if match(k) && v.Value > 0 {
				keys = append(keys, k)
			}
		}
		sort.Slice(keys, func(i, j int) bool { return m[keys[i]].Value > m[keys[j]].Value })
		out := make([]string, len(keys))
		for i, k := range keys {
			out[i] = fmt.Sprintf("%s=%.4g", k, m[k].Value)
		}
		return out
	}
	return map[string][]string{
		"self_us_per_op": rank(func(k string) bool {
			return strings.HasSuffix(k, "_us") && !strings.Contains(k, "p99")
		}),
		"allocs_per_op": rank(func(k string) bool { return strings.HasSuffix(k, "allocs") }),
	}
}

// writeSpans writes the sampled traces, kept in memory during the run,
// to .bench_build/spans/<workload>-seed<seed>.json in the checkout.
func writeSpans(c config, ops []opTrace) {
	dir := filepath.Join(c.root, ".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		return
	}
	b, err := json.Marshal(ops)
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", c.workload, c.seed)), b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	}
}
