package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	queryvis "repro"
	"repro/internal/corpus"
	"repro/internal/schema"
	"repro/internal/telemetry"
)

const (
	// catalogSpellings is K, the spellings drawn per paper query.
	catalogSpellings = 4
	// catalogSetups is how many set-up probes a run times.
	catalogSetups = 15
)

// catalogItem is one corpus entry and its reference outputs.
type catalogItem struct {
	q     query
	sch   *schema.Schema
	key   string
	keyed bool
	dot   string
}

// catalogRef computes an item's reference the way internal/catalog
// indexes a query: the pipeline with verify off and simplify on, the
// bounded pattern key, and the DOT rendering.
func catalogRef(q query) (catalogItem, error) {
	it := catalogItem{q: q, sch: mustSchema(q.schema)}
	ctx := context.Background()
	res, err := queryvis.FromSQLContext(ctx, q.sql, it.sch, queryvis.Options{Simplify: true})
	if err != nil {
		return it, err
	}
	it.key, it.keyed = queryvis.PatternFingerprintBounded(res.Diagram, queryvis.DefaultFingerprintPerms)
	it.dot, err = res.DOTContext(ctx, queryvis.DOTOptions{})
	return it, err
}

// catalogOp runs one item and reports whether its outputs match the
// reference. With a tracer, the library records its stage spans and the
// pattern-key call gets a span of its own.
func catalogOp(it *catalogItem, tr *telemetry.Tracer) bool {
	ctx := telemetry.WithTracer(context.Background(), tr)
	res, err := queryvis.FromSQLContext(ctx, it.q.sql, it.sch, queryvis.Options{Simplify: true, Tracer: tr})
	if err != nil {
		return false
	}
	sp := tr.Start("patternkey")
	key, keyed := queryvis.PatternFingerprintBounded(res.Diagram, queryvis.DefaultFingerprintPerms)
	sp.End()
	out, err := res.DOTContext(ctx, queryvis.DOTOptions{})
	return err == nil && key == it.key && keyed == it.keyed && out == it.dot
}

// catalogCorpus builds catalog-bulk's corpus: every paper query and its
// respellings that the library indexes and renders exactly like the
// original, plus as many generated queries, in a seeded order.
func catalogCorpus(seed int64) ([]catalogItem, error) {
	paper := paperCorpus()
	rng := rand.New(rand.NewSource(seed))
	seeds := make([]int64, len(paper))
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	spelled := make([][]catalogItem, len(paper))
	parallel(len(paper), func(i int) {
		o, err := catalogRef(paper[i])
		if err != nil {
			return
		}
		items := []catalogItem{o}
		respellings(seeds[i], paper[i].sql, catalogSpellings, func(s string) bool {
			r, err := catalogRef(query{paper[i].name, s, paper[i].schema})
			ok := err == nil && r.key == o.key && r.keyed == o.keyed && r.dot == o.dot
			if ok {
				items = append(items, r)
			}
			return ok
		})
		for k := range items {
			items[k].q.name = fmt.Sprintf("%s#%d", paper[i].name, k)
		}
		spelled[i] = items
	})
	var items []catalogItem
	for _, s := range spelled {
		items = append(items, s...)
	}
	gen := generated(seed, len(items))
	grefs := make([]catalogItem, len(gen))
	gerrs := make([]error, len(gen))
	parallel(len(gen), func(i int) { grefs[i], gerrs[i] = catalogRef(gen[i]) })
	for i, r := range grefs {
		if gerrs[i] == nil {
			items = append(items, r)
		}
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("empty catalog corpus")
	}
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	return items, nil
}

// catalogLoop runs nproc goroutines in a closed loop over the corpus for
// dur. With traced set every operation runs under a tracer, and one in
// traceEvery keeps its spans.
func catalogLoop(items []catalogItem, dur time.Duration, traced bool) ([]sample, []opTrace) {
	var mu sync.Mutex
	var ops []opTrace
	ss := closedLoop(dur, nproc, func(i int) sample {
		it := &items[i%len(items)]
		if !traced {
			ok := catalogOp(it, nil)
			return sample{ok: ok, wrong: !ok}
		}
		tr := telemetry.NewTracer()
		root := tr.StartRoot("item")
		ok := catalogOp(it, tr)
		root.End()
		if i%traceEvery == 0 {
			mu.Lock()
			ops = append(ops, opTrace{ID: fmt.Sprintf("k%d", i), in: i % len(items), format: "dot", Spans: tr.Spans()})
			mu.Unlock()
		}
		return sample{ok: ok, wrong: !ok}
	})
	return ss, ops
}

// cpuSelfMS is this process's user plus system CPU.
func cpuSelfMS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}

// selfUsage is the meter reading of catalog-bulk, whose system under
// test is this process.
func selfUsage() (cpuMS, rssMB float64) {
	return cpuSelfMS(), float64(statusKB(os.Getpid(), "VmRSS:")) / 1024
}

// runCatalogBulk: the library only, nproc goroutines in a closed loop
// over a seeded corpus, each item indexed as internal/catalog does.
func runCatalogBulk(c config, rep *report) error {
	checkPaper(c.root, rep)
	items, err := catalogCorpus(c.seed)
	if err != nil {
		return err
	}
	rep.note("corpus_items", len(items))

	var setups []float64
	for k := 0; k < catalogSetups; k++ {
		s, err := timeSetupProbe(c.self)
		if err != nil {
			return err
		}
		setups = append(setups, s)
	}
	rep.note("setup_runs_s", setups)
	rep.set("setup_s", median(setups), "s")

	warm, first, second := phases(c)
	w, _ := catalogLoop(items, warm, false)
	rep.count(summarize(w))
	runtime.GC()
	if c.traced {
		return tracedCatalog(c, rep, items, first, second)
	}

	m := startMeter(selfUsage)
	ss, _ := catalogLoop(items, first+second, false)
	us := m.finish()
	cpus, rsss := perWindow(us, ss)
	t := summarize(ss)
	rep.count(t)
	rep.set("latency_p50_ms", t.p50, "ms")
	rep.set("latency_p99_ms", t.p99, "ms")
	rep.set("throughput_rps", t.throughput, "1/s")
	rep.set("cpu_ms_per_op", phaseCPU(us, ss), "ms")
	rep.set("peak_rss_mb", median(rsss), "MB")
	rep.note("latency_samples", t.n)
	windowNotes(rep, t, t, cpus)
	return nil
}

// tracedCatalog runs the closed loop untraced and traced, in an order
// that alternates with the seed so host drift does not always favour
// one: the untraced phase gives the Go runtime's allocation counts,
// exact here because the library runs in this process, and the traced
// one the stage spans.
func tracedCatalog(c config, rep *report, items []catalogItem, first, second time.Duration) error {
	var ms0, ms1 runtime.MemStats
	var a, b []sample
	var ops []opTrace
	var cpuA, cpuB float64
	untraced := func() {
		runtime.ReadMemStats(&ms0)
		cpu0 := cpuSelfMS()
		a, _ = catalogLoop(items, first, false)
		cpuA = cpuSelfMS() - cpu0
		runtime.ReadMemStats(&ms1)
	}
	traced := func() {
		cpu0 := cpuSelfMS()
		b, ops = catalogLoop(items, second, true)
		cpuB = cpuSelfMS() - cpu0
	}
	if tracedFirst(c) {
		traced()
		untraced()
	} else {
		untraced()
		traced()
	}
	rep.note("traced_phase_first", tracedFirst(c))

	ta, tb := summarize(a), summarize(b)
	rep.count(ta)
	rep.count(tb)
	n := float64(max(ta.n, 1))
	rep.set("runtime.allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/n, "count")
	rep.set("runtime.bytes_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/n, "bytes")
	rep.set("runtime.gc_cpu_fraction", ms1.GCCPUFraction, "ratio")

	cpuA /= float64(max(ta.ok, 1))
	cpuB /= float64(max(tb.ok, 1))
	rep.set("latency_p99_ms", ta.p99, "ms")
	rep.set("trace.overhead_p50_ms", tb.p50-ta.p50, "ms")
	rep.set("trace.overhead_p99_ms", tb.p99-ta.p99, "ms")
	rep.set("trace.overhead_cpu_ms_per_op", cpuB-cpuA, "ms")
	rep.note("untraced", map[string]float64{"p50_ms": ta.p50, "p99_ms": ta.p99, "cpu_ms_per_op": cpuA})
	rep.note("traced", map[string]float64{"p50_ms": tb.p50, "p99_ms": tb.p99, "cpu_ms_per_op": cpuB})

	book := newCostBook(func(in int) (query, bool, bool) { return items[in].q, true, false })
	spanLayers(rep, ops, book, false)
	writeSpans(c, ops)
	return nil
}

// timeSetupProbe re-executes this binary as a set-up probe and returns
// the seconds from exec until it reports ready.
func timeSetupProbe(self string) (float64, error) {
	cmd := exec.Command(self, "-setup-probe")
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(out).ReadString('\n')
	d := time.Since(t0)
	if werr := cmd.Wait(); werr != nil || rerr != nil || strings.TrimSpace(line) != "ready" {
		return 0, fmt.Errorf("set-up probe failed: %v %v %q", werr, rerr, line)
	}
	return d.Seconds(), nil
}

// catalogSetupProbe is catalog-bulk's set-up: load the schemas and make
// the first call, then report ready.
func catalogSetupProbe() int {
	for _, n := range schema.BuiltinNames() {
		mustSchema(n)
	}
	it, err := catalogRef(query{"fig1_unique_set", corpus.Fig1UniqueSet, "beers"})
	if err != nil || it.dot == "" {
		fmt.Fprintln(os.Stderr, "perfbench: set-up probe:", err)
		return 1
	}
	fmt.Println("ready")
	return 0
}

// checkPaper compares the library's DOT and SVG for the paper figures
// with the committed goldens of internal/dot and internal/svg, and the
// App. G pattern keys with the paper's grouping: equal within a pattern
// column across the three schemas, distinct across columns.
func checkPaper(root string, rep *report) {
	for _, p := range paperCorpus() {
		if !strings.HasPrefix(p.name, "fig") {
			continue
		}
		for _, simplify := range []bool{false, true} {
			name := p.name
			if simplify {
				name += "_simplified"
			}
			res, err := queryvis.FromSQL(p.sql, mustSchema(p.schema), queryvis.Options{Simplify: simplify})
			if err != nil {
				rep.problem("%s: %v", name, err)
				continue
			}
			for dir, got := range map[string]string{"dot": res.DOT(), "svg": res.SVG()} {
				want, err := os.ReadFile(filepath.Join(root, "internal", dir, "testdata", name+".golden"))
				if err != nil || string(want) != got {
					rep.problem("%s %s differs from its golden file (%v)", name, dir, err)
				}
			}
		}
	}
	keyOf := map[corpus.GPattern]string{}
	patternOf := map[string]corpus.GPattern{}
	for _, g := range corpus.AppendixG() {
		res, err := queryvis.FromSQL(g.SQL, g.Schema, queryvis.Options{})
		if err != nil {
			rep.problem("App. G %s/%s: %v", g.Schema.Name, g.Pattern, err)
			continue
		}
		k := queryvis.PatternFingerprint(res.Diagram)
		if prev, ok := keyOf[g.Pattern]; ok && prev != k {
			rep.problem("App. G %s: %s has another pattern key than its column", g.Pattern, g.Schema.Name)
		}
		if p, ok := patternOf[k]; ok && p != g.Pattern {
			rep.problem("App. G: columns %s and %s share a pattern key", p, g.Pattern)
		}
		keyOf[g.Pattern], patternOf[k] = k, g.Pattern
	}
}

// cacheDefect reproduces the pattern-cache finding of NOTES.md: it feeds
// serve-cold's inputs through FromSQLCached with one default cache and
// counts the responses whose bytes differ from the uncached library
// output, then serves the App. G Student "only" query after the Sailor
// one through a fresh cache.
func cacheDefect(c config) int {
	inputs, _ := serveColdInputs(c.seed, 2000)
	lim := queryvis.DefaultLimits()
	opts := func(simplify bool, cache *queryvis.DiagramCache) queryvis.Options {
		return queryvis.Options{Simplify: simplify, Limits: &lim, Verify: queryvis.VerifyDegrade, Cache: cache}
	}
	cache := queryvis.NewDiagramCache(queryvis.DiagramCacheConfig{})
	wrong, hits := 0, 0
	for _, in := range inputs {
		e, res, outcome, err := queryvis.FromSQLCached(in.q.sql, mustSchema(in.q.schema), opts(in.simplify, cache))
		if outcome.Hit() {
			hits++
		}
		var got [sha256.Size]byte
		switch {
		case err != nil:
		case e != nil:
			got = sha256.Sum256([]byte(map[string]string{"dot": e.DOT, "svg": e.SVG, "text": e.Text}[in.format]))
		default:
			x, _ := servedExpect(res, in.format)
			got = x.digest
		}
		if err != nil || got != in.want.digest {
			wrong++
		}
	}
	fmt.Printf("serve-cold inputs, seed %d: %d of %d distinct queries came back with wrong bytes through FromSQLCached (%.1f%%); %d were cache hits\n",
		c.seed, wrong, len(inputs), 100*float64(wrong)/float64(max(len(inputs), 1)), hits)

	cache = queryvis.NewDiagramCache(queryvis.DiagramCacheConfig{})
	var sailor, student corpus.GQuery
	for _, g := range corpus.AppendixG() {
		if g.Pattern == corpus.GOnly && g.Schema.Name == "sailors" {
			sailor = g
		}
		if g.Pattern == corpus.GOnly && g.Schema.Name == "students" {
			student = g
		}
	}
	if _, _, _, err := queryvis.FromSQLCached(sailor.SQL, sailor.Schema, opts(false, cache)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	e, _, outcome, err := queryvis.FromSQLCached(student.SQL, student.Schema, opts(false, cache))
	if err != nil || e == nil {
		fmt.Fprintln(os.Stderr, "perfbench: App. G Student query was not served from the cache:", err)
		return 1
	}
	fmt.Printf("App. G \"only\": the Student query after the Sailor one: outcome %s, DOT names Sailor: %t, names Student: %t\n",
		outcome, strings.Contains(e.DOT, "Sailor"), strings.Contains(e.DOT, "Student"))
	return 0
}

// hostShape stamps a result with the machine and the code it measured.
func hostShape(c config) map[string]any {
	return map[string]any{
		"workload":      c.workload,
		"seed":          c.seed,
		"seconds":       c.seconds,
		"nproc":         nproc,
		"gomaxprocs":    map[string]int{"perfbench": runtime.GOMAXPROCS(0), "queryvisd": nproc},
		"cpu_model":     cpuModel(),
		"go_version":    runtime.Version(),
		"commit":        gitCommit(c.root),
		"source_sha256": sourceDigest(c.root),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD when the checkout is a git work tree.
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the checkout's Go sources, which identifies the
// measured code where no git metadata is present.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
