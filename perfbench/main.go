// Command perfbench is the repository's benchmark. It drives queryvisd
// and the library through three seeded workloads, checks the bytes of
// every output against references, and prints one JSON object on the
// last line of standard output:
//
//	bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 40 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics; with
// --trace 1 a separate traced run reports the per-layer metrics, named by
// module. Two lines precede it: the host shape ("host {...}") and the
// full report ("report {...}"), which adds error_rate, sample counts,
// generator lateness and, for traced runs, the layer rankings. NOTES.md
// describes the workloads, the metrics and the findings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
)

// nproc sizes the connection pools and goroutine counts of the load.
var nproc = runtime.NumCPU()

// config is one invocation's settings.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	traced    bool
	root      string // checkout root: golden files and sources
	queryvisd string // server binary for the served workloads
	self      string // this binary, re-executed by the catalog set-up probe
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything one run measured.
type report struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Traced    bool   `json:"traced"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	Wrong     int64  `json:"wrong_bytes"`
	// Skipped counts responses that matched the reference of an open
	// verification breaker.
	Skipped  int64             `json:"breaker_skipped"`
	Problems []string          `json:"problems,omitempty"`
	Metrics  map[string]metric `json:"metrics"`
	Notes    map[string]any    `json:"notes,omitempty"`
}

func (r *report) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

func (r *report) note(key string, v any) { r.Notes[key] = v }

// count adds a phase's operations to the run's totals.
func (r *report) count(t tally) {
	r.Attempted += int64(t.n)
	r.Failed += t.failed
	r.Wrong += t.wrong
	r.Skipped += t.skipped
}

// problem records a reason the run's outputs cannot be trusted.
func (r *report) problem(format string, args ...any) {
	if len(r.Problems) < 32 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// endToEnd lists the metrics a --trace 0 run reports, with their units.
// Two more are in the report line and among the per-layer metrics:
// error_rate, which is 0 on a correct run while a bounded metric must
// never be 0, and latency_p99_ms, whose run-to-run spread on a shared
// 2-core host reaches the largest bound a metric may have (NOTES.md).
var endToEnd = []struct{ name, unit string }{
	{"latency_p50_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

var workloads = map[string]func(config, *report) error{
	"serve-cold":   runServeCold,
	"fleet-hot":    runFleetHot,
	"catalog-bulk": runCatalogBulk,
}

func main() { os.Exit(run()) }

func run() int {
	var c config
	var trace int
	flag.StringVar(&c.workload, "workload", "", "serve-cold, fleet-hot or catalog-bulk")
	flag.Int64Var(&c.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&c.seconds, "seconds", 15, "measured seconds of one run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	flag.StringVar(&c.root, "root", ".", "repository checkout (golden files, sources)")
	flag.StringVar(&c.queryvisd, "queryvisd", "", "queryvisd binary for the served workloads")
	finding := flag.String("finding", "", `"cache-defect" reproduces the pattern-cache finding of NOTES.md and exits`)
	setupProbe := flag.Bool("setup-probe", false, "internal: one catalog-bulk set-up, timed by the parent")
	flag.Parse()

	if *setupProbe {
		return catalogSetupProbe()
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	c.self = self
	if *finding != "" {
		if *finding != "cache-defect" {
			fmt.Fprintf(os.Stderr, "perfbench: unknown finding %q\n", *finding)
			return 2
		}
		return cacheDefect(c)
	}
	w, ok := workloads[c.workload]
	if !ok || c.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload serve-cold|fleet-hot|catalog-bulk, --seconds > 0 and --trace 0|1")
		return 2
	}
	c.traced = trace == 1

	rep := &report{Workload: c.workload, Seed: c.seed, Traced: c.traced,
		Metrics: map[string]metric{}, Notes: map[string]any{}}
	if err := w(c, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if rep.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was attempted")
		return 1
	}
	rep.set("error_rate", float64(rep.Failed)/float64(rep.Attempted), "ratio")

	res := result{
		Correct:   len(rep.Problems) == 0 && rep.Wrong == 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics:   map[string]metric{},
	}
	if c.traced {
		// A layer the workload does not exercise reads 0.
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{rep.Metrics[m.name].Value, m.unit}
		}
		rep.note("ranking", rankLayers(rep.Metrics))
	} else {
		for _, m := range endToEnd {
			v, ok := rep.Metrics[m.name]
			if !ok {
				fmt.Fprintln(os.Stderr, "perfbench: metric not measured:", m.name)
				return 1
			}
			res.Metrics[m.name] = v
		}
	}
	printLine("host", hostShape(c))
	printLine("report", rep)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func printLine(tag string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return
	}
	fmt.Printf("%s %s\n", tag, b)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = sorted(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = sorted(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// bestQuartile is the better quartile of one metric's per-window values:
// the first when lower is better, the third otherwise. It is a note of
// the report line only, to tell host interference, which slows some
// windows, from the program's own cost; the bounded metrics are
// whole-phase values, so a cost the program adds to some windows only
// (GC bursts, respawns, cache expiry) counts in full.
func bestQuartile(xs []float64, lowerIsBetter bool) float64 {
	if lowerIsBetter {
		return percentile(xs, 0.25)
	}
	return percentile(xs, 0.75)
}

// windowNotes records a timed run's per-window values and their better
// quartiles.
func windowNotes(rep *report, open, sat tally, cpus []float64) {
	rep.note("windows", map[string][]float64{
		"latency_p50_ms": open.p50s, "latency_p99_ms": open.p99s,
		"cpu_ms_per_op": cpus, "throughput_rps": sat.bins,
	})
	rep.note("better_quartile", map[string]float64{
		"latency_p50_ms": bestQuartile(open.p50s, true),
		"latency_p99_ms": bestQuartile(open.p99s, true),
		"cpu_ms_per_op":  bestQuartile(cpus, true),
		"throughput_rps": bestQuartile(sat.bins, false),
	})
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
