// Command queryvisd serves the QueryVis pipeline over HTTP: POST a SQL
// query and a built-in schema name to /v1/diagram and get back the
// rendered diagram (DOT, SVG, or plain text) plus its natural-language
// interpretation; /v1/interpret returns the reading without rendering;
// GET /v1/healthz reports liveness and load.
//
// Usage:
//
//	queryvisd [-addr :8080] [-timeout 5s] [-max-concurrent 64] \
//	          [-max-body 1048576] [-shutdown-grace 10s] \
//	          [-max-query-bytes N] [-max-nesting-depth N] \
//	          [-max-predicates N] [-max-diagram-nodes N] \
//	          [-max-diagram-edges N] [-max-output-bytes N] [-unlimited] \
//	          [-verify off|degrade|strict] [-verify-budget N] \
//	          [-quarantine-dir DIR] [-quarantine-max-bytes N] \
//	          [-breaker-threshold N] [-breaker-cooldown 30s] \
//	          [-cache-entries N] [-cache-bytes N] [-max-batch-items N] \
//	          [-isolation none|process] [-workers N] \
//	          [-worker-max-requests N] [-worker-max-rss BYTES] \
//	          [-route URL,URL,...] [-route-replicas N] \
//	          [-route-health-interval 250ms] [-route-admin-token TOKEN] \
//	          [-fleet SPEC.json | -fleet-srv _svc._proto.name] \
//	          [-fleet-spawn] [-fleet-interval 500ms] \
//	          [-fleet-min-healthy N] [-fleet-down-after N] \
//	          [-fleet-up-after N] \
//	          [-metrics] [-pprof] [-slow-query-ms N]
//
// With -isolation=process the pipeline runs in a supervised pool of
// child worker processes (this binary re-executed with -worker): a query
// that exhausts the stack or the heap kills a sacrificial worker — which
// is SIGKILLed, respawned with backoff, and its request retried once —
// never the daemon. See internal/workerpool and the README's "Process
// isolation" section. The default, -isolation=none, keeps the historical
// in-process pipeline. Either way the instance keeps one diagram cache
// (-cache-entries) in the process that owns the listener: under process
// isolation a hit is answered there and only misses reach a worker,
// each as one request frame and one response frame on an idle worker.
//
// With -route the binary is a scale-out router instead of a server: it
// shards /v1/diagram bodies across the listed queryvisd instances on a
// consistent-hash ring keyed by body hash, health-checks each
// instance's /v1/healthz, circuit-breaks the failing, retries elsewhere
// on the ring, and sheds an honest 503 + Retry-After only when no
// instance is eligible. Its
// own /v1/healthz reports per-instance ring state; /v1/metrics the
// router registry. With -route-admin-token the /v1/ring admin surface
// joins, drains, and ejects instances at runtime without a restart.
// The router's hot tier is its response cache, always on: identical
// concurrent requests collapse into one upstream call, and a verified
// response answers repeats of its body from the router's memory until
// it is evicted or the instances' answer identity (their
// X-Queryvis-Build header: binary, limits and verify mode) changes, so
// a popular query reaches a backend about once per deploy. While the
// instances disagree on it, as during a rolling deploy, the cache is
// bypassed. See internal/router and the README's "Scale-out" section.
//
// With -fleet (a JSON spec file) or -fleet-srv (a DNS SRV name) the
// router additionally runs the self-healing fleet supervisor: a
// reconciliation loop that probes every desired member, joins newly
// healthy instances, drain-then-ejects persistently unhealthy ones, and
// rejoins the recovered — every removal gated by a disruption budget
// (-fleet-min-healthy floor, one drain at a time, never the last
// member). -fleet-spawn makes the supervisor also own the member
// processes (this binary re-executed per member, respawned with
// backoff), so `queryvisd -route URL -fleet fleet.json -fleet-spawn`
// is a one-command self-healing deployment. SIGHUP triggers an
// immediate spec re-read and reconcile; GET /v1/fleet reports every
// action the supervisor took and why. See internal/fleet and the
// README's "Self-healing fleet" section.
//
// Observability: GET /v1/metrics serves a Prometheus text exposition
// (disable with -metrics=false), every response carries X-Request-ID
// and X-Queryvis-Trace-Id headers, and requests slower than
// -slow-query-ms land in the slow-query log with their string literals
// scrubbed and their trace tree attached. Every request is traced
// end-to-end across the fleet — router hop, instance handler, pool
// dispatch, and worker-side pipeline stages form one trace tree —
// retrievable from GET /v1/traces (filter by request_id, trace_id,
// min_ms); in router mode GET /v1/fleet additionally
// aggregates every ring member's healthz into one scrape. -pprof
// mounts net/http/pprof under /debug/pprof/ and a goroutine dump at
// /debug/goroutines in both server and router modes — off by default;
// never expose those publicly.
//
// By default every response is self-verified: the served diagram is
// mapped back to a logic tree (Proposition 5.1) and required to match
// the query's; failures degrade down a ladder of weaker artifacts with
// an honest verify_status instead of erroring. -quarantine-dir persists
// scrubbed failing inputs for replay via "oracle -replay".
//
// Every request runs under a deadline and the configured resource
// limits; load beyond -max-concurrent is shed with 429 + Retry-After
// rather than queued. On SIGINT/SIGTERM the server stops accepting
// connections and drains in-flight requests for -shutdown-grace before
// exiting. Exit status is 2 on usage or bind errors, 0 on clean
// shutdown.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"time"

	queryvis "repro"
	"repro/internal/fleet"
	"repro/internal/leak"
	"repro/internal/quarantine"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/workerpool"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("queryvisd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	def := queryvis.DefaultLimits()
	var (
		addr    = fs.String("addr", ":8080", "listen address")
		timeout = fs.Duration("timeout", 5*time.Second, "per-request pipeline deadline")
		maxConc = fs.Int("max-concurrent", 64, "max simultaneous requests before shedding 429s")
		maxBody = fs.Int64("max-body", 1<<20, "max request body bytes")
		grace   = fs.Duration("shutdown-grace", 10*time.Second, "drain window for in-flight requests on shutdown")

		maxQueryBytes   = fs.Int("max-query-bytes", def.MaxQueryBytes, "max SQL text bytes (0 = unbounded)")
		maxNestingDepth = fs.Int("max-nesting-depth", def.MaxNestingDepth, "max subquery nesting depth (0 = unbounded)")
		maxPredicates   = fs.Int("max-predicates", def.MaxPredicates, "max WHERE predicates across all blocks (0 = unbounded)")
		maxDiagramNodes = fs.Int("max-diagram-nodes", def.MaxDiagramNodes, "max diagram table nodes (0 = unbounded)")
		maxDiagramEdges = fs.Int("max-diagram-edges", def.MaxDiagramEdges, "max diagram edges (0 = unbounded)")
		maxOutputBytes  = fs.Int("max-output-bytes", def.MaxOutputBytes, "max rendered output bytes (0 = unbounded)")
		unlimited       = fs.Bool("unlimited", false, "disable all per-query resource limits")

		verify           = fs.String("verify", "degrade", "default verification mode: off, degrade, or strict (requests can override via the \"verify\" field)")
		verifyBudget     = fs.Int("verify-budget", 0, "inverse-search node budget per verification (0 = package default, negative = unbounded)")
		quarantineDir    = fs.String("quarantine-dir", "", "directory for the failure corpus; empty disables quarantining")
		quarantineBytes  = fs.Int64("quarantine-max-bytes", quarantine.DefaultMaxBytes, "size bound on the quarantine directory (oldest entries evicted)")
		breakerThreshold = fs.Int("breaker-threshold", 5, "consecutive verification cost blowouts that trip the circuit breaker")
		breakerCooldown  = fs.Duration("breaker-cooldown", 30*time.Second, "how long the tripped breaker stays open before probing again")

		isolation     = fs.String("isolation", "none", "pipeline isolation: none (in-process) or process (supervised worker pool)")
		workers       = fs.Int("workers", 4, "worker processes in the pool (with -isolation=process)")
		workerMaxReqs = fs.Int("worker-max-requests", 512, "recycle a worker after this many requests (with -isolation=process)")
		workerMaxRSS  = fs.Int64("worker-max-rss", 512<<20, "SIGKILL a worker whose resident set exceeds this many bytes (with -isolation=process; no-op off Linux)")
		workerMode    = fs.Bool("worker", false, "run as a pool worker speaking the frame protocol on stdin/stdout (internal; spawned by -isolation=process)")
		allowFaults   = fs.Bool("allow-fault-injection", false, "honor the X-Fault-Seed and X-Worker-Fault chaos headers (tests only; never in production)")

		route           = fs.String("route", "", "comma-separated queryvisd base URLs; run as a consistent-hash router over them instead of a server")
		routeReplicas   = fs.Int("route-replicas", 64, "virtual nodes per instance on the routing ring (with -route)")
		routeHealthInt  = fs.Duration("route-health-interval", 250*time.Millisecond, "active /v1/healthz probe interval per instance (with -route)")
		routeAdminToken = fs.String("route-admin-token", "", "bearer token for the /v1/ring live-membership admin surface; empty disables it (with -route)")

		fleetSpec       = fs.String("fleet", "", "fleet spec JSON file; run the self-healing supervisor over its desired members (router mode)")
		fleetSRV        = fs.String("fleet-srv", "", "DNS SRV name (_service._proto.name) to discover desired members from instead of a spec file (router mode)")
		fleetSpawn      = fs.Bool("fleet-spawn", false, "supervise one local queryvisd process per desired member, respawning exits with backoff (with -fleet)")
		fleetInterval   = fs.Duration("fleet-interval", 500*time.Millisecond, "fleet reconcile cadence (with -fleet/-fleet-srv)")
		fleetMinHealthy = fs.Int("fleet-min-healthy", 1, "disruption-budget floor: refuse removals that would leave fewer healthy serving members (with -fleet)")
		fleetDownAfter  = fs.Int("fleet-down-after", 3, "consecutive bad observations of a member before acting against it (with -fleet)")
		fleetUpAfter    = fs.Int("fleet-up-after", 2, "consecutive good observations before (re)joining a member (with -fleet)")

		cacheEntries  = fs.Int("cache-entries", 4096, "diagram cache capacity in entries, keyed on schema, simplify flag and SQL text; one cache per instance, which serves hits itself under either -isolation (0 disables caching)")
		cacheBytes    = fs.Int64("cache-bytes", 64<<20, "diagram cache payload bound in bytes")
		maxBatchItems = fs.Int("max-batch-items", 64, "max items per /v1/diagrams:batch request")

		metrics     = fs.Bool("metrics", true, "serve Prometheus metrics on /v1/metrics and instrument requests")
		enablePprof = fs.Bool("pprof", false, "mount /debug/pprof/ and /debug/goroutines (never expose publicly)")
		slowQueryMS = fs.Int("slow-query-ms", 500, "log requests at least this slow with scrubbed SQL (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logger := slog.New(slog.NewTextHandler(stderr, nil))
	if *isolation != "none" && *isolation != "process" {
		logger.Error("bad -isolation flag", "value", *isolation, "want", "none or process")
		return 2
	}
	verifyMode, err := queryvis.ParseVerifyMode(*verify)
	if err != nil {
		logger.Error("bad -verify flag", "err", err)
		return 2
	}
	var quarStore *quarantine.Store
	if *quarantineDir != "" {
		var err error
		if quarStore, err = quarantine.Open(*quarantineDir, *quarantineBytes); err != nil {
			logger.Error("opening quarantine", "err", err)
			return 2
		}
	}
	var fleetSrc fleet.Source
	switch {
	case *fleetSpec != "" && *fleetSRV != "":
		logger.Error("-fleet and -fleet-srv are mutually exclusive; pick one desired-state source")
		return 2
	case *fleetSpec != "":
		fleetSrc = &fleet.SpecSource{Path: *fleetSpec}
	case *fleetSRV != "":
		src, err := parseSRVName(*fleetSRV)
		if err != nil {
			logger.Error("bad -fleet-srv flag", "err", err)
			return 2
		}
		fleetSrc = src
	}
	if *fleetSpawn && fleetSrc == nil {
		logger.Error("-fleet-spawn requires -fleet or -fleet-srv")
		return 2
	}

	cfg := server.Config{
		Limits: queryvis.Limits{
			MaxQueryBytes:   *maxQueryBytes,
			MaxNestingDepth: *maxNestingDepth,
			MaxPredicates:   *maxPredicates,
			MaxDiagramNodes: *maxDiagramNodes,
			MaxDiagramEdges: *maxDiagramEdges,
			MaxOutputBytes:  *maxOutputBytes,
		},
		Unlimited:           *unlimited,
		RequestTimeout:      *timeout,
		MaxConcurrent:       *maxConc,
		MaxBodyBytes:        *maxBody,
		AllowFaultInjection: *allowFaults,
		DefaultVerify:       verifyMode,
		VerifyBudget:        *verifyBudget,
		Quarantine:          quarStore,
		BreakerThreshold:    *breakerThreshold,
		BreakerCooldown:     *breakerCooldown,
		CacheEntries:        *cacheEntries,
		CacheMaxBytes:       *cacheBytes,
		MaxBatchItems:       *maxBatchItems,
		DisableTelemetry:    !*metrics,
		Logger:              logger,
		SlowQueryThreshold:  time.Duration(*slowQueryMS) * time.Millisecond,
	}

	if *workerMode {
		// Child mode: no listener, no telemetry surface of its own and no
		// cache (the parent owns the instance's one cache) — just the frame
		// protocol on stdin/stdout in front of the same hardened handler
		// stack, one request at a time, expendable by design.
		cfg.DisableTelemetry = true
		cfg.CacheEntries = 0
		cfg.Logger = logger
		if err := workerpool.RunWorker(os.Stdin, stdout, server.New(cfg), workerpool.RunOptions{
			AllowFaultHeaders: *allowFaults,
		}); err != nil {
			logger.Error("worker loop failed", "err", err)
			return 1
		}
		return 0
	}

	if *route != "" || fleetSrc != nil {
		// Router mode: no pipeline of its own — just the ring. The server
		// flags above are ignored; instances bring their own limits. A
		// fleet source alone also selects router mode, with the initial
		// ring seeded from the desired set.
		backends := []string{}
		if *route != "" {
			backends = strings.Split(*route, ",")
		}
		if len(backends) == 0 && fleetSrc != nil {
			ms, err := fleetSrc.Desired(context.Background())
			if err != nil {
				logger.Error("reading initial fleet desired state", "err", err)
				return 2
			}
			for _, m := range ms {
				backends = append(backends, m.URL)
			}
		}
		reg := telemetry.NewRegistry()
		rt, err := router.New(router.Config{
			Backends:       backends,
			Replicas:       *routeReplicas,
			HealthInterval: *routeHealthInt,
			MaxBodyBytes:   *maxBody,
			AdminToken:     *routeAdminToken,
			ResponseCache:  true,
			Metrics:        reg,
			Logger:         logger,
		})
		if err != nil {
			logger.Error("starting router", "err", err)
			return 2
		}
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			rt.Close()
			logger.Error("listen failed", "addr", *addr, "err", err)
			return 2
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()

		// The fleet supervisor shares the router's registry so one
		// /v1/metrics scrape covers the queryvis_fleet_* families too.
		var supDone chan struct{}
		var supStop context.CancelFunc
		if fleetSrc != nil {
			fcfg := fleet.Config{
				Ring:       rt,
				Source:     fleetSrc,
				Interval:   *fleetInterval,
				DownAfter:  *fleetDownAfter,
				UpAfter:    *fleetUpAfter,
				MinHealthy: *fleetMinHealthy,
				Metrics:    reg,
				Logger:     logger,
			}
			if *fleetSpawn {
				fcfg.Spawn = memberSpawner(fs, *allowFaults)
			}
			sup, err := fleet.New(fcfg)
			if err != nil {
				rt.Close()
				_ = ln.Close()
				logger.Error("starting fleet supervisor", "err", err)
				return 2
			}
			rt.SetFleetStatus(func() any { return sup.Status() })
			supCtx, cancel := context.WithCancel(context.Background())
			supStop = cancel
			supDone = make(chan struct{})
			go func() {
				defer close(supDone)
				sup.Run(supCtx)
			}()
			// SIGHUP: re-read the spec and reconcile now, not a tick later.
			hup := make(chan os.Signal, 1)
			signal.Notify(hup, syscall.SIGHUP)
			go func() {
				defer signal.Stop(hup)
				for {
					select {
					case <-supCtx.Done():
						return
					case <-hup:
						logger.Info("SIGHUP: reloading fleet desired state")
						sup.Poke()
					}
				}
			}()
			logger.Info("fleet supervisor running", "spawn", *fleetSpawn,
				"interval", *fleetInterval, "min_healthy", *fleetMinHealthy)
		}

		logger.Info("routing", "instances", len(rt.State().Instances))
		serveErr := serveWith(ctx, ln, withDebug(rt, *enablePprof), *grace, logger)
		if supStop != nil {
			// Stop reconciling (and tear down spawned members) only after
			// the listener has drained, so in-flight proxied requests keep
			// their instances.
			supStop()
			<-supDone
		}
		rt.Close()
		if serveErr != nil {
			logger.Error("serve failed", "err", serveErr)
			return 2
		}
		return 0
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "err", err)
		return 2
	}

	var pool *workerpool.Pool
	if *isolation == "process" {
		reg := telemetry.NewRegistry()
		cfg.Metrics = reg
		pool, err = workerpool.New(workerpool.Config{
			Spawn:                workerSpawner(fs, *allowFaults),
			Workers:              *workers,
			MaxRequestsPerWorker: *workerMaxReqs,
			MaxWorkerRSS:         *workerMaxRSS,
			// The pool's SIGKILL deadline sits above the worker's own
			// pipeline deadline, so a slow-but-cooperative worker answers
			// with a categorized timeout; SIGKILL is for the wedged.
			RequestTimeout: *timeout + 2*time.Second,
			Metrics:        reg,
			Logger:         logger,
		})
		if err != nil {
			_ = ln.Close()
			logger.Error("starting worker pool", "err", err)
			return 2
		}
		cfg.Pool = pool
		logger.Info("process isolation enabled", "workers", *workers)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := serveWith(ctx, ln, newHandler(cfg, *enablePprof), *grace, logger)
	if pool != nil {
		// Ordering matters for graceful drain: srv.Shutdown (inside
		// serveWith) has already waited for in-flight HTTP requests —
		// including their pool dispatches — so closing the pool here never
		// yanks a worker out from under a live request.
		cctx, cancel := context.WithTimeout(context.Background(), *grace)
		if cerr := pool.Close(cctx); cerr != nil {
			logger.Warn("worker pool drain incomplete", "err", cerr)
		}
		cancel()
	}
	if serveErr != nil {
		logger.Error("serve failed", "err", serveErr)
		return 2
	}
	return 0
}

// workerSpawner builds the pool's spawn function: this same binary,
// re-executed in -worker mode with the parent's pipeline flags forwarded
// verbatim, plus the QUERYVISD_WORKER environment marker so a test
// binary acting as the daemon routes the child into worker mode before
// the test framework takes over.
func workerSpawner(fs *flag.FlagSet, allowFaults bool) func() (*exec.Cmd, error) {
	args := append([]string{"-worker"}, forwardedPipelineFlags(fs)...)
	if allowFaults {
		args = append(args, "-allow-fault-injection")
	}
	return func() (*exec.Cmd, error) {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(exe, args...)
		cmd.Env = append(os.Environ(), "QUERYVISD_WORKER=1")
		return cmd, nil
	}
}

// forwardedPipelineFlags lists the explicitly-set pipeline flags a
// spawned child (pool worker or fleet member) inherits, plus any extra
// flags named; listener, pool, router, and fleet flags stay parent-side.
// The cache flags are not pipeline flags: a pool's workers never cache,
// and only a fleet member, a full instance, takes them.
func forwardedPipelineFlags(fs *flag.FlagSet, extra ...string) []string {
	forward := map[string]bool{
		"timeout": true, "max-body": true,
		"max-query-bytes": true, "max-nesting-depth": true, "max-predicates": true,
		"max-diagram-nodes": true, "max-diagram-edges": true, "max-output-bytes": true,
		"unlimited": true,
		"verify":    true, "verify-budget": true,
		"quarantine-dir": true, "quarantine-max-bytes": true,
		"breaker-threshold": true, "breaker-cooldown": true,
	}
	for _, name := range extra {
		forward[name] = true
	}
	var args []string
	fs.Visit(func(f *flag.Flag) {
		if forward[f.Name] {
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	return args
}

// memberSpawner builds the fleet supervisor's Spawn function: this same
// binary re-executed as a full queryvisd server on the member's own
// address, with the operator's pipeline flags forwarded and the
// member's extra spec args appended last (so a member can override). The
// QUERYVISD_MEMBER marker routes children of a test binary back into
// run() before the test framework sees their flags.
func memberSpawner(fs *flag.FlagSet, allowFaults bool) func(fleet.Member) (*exec.Cmd, error) {
	shared := forwardedPipelineFlags(fs, "cache-entries", "cache-bytes")
	if allowFaults {
		shared = append(shared, "-allow-fault-injection")
	}
	return func(m fleet.Member) (*exec.Cmd, error) {
		u, err := url.Parse(m.URL)
		if err != nil {
			return nil, fmt.Errorf("member url %q: %w", m.URL, err)
		}
		if u.Host == "" {
			return nil, fmt.Errorf("member url %q has no host to listen on", m.URL)
		}
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		args := append([]string{"-addr", u.Host}, shared...)
		args = append(args, m.Args...)
		cmd := exec.Command(exe, args...)
		cmd.Env = append(os.Environ(), "QUERYVISD_MEMBER=1")
		return cmd, nil
	}
}

// parseSRVName splits an RFC 2782 "_service._proto.name" SRV owner name
// into the SRVSource fields.
func parseSRVName(s string) (*fleet.SRVSource, error) {
	parts := strings.SplitN(s, ".", 3)
	if len(parts) != 3 || !strings.HasPrefix(parts[0], "_") || !strings.HasPrefix(parts[1], "_") ||
		len(parts[0]) < 2 || len(parts[1]) < 2 || parts[2] == "" {
		return nil, fmt.Errorf("SRV name %q: want _service._proto.name", s)
	}
	return &fleet.SRVSource{
		Resolver: net.DefaultResolver,
		Service:  parts[0][1:],
		Proto:    parts[1][1:],
		Name:     parts[2],
	}, nil
}

// newHandler assembles the daemon's full handler: the hardened API
// server plus the gated debug surface.
func newHandler(cfg server.Config, enablePprof bool) http.Handler {
	return withDebug(server.New(cfg), enablePprof)
}

// withDebug wraps any mode's handler — the API server or the router —
// with the net/http/pprof endpoints and a plain-text goroutine dump,
// only when enablePprof. Without the flag the handler is returned
// unwrapped and the debug paths don't exist (404), so a production
// listener can't leak stacks regardless of mode.
func withDebug(h http.Handler, enablePprof bool) http.Handler {
	if !enablePprof {
		return h
	}
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/goroutines", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write(leak.Dump())
	})
	return mux
}

// serveWith runs the handler on ln until ctx is canceled, then shuts
// down gracefully: the listener closes, in-flight requests drain for up
// to grace, and only then does the function return. Factored out of run
// so tests can drive the full serve/shutdown cycle on an ephemeral port.
func serveWith(ctx context.Context, ln net.Listener, h http.Handler, grace time.Duration, logger *slog.Logger) error {
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()
	logger.Info("listening", "addr", ln.Addr().String())

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	logger.Info("shutting down, draining in-flight requests")
	sctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		// Drain window expired; cut the stragglers loose.
		_ = srv.Close()
		return fmt.Errorf("shutdown: %w", err)
	}
	<-errc
	logger.Info("bye")
	return nil
}
