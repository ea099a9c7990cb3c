// Command queryvisd serves the QueryVis pipeline over HTTP: POST a SQL
// query and a built-in schema name to /v1/diagram and get back the
// rendered diagram (DOT, SVG, or plain text) plus its natural-language
// interpretation; /v1/interpret returns the reading without rendering;
// GET /v1/healthz reports liveness and load.
//
// Usage:
//
//	queryvisd [-addr :8080] [-shutdown-grace 10s] [-pprof] \
//	          [-verify off|degrade|strict] [-quarantine-dir DIR] \
//	          [-cache-entries 4096] [-metrics=false] [-allow-fault-injection] \
//	          [-isolation none|process] [-workers 4] [-worker-max-requests 512] \
//	          [-route URL,URL,...] \
//	          [-fleet SPEC.json | -fleet-srv _svc._proto.name] [-fleet-spawn] \
//	          [-fleet-interval 500ms]
//
// Past the listener flags on the first line, the flags come in four
// groups: instance, pool (-isolation=process), router (-route) and fleet
// (-fleet or -fleet-srv). A flag the selected mode would ignore is a
// usage error. A spawned pool worker or fleet member inherits exactly
// the instance flags its parent was given, so a router with -fleet-spawn
// accepts them too.
//
// Everything else is fixed. An instance runs each request under a 5 s
// deadline and queryvis.DefaultLimits, sheds load beyond 64 concurrent
// requests with 429 + Retry-After, accepts 1 MiB bodies and 64-item
// batches, bounds its diagram cache to 64 MiB, and logs requests
// slower than 500 ms. A router accepts 1 MiB bodies and probes every 250 ms.
//
// With -isolation=process the pipeline runs in a supervised pool of
// child worker processes (this binary re-executed with -worker): a query
// that exhausts the stack or the heap kills a sacrificial worker — which
// is SIGKILLed, respawned with backoff, and its request retried once —
// never the daemon. See internal/workerpool and the README's "Process
// isolation" section. The default, -isolation=none, keeps the historical
// in-process pipeline. Either mode takes one request path: the process
// that owns the listener decodes and validates the request, keeps the
// instance's one diagram cache (-cache-entries), and turns a miss into
// one job for the paper's pipeline, run in-process or, under process
// isolation, on an idle worker as one request frame and one response
// frame. A worker only runs the pipeline and returns a typed outcome;
// the daemon counts its verdict, files its quarantine entry (a worker
// never opens -quarantine-dir), caches it and writes the reply, with
// elapsed_ms on its own clock.
//
// With -route the binary is a scale-out router instead of a server: it
// shards /v1/diagram bodies across the listed queryvisd instances on a
// consistent-hash ring keyed by body hash, health-checks each
// instance's /v1/healthz, circuit-breaks the failing, retries elsewhere
// on the ring, and sheds an honest 503 + Retry-After only when no
// instance is eligible. Its
// own /v1/healthz reports per-instance ring state; /v1/metrics the
// router registry. The -route list is the initial ring; to change
// membership at runtime, run the fleet supervisor (below), edit its
// spec and send SIGHUP.
// The router's hot tier is its response cache, always on: identical
// concurrent requests collapse into one upstream call, and a verified
// response answers repeats of its body from the router's memory until
// it is evicted, and only while the member that would answer it reports
// the answer identity (X-Queryvis-Build header: binary, limits and
// verify mode) that produced it, so a popular query reaches a backend
// about once per deploy of its owner, in a mixed fleet too. See
// internal/router and the README's "Scale-out" section.
//
// With -fleet (a JSON spec file) or -fleet-srv (a DNS SRV name) the
// router additionally runs the fleet supervisor, the ring's one
// membership writer: a reconciliation loop that keeps the ring equal to
// the desired set — it joins every desired member at once and
// drain-then-ejects a member the spec drops (ejecting once it goes
// idle), every removal gated by a disruption budget (at least one
// healthy member, one drain at a time, never the last member). Health
// is the router's verdict alone: a joined member serves once the
// prober admits it, and a member that fails its probes stays on the
// ring, out of rotation, until it passes again. -fleet-spawn makes the
// supervisor also own the member processes (this binary re-executed
// per member, respawned with backoff), so `queryvisd -route URL -fleet
// fleet.json -fleet-spawn` is a one-command self-healing deployment. SIGHUP triggers an
// immediate spec re-read and reconcile; GET /v1/fleet reports every
// action the supervisor took and why. See internal/fleet and the
// README's "Self-healing fleet" section.
//
// Observability: GET /v1/metrics serves a Prometheus text exposition
// (disable with -metrics=false), every response carries X-Request-ID
// and X-Queryvis-Trace-Id headers, and requests slower than 500 ms
// land in the slow-query log with their string literals
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
// On SIGINT/SIGTERM the server stops accepting connections and drains
// in-flight requests for -shutdown-grace before exiting. Exit status is
// 2 on usage or bind errors, 0 on clean shutdown.
package main

import (
	"context"
	"errors"
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
	o, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}
	logger := slog.New(slog.NewTextHandler(stderr, nil))
	if o.routing() {
		return runRouter(o, logger)
	}
	if o.worker {
		// Child mode: no listener and nothing kept — no cache, telemetry
		// or quarantine of its own (the parent does all three with the
		// outcomes) — just the pipeline behind the frame protocol on
		// stdin/stdout, one job at a time, expendable by design.
		if err := workerpool.RunWorker(os.Stdin, stdout, server.Worker(o.instanceConfig(nil, logger)),
			workerpool.RunOptions{AllowFaults: o.allowFaults}); err != nil {
			logger.Error("worker loop failed", "err", err)
			return 1
		}
		return 0
	}
	var quar *quarantine.Store
	if o.quarantineDir != "" {
		if quar, err = quarantine.Open(o.quarantineDir, 0); err != nil {
			logger.Error("opening quarantine", "err", err)
			return 2
		}
	}
	cfg := o.instanceConfig(quar, logger)

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		logger.Error("listen failed", "addr", o.addr, "err", err)
		return 2
	}

	var pool *workerpool.Pool
	if o.isolation == "process" {
		cfg.Metrics = telemetry.NewRegistry()
		pool, err = workerpool.New(o.poolConfig(cfg.Metrics, logger))
		if err != nil {
			_ = ln.Close()
			logger.Error("starting worker pool", "err", err)
			return 2
		}
		cfg.Pool = pool
		logger.Info("process isolation enabled", "workers", o.workers)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := serveWith(ctx, ln, newHandler(cfg, o.pprof), o.grace, logger)
	if pool != nil {
		// Ordering matters for graceful drain: srv.Shutdown (inside
		// serveWith) has already waited for in-flight HTTP requests —
		// including their pool dispatches — so closing the pool here never
		// yanks a worker out from under a live request.
		cctx, cancel := context.WithTimeout(context.Background(), o.grace)
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

// runRouter serves router mode: no pipeline of its own, just the ring.
// A fleet source alone also selects router mode, with the initial ring
// seeded from the desired set.
func runRouter(o *options, logger *slog.Logger) int {
	backends := []string{}
	if o.route != "" {
		backends = strings.Split(o.route, ",")
	}
	if len(backends) == 0 && o.fleetSrc != nil {
		ms, err := o.fleetSrc.Desired(context.Background())
		if err != nil {
			logger.Error("reading initial fleet desired state", "err", err)
			return 2
		}
		for _, m := range ms {
			backends = append(backends, m.URL)
		}
	}
	reg := telemetry.NewRegistry()
	rt, err := router.New(o.routerConfig(backends, reg, logger))
	if err != nil {
		logger.Error("starting router", "err", err)
		return 2
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		rt.Close()
		logger.Error("listen failed", "addr", o.addr, "err", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The fleet supervisor shares the router's registry so one
	// /v1/metrics scrape covers the queryvis_fleet_* families too.
	var supDone chan struct{}
	var supStop context.CancelFunc
	if o.fleetSrc != nil {
		sup, err := fleet.New(o.fleetConfig(rt, reg, logger))
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
		logger.Info("fleet supervisor running", "spawn", o.fleetSpawn, "interval", o.fleetInterval)
	}

	logger.Info("routing", "instances", len(rt.State().Instances))
	serveErr := serveWith(ctx, ln, withDebug(rt, o.pprof), o.grace, logger)
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

// workerSpawner builds the pool's spawn function: this same binary,
// re-executed in -worker mode with the parent's instance flags, plus
// the QUERYVISD_WORKER environment marker so a test binary acting as
// the daemon routes the child into worker mode before the test
// framework takes over. A worker acts on -allow-fault-injection alone
// among them: the parent resolves each job's verify mode and owns the
// instance's cache, quarantine and telemetry.
func (o *options) workerSpawner() func() (*exec.Cmd, error) {
	args := append([]string{"-worker"}, o.inherited()...)
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

// memberSpawner builds the fleet supervisor's Spawn function: this same
// binary re-executed as a full queryvisd server on the member's own
// address, with the parent's instance flags and the member's extra spec
// args appended last (so a member can override). The QUERYVISD_MEMBER
// marker routes children of a test binary back into run() before the
// test framework sees their flags.
func (o *options) memberSpawner() func(fleet.Member) (*exec.Cmd, error) {
	shared := o.inherited()
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
