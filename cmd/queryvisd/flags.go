package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"time"

	queryvis "repro"
	"repro/internal/fleet"
	"repro/internal/quarantine"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/workerpool"
)

// Fixed values run passes explicitly. All but requestTimeout differ
// from their package defaults. The pool's SIGKILL deadline sits 2 s
// above the worker's own pipeline deadline, so a slow but cooperative
// worker answers with a categorized timeout; SIGKILL is for the wedged.
// A router caps bodies at what an instance accepts.
const (
	requestTimeout     = 5 * time.Second
	poolKillDeadline   = requestTimeout + 2*time.Second
	slowQueryThreshold = 500 * time.Millisecond
	routerMaxBody      = 1 << 20
)

// Flag groups; see the package doc for which mode honours each.
const (
	groupListener = "listener"
	groupInstance = "instance"
	groupPool     = "pool"
	groupRouter   = "router"
	groupFleet    = "fleet"
)

// options is the parsed command line.
type options struct {
	fs    *flag.FlagSet
	group map[string]string // flag name → its group

	addr  string
	grace time.Duration
	pprof bool

	verify        verifyFlag
	quarantineDir string
	cacheEntries  int
	metrics       bool
	allowFaults   bool

	isolation     string
	workers       int
	workerMaxReqs int
	worker        bool

	route string

	fleetSpec     string
	fleetSRV      string
	fleetSpawn    bool
	fleetInterval time.Duration
	fleetSrc      fleet.Source // from -fleet or -fleet-srv; nil without either
}

func newOptions(out io.Writer) *options {
	o := &options{
		fs:     flag.NewFlagSet("queryvisd", flag.ContinueOnError),
		group:  map[string]string{},
		verify: verifyFlag(queryvis.VerifyDegrade),
	}
	o.fs.SetOutput(out)
	o.declare(groupListener, func(fs *flag.FlagSet) {
		fs.StringVar(&o.addr, "addr", ":8080", "listen address")
		fs.DurationVar(&o.grace, "shutdown-grace", 10*time.Second, "drain window for in-flight requests on shutdown")
		fs.BoolVar(&o.pprof, "pprof", false, "mount /debug/pprof/ and /debug/goroutines (never expose publicly)")
	})
	o.declare(groupInstance, func(fs *flag.FlagSet) {
		fs.Var(&o.verify, "verify", "default verification mode: off, degrade, or strict (requests can override via the \"verify\" field)")
		fs.StringVar(&o.quarantineDir, "quarantine-dir", "", "directory for the failure corpus; empty disables quarantining")
		fs.IntVar(&o.cacheEntries, "cache-entries", 4096, "diagram cache capacity in entries, keyed on schema, simplify flag and SQL text; one cache per instance, which serves hits itself under either -isolation (0 disables caching)")
		fs.BoolVar(&o.metrics, "metrics", true, "serve Prometheus metrics on /v1/metrics and instrument requests")
		fs.BoolVar(&o.allowFaults, "allow-fault-injection", false, "honor the X-Fault-Seed and X-Worker-Fault chaos headers (tests only; never in production)")
	})
	o.declare(groupPool, func(fs *flag.FlagSet) {
		fs.StringVar(&o.isolation, "isolation", "none", "pipeline isolation: none (in-process) or process (supervised worker pool)")
		fs.IntVar(&o.workers, "workers", 4, "worker processes in the pool (with -isolation=process)")
		fs.IntVar(&o.workerMaxReqs, "worker-max-requests", 512, "recycle a worker after this many requests (with -isolation=process)")
		fs.BoolVar(&o.worker, "worker", false, "run as a pool worker speaking the frame protocol on stdin/stdout (internal; spawned by -isolation=process)")
	})
	o.declare(groupRouter, func(fs *flag.FlagSet) {
		fs.StringVar(&o.route, "route", "", "comma-separated queryvisd base URLs; run as a consistent-hash router over them instead of a server")
	})
	o.declare(groupFleet, func(fs *flag.FlagSet) {
		fs.StringVar(&o.fleetSpec, "fleet", "", "fleet spec JSON file; run the self-healing supervisor over its desired members (router mode)")
		fs.StringVar(&o.fleetSRV, "fleet-srv", "", "DNS SRV name (_service._proto.name) to discover desired members from instead of a spec file (router mode)")
		fs.BoolVar(&o.fleetSpawn, "fleet-spawn", false, "supervise one local queryvisd process per desired member, respawning exits with backoff (with -fleet)")
		fs.DurationVar(&o.fleetInterval, "fleet-interval", 500*time.Millisecond, "fleet reconcile cadence (with -fleet/-fleet-srv)")
	})
	return o
}

// declare registers one group's flags on the command line and records
// their group.
func (o *options) declare(group string, register func(*flag.FlagSet)) {
	gs := flag.NewFlagSet(group, flag.ContinueOnError)
	register(gs)
	gs.VisitAll(func(f *flag.Flag) {
		o.fs.Var(f.Value, f.Name, f.Usage)
		o.group[f.Name] = group
	})
}

// verifyFlag parses -verify straight into a verification mode.
type verifyFlag queryvis.VerifyMode

func (v *verifyFlag) String() string { return queryvis.VerifyMode(*v).String() }

func (v *verifyFlag) Set(s string) error {
	m, err := queryvis.ParseVerifyMode(s)
	*v = verifyFlag(m)
	return err
}

// parseFlags parses and checks the command line. Every error it returns
// is a usage error it has already reported on out.
func parseFlags(args []string, out io.Writer) (*options, error) {
	o := newOptions(out)
	if err := o.fs.Parse(args); err != nil {
		return nil, err
	}
	if err := o.check(); err != nil {
		fmt.Fprintln(out, "queryvisd:", err)
		return nil, err
	}
	return o, nil
}

// check validates flag values, resolves the fleet source, and rejects
// any explicitly set flag the selected mode would ignore.
func (o *options) check() error {
	if o.isolation != "none" && o.isolation != "process" {
		return fmt.Errorf("-isolation %q: want none or process", o.isolation)
	}
	switch {
	case o.fleetSpec != "" && o.fleetSRV != "":
		return errors.New("-fleet and -fleet-srv are mutually exclusive; pick one desired-state source")
	case o.fleetSpec != "":
		o.fleetSrc = &fleet.SpecSource{Path: o.fleetSpec}
	case o.fleetSRV != "":
		src, err := parseSRVName(o.fleetSRV)
		if err != nil {
			return fmt.Errorf("-fleet-srv: %w", err)
		}
		o.fleetSrc = src
	}
	var err error
	o.fs.Visit(func(f *flag.Flag) {
		if why := o.ignored(f.Name); why != "" && err == nil {
			err = fmt.Errorf("-%s %s", f.Name, why)
		}
	})
	return err
}

// routing reports router mode, which -route or a fleet source selects.
func (o *options) routing() bool { return o.route != "" || o.fleetSrc != nil }

// ignored says why the selected mode would ignore the named flag, or
// returns "" when the mode honours it.
func (o *options) ignored(name string) string {
	g := o.group[name]
	switch {
	case o.worker:
		if g != groupInstance && name != "worker" {
			return "does not apply to a pool worker"
		}
	case g == groupInstance && o.routing() && !o.fleetSpawn:
		return "configures an instance; a router takes it only with -fleet-spawn, to forward to its members"
	case g == groupPool && o.routing():
		return "configures a worker pool; a router has none"
	case (name == "workers" || name == "worker-max-requests") && o.isolation != "process":
		return "requires -isolation=process"
	case g == groupFleet && o.fleetSrc == nil:
		return "requires -fleet or -fleet-srv"
	}
	return ""
}

// inherited lists the explicitly set instance flags: everything a
// spawned pool worker or fleet member takes from its parent.
func (o *options) inherited() []string {
	var args []string
	o.fs.Visit(func(f *flag.Flag) {
		if o.group[f.Name] == groupInstance {
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	return args
}

// instanceConfig is the server configuration of an instance or a pool
// worker.
func (o *options) instanceConfig(quar *quarantine.Store, logger *slog.Logger) server.Config {
	return server.Config{
		RequestTimeout:      requestTimeout,
		AllowFaultInjection: o.allowFaults,
		DefaultVerify:       queryvis.VerifyMode(o.verify),
		Quarantine:          quar,
		CacheEntries:        o.cacheEntries,
		DisableTelemetry:    !o.metrics,
		Logger:              logger,
		SlowQueryThreshold:  slowQueryThreshold,
	}
}

func (o *options) poolConfig(reg *telemetry.Registry, logger *slog.Logger) workerpool.Config {
	return workerpool.Config{
		Spawn:                o.workerSpawner(),
		Workers:              o.workers,
		MaxRequestsPerWorker: o.workerMaxReqs,
		RequestTimeout:       poolKillDeadline,
		Metrics:              reg,
		Logger:               logger,
	}
}

func (o *options) routerConfig(backends []string, reg *telemetry.Registry, logger *slog.Logger) router.Config {
	return router.Config{
		Backends:      backends,
		MaxBodyBytes:  routerMaxBody,
		ResponseCache: true,
		Metrics:       reg,
		Logger:        logger,
	}
}

func (o *options) fleetConfig(ring fleet.Ring, reg *telemetry.Registry, logger *slog.Logger) fleet.Config {
	cfg := fleet.Config{
		Ring:     ring,
		Source:   o.fleetSrc,
		Interval: o.fleetInterval,
		Metrics:  reg,
		Logger:   logger,
	}
	if o.fleetSpawn {
		cfg.Spawn = o.memberSpawner()
	}
	return cfg
}
