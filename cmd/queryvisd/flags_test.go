package main

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	queryvis "repro"
	"repro/internal/fleet"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/workerpool"
)

// mustParse parses a command line the test expects to be valid.
func mustParse(t *testing.T, args ...string) *options {
	t.Helper()
	var out strings.Builder
	o, err := parseFlags(args, &out)
	if err != nil {
		t.Fatalf("parseFlags %q: %v\n%s", args, err, out.String())
	}
	return o
}

// TestFlagSurface pins every flag queryvisd declares and its group. The
// group decides which modes honour a flag and, for the instance group,
// that spawned workers and fleet members inherit it; adding a flag is a
// deliberate edit here.
func TestFlagSurface(t *testing.T) {
	want := map[string]string{
		"addr": groupListener, "shutdown-grace": groupListener, "pprof": groupListener,

		"verify": groupInstance, "quarantine-dir": groupInstance, "cache-entries": groupInstance,
		"metrics": groupInstance, "allow-fault-injection": groupInstance,

		"isolation": groupPool, "workers": groupPool, "worker-max-requests": groupPool, "worker": groupPool,

		"route": groupRouter,

		"fleet": groupFleet, "fleet-srv": groupFleet, "fleet-spawn": groupFleet,
		"fleet-interval": groupFleet,
	}
	if len(want) != 17 {
		t.Fatalf("pinned %d flags, want 17", len(want))
	}
	o := newOptions(io.Discard)
	got := map[string]string{}
	o.fs.VisitAll(func(f *flag.Flag) { got[f.Name] = o.group[f.Name] })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flag surface:\n got %v\nwant %v", got, want)
	}
}

// TestFlagModesAccepted: the invocations the benchmark, the CI smokes
// and the fleet spawner produce are all valid in their modes.
func TestFlagModesAccepted(t *testing.T) {
	for _, args := range [][]string{
		{"-addr", "127.0.0.1:0", "-isolation=none", "-verify", "degrade", "-cache-entries", "0", "-pprof"},
		{"-addr", "127.0.0.1:0", "-isolation=process", "-workers", "2", "-pprof"},
		{"-addr", "127.0.0.1:0", "-route", "http://a,http://b", "-pprof"},
		{"-isolation=process", "-workers", "1", "-worker-max-requests", "1", "-allow-fault-injection"},
		{"-route", "http://a", "-fleet", "fleet.json", "-fleet-interval", "50ms"},
		{"-fleet-srv", "_qv._tcp.example"},
		{"-route", "http://a", "-fleet", "fleet.json", "-fleet-spawn", "-verify", "strict", "-metrics=false"},
		{"-worker", "-verify=strict", "-cache-entries=16", "-metrics=false", "-allow-fault-injection=true"},
		{"-addr", "127.0.0.1:9", "-cache-entries=16", "-cache-entries", "512"},
	} {
		mustParse(t, args...)
	}
}

// TestSpawnerArgs builds the commands a pool and a fleet supervisor
// would start, without starting them: a child gets exactly the
// explicitly set instance flags, never a listener, pool, router or
// fleet flag.
func TestSpawnerArgs(t *testing.T) {
	o := mustParse(t, "-addr", "127.0.0.1:0", "-pprof", "-isolation=process", "-workers", "2",
		"-worker-max-requests", "9", "-verify", "strict", "-cache-entries", "16", "-allow-fault-injection")
	cmd, err := o.workerSpawner()()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"-worker", "-allow-fault-injection=true", "-cache-entries=16", "-verify=strict"}
	if got := cmd.Args[1:]; !slices.Equal(got, want) {
		t.Errorf("worker args = %q, want %q", got, want)
	}
	if !slices.Contains(cmd.Env, "QUERYVISD_WORKER=1") {
		t.Error("worker env lacks QUERYVISD_WORKER=1")
	}
	mustParse(t, cmd.Args[1:]...) // a worker accepts what it is given

	o = mustParse(t, "-route", "http://127.0.0.1:1", "-fleet", "fleet.json", "-fleet-spawn",
		"-fleet-interval", "1s", "-pprof",
		"-cache-entries", "16", "-quarantine-dir", "q")
	spawn := o.memberSpawner()
	cmd, err = spawn(fleet.Member{URL: "http://127.0.0.1:8082", Args: []string{"-cache-entries", "512"}})
	if err != nil {
		t.Fatal(err)
	}
	want = []string{"-addr", "127.0.0.1:8082", "-cache-entries=16", "-quarantine-dir=q", "-cache-entries", "512"}
	if got := cmd.Args[1:]; !slices.Equal(got, want) {
		t.Errorf("member args = %q, want %q", got, want)
	}
	if !slices.Contains(cmd.Env, "QUERYVISD_MEMBER=1") {
		t.Error("member env lacks QUERYVISD_MEMBER=1")
	}
	mustParse(t, cmd.Args[1:]...) // a member accepts what it is given
	if _, err := spawn(fleet.Member{URL: "/no-host"}); err == nil {
		t.Error("member without a host: want an error")
	}

	// Without explicit instance flags a child inherits nothing.
	o = mustParse(t, "-isolation=process")
	if cmd, _ := o.workerSpawner()(); !slices.Equal(cmd.Args[1:], []string{"-worker"}) {
		t.Errorf("default worker args = %q, want [-worker]", cmd.Args[1:])
	}
}

// TestDefaultConfigs pins what the default flags run with: every
// effective field of the instance, pool, router and fleet configs.
func TestDefaultConfigs(t *testing.T) {
	o := mustParse(t)

	inst := o.instanceConfig(nil, nil).WithDefaults()
	wantInst := server.Config{
		Limits:             queryvis.DefaultLimits(),
		RequestTimeout:     5 * time.Second,
		MaxConcurrent:      64,
		MaxBodyBytes:       1 << 20,
		RetryAfter:         time.Second,
		CacheEntries:       4096,
		MaxBatchItems:      64,
		DefaultVerify:      queryvis.VerifyDegrade,
		SlowQueryThreshold: 500 * time.Millisecond,
	}
	if !reflect.DeepEqual(inst, wantInst) {
		t.Errorf("instance config:\n got %+v\nwant %+v", inst, wantInst)
	}
	// The cache's byte bound is the diagcache default; healthz shows it.
	rec := httptest.NewRecorder()
	server.New(inst).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	var hz struct {
		Cache struct {
			MaxEntries int   `json:"max_entries"`
			MaxBytes   int64 `json:"max_bytes"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Cache.MaxEntries != 4096 || hz.Cache.MaxBytes != 64<<20 {
		t.Errorf("cache bounds = %+v, want 4096 entries / 64 MiB", hz.Cache)
	}

	pool := o.poolConfig(nil, nil).WithDefaults()
	if pool.Spawn == nil {
		t.Error("pool config has no Spawn")
	}
	pool.Spawn = nil
	wantPool := workerpool.Config{
		Workers:              4,
		MaxRequestsPerWorker: 512,
		RequestTimeout:       7 * time.Second,
		BackoffBase:          100 * time.Millisecond,
		BackoffMax:           5 * time.Second,
	}
	if !reflect.DeepEqual(pool, wantPool) {
		t.Errorf("pool config:\n got %+v\nwant %+v", pool, wantPool)
	}

	rt := o.routerConfig([]string{"http://a"}, nil, nil).WithDefaults()
	wantRouter := router.Config{
		Backends:        []string{"http://a"},
		HealthInterval:  250 * time.Millisecond,
		ProbeDownAfter:  2,
		InstanceTimeout: 30 * time.Second,
		MaxBodyBytes:    1 << 20,
		ResponseCache:   true,
	}
	if !reflect.DeepEqual(rt, wantRouter) {
		t.Errorf("router config:\n got %+v\nwant %+v", rt, wantRouter)
	}
	if n := reflect.TypeOf(rt).NumField(); n != 8 {
		t.Errorf("router.Config has %d fields, want 8", n)
	}

	fl := o.fleetConfig(nil, nil, nil).WithDefaults()
	wantFleet := fleet.Config{
		Interval:     500 * time.Millisecond,
		MinHealthy:   1,
		DrainTimeout: 10 * time.Second,
		RespawnBase:  200 * time.Millisecond,
		RespawnMax:   5 * time.Second,
		StableAfter:  10 * time.Second,
		Seed:         1,
	}
	if !reflect.DeepEqual(fl, wantFleet) {
		t.Errorf("fleet config:\n got %+v\nwant %+v", fl, wantFleet)
	}
}

func TestParseSRVName(t *testing.T) {
	for _, tc := range []struct {
		in                   string
		service, proto, name string // empty service: want an error
	}{
		{"_queryvis._tcp.example.com", "queryvis", "tcp", "example.com"},
		{"_qv._udp.local", "qv", "udp", "local"},
		{"_a._b.c.d.e", "a", "b", "c.d.e"},
		{"queryvis._tcp.example.com", "", "", ""},
		{"_queryvis.tcp.example.com", "", "", ""},
		{"_._tcp.example.com", "", "", ""},
		{"_queryvis._.example.com", "", "", ""},
		{"_queryvis._tcp.", "", "", ""},
		{"_queryvis._tcp", "", "", ""},
		{"", "", "", ""},
	} {
		src, err := parseSRVName(tc.in)
		if tc.service == "" {
			if err == nil {
				t.Errorf("parseSRVName(%q) = %+v, want an error", tc.in, src)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseSRVName(%q): %v", tc.in, err)
			continue
		}
		if src.Service != tc.service || src.Proto != tc.proto || src.Name != tc.name || src.Resolver == nil {
			t.Errorf("parseSRVName(%q) = %+v, want %s/%s/%s", tc.in, src, tc.service, tc.proto, tc.name)
		}
	}
}
