package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fleet is the system under test of a served workload: queryvisd
// processes started fresh for one run. Each runs in its own process
// group, which its worker children inherit, so that /proc accounting
// finds every process and the teardown can prove none survives.
type fleet struct {
	procs   []*served
	target  string   // base URL the load is sent to
	urls    []string // every process's base URL
	workers int      // worker children per instance (0 = in-process)
}

// served is one started queryvisd process.
type served struct {
	cmd    *exec.Cmd
	url    string
	logged chan struct{} // closed once its stderr reaches EOF
}

var listenRE = regexp.MustCompile(`msg=listening addr=(\S+)`)

// probe is the client for health checks and scrapes.
var probe = &http.Client{Timeout: 5 * time.Second}

// spawn starts one queryvisd on an ephemeral port and returns its base
// URL once it logs the address. Its stderr (one log line per request)
// is drained for the life of the process.
func (f *fleet) spawn(bin string, args ...string) (string, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(nproc))
	// Pdeathsig kills the process if perfbench dies without its teardown
	// (a signal or a crash); worker children exit when their instance does.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return "", err
	}
	if err := cmd.Start(); err != nil {
		return "", fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &served{cmd: cmd, logged: make(chan struct{})}
	f.procs = append(f.procs, p)
	addr := make(chan string, 1)
	go func() {
		defer close(p.logged)
		br := bufio.NewReaderSize(stderr, 64<<10)
		for {
			line, err := br.ReadString('\n')
			if m := listenRE.FindStringSubmatch(line); m != nil {
				addr <- m[1]
				break
			}
			if err != nil {
				return
			}
		}
		_, _ = io.Copy(io.Discard, br)
	}()
	select {
	case a := <-addr:
		p.url = "http://" + a
		f.urls = append(f.urls, p.url)
		return p.url, nil
	case <-p.logged:
		return "", fmt.Errorf("%s exited before listening", bin)
	case <-time.After(30 * time.Second):
		return "", fmt.Errorf("%s did not report its address", bin)
	}
}

// waitHealthy polls url's /v1/healthz until it answers 200 and ok
// accepts the body.
func waitHealthy(url string, ok func(body []byte) bool) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := probe.Get(url + "/v1/healthz")
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK && ok(body) {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 30s", url)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// startInstances starts n instances with args and waits until each is
// healthy with its workers spawned.
func (f *fleet) startInstances(bin string, n int, args ...string) ([]string, error) {
	urls := make([]string, n)
	for i := range urls {
		u, err := f.spawn(bin, args...)
		if err != nil {
			return nil, err
		}
		urls[i] = u
	}
	for _, u := range urls {
		err := waitHealthy(u, func(b []byte) bool {
			var h struct {
				Pool *struct {
					Live int `json:"live"`
				} `json:"pool"`
			}
			if json.Unmarshal(b, &h) != nil {
				return false
			}
			return f.workers == 0 || (h.Pool != nil && h.Pool.Live >= f.workers)
		})
		if err != nil {
			return nil, err
		}
	}
	return urls, nil
}

// startRouter starts a router over the instances and waits until it
// reports every one of them healthy.
func (f *fleet) startRouter(bin string, instances []string, extra ...string) (string, error) {
	u, err := f.spawn(bin, append([]string{"-route", strings.Join(instances, ",")}, extra...)...)
	if err != nil {
		return "", err
	}
	return u, waitHealthy(u, func(b []byte) bool {
		var h struct {
			Status    string `json:"status"`
			Instances []struct {
				Healthy bool `json:"healthy"`
			} `json:"instances"`
		}
		if json.Unmarshal(b, &h) != nil || h.Status != "ok" || len(h.Instances) != len(instances) {
			return false
		}
		for _, in := range h.Instances {
			if !in.Healthy {
				return false
			}
		}
		return true
	})
}

// stop terminates the fleet, router first so no request reaches a
// stopping instance, waits for every process, and returns a problem
// for each process that survived and had to be killed.
func (f *fleet) stop() []string {
	var problems []string
	pgids := make(map[int]bool, len(f.procs))
	for i := len(f.procs) - 1; i >= 0; i-- {
		p := f.procs[i]
		pgids[p.cmd.Process.Pid] = true
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() {
			<-p.logged
			_ = p.cmd.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			problems = append(problems, fmt.Sprintf("%s ignored SIGTERM", p.url))
			_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
			<-done
		}
	}
	f.procs = nil
	// Worker children exit when their instance closes the pool; any left
	// in one of our process groups is an orphan.
	for _, st := range scanProcs() {
		if pgids[st.pgrp] {
			problems = append(problems, fmt.Sprintf("process %d survived its fleet", st.pid))
			_ = syscall.Kill(st.pid, syscall.SIGKILL)
		}
	}
	return problems
}

// procStat is the part of /proc/<pid>/stat the accounting needs.
type procStat struct {
	pid, ppid, pgrp int
	cpuTicks        int64 // utime + stime + cutime + cstime
}

// clockTicks is USER_HZ, the unit of the /proc CPU times; Linux fixes it
// at 100 on every architecture the benchmark runs on.
const clockTicks = 100

func readStat(pid int) (procStat, bool) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return procStat{}, false
	}
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 || i+2 > len(s) {
		return procStat{}, false
	}
	f := strings.Fields(s[i+2:]) // f[0] is field 3 (state)
	if len(f) < 15 {
		return procStat{}, false
	}
	num := func(k int) int64 { v, _ := strconv.ParseInt(f[k], 10, 64); return v }
	return procStat{
		pid:      pid,
		ppid:     int(num(1)),
		pgrp:     int(num(2)),
		cpuTicks: num(11) + num(12) + num(13) + num(14),
	}, true
}

// scanProcs reads the stat line of every live process.
func scanProcs() []procStat {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	var out []procStat
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if st, ok := readStat(pid); ok {
			out = append(out, st)
		}
	}
	return out
}

// members returns the live processes of the fleet: the router, the
// instances and their worker children.
func (f *fleet) members() []procStat {
	pgids := make(map[int]bool, len(f.procs))
	for _, p := range f.procs {
		pgids[p.cmd.Process.Pid] = true
	}
	var out []procStat
	for _, st := range scanProcs() {
		if pgids[st.pgrp] {
			out = append(out, st)
		}
	}
	return out
}

// usage reads the user plus system CPU of every fleet process so far,
// including the worker children its instances have already reaped, and
// the resident set of the live ones.
func (f *fleet) usage() (cpuMS, rssMB float64) {
	var ticks, kb int64
	for _, st := range f.members() {
		ticks += st.cpuTicks
		kb += statusKB(st.pid, "VmRSS:")
	}
	return float64(ticks) * 1000 / clockTicks, float64(kb) / 1024
}

// cpuMS is the CPU part of usage.
func (f *fleet) cpuMS() float64 {
	cpu, _ := f.usage()
	return cpu
}

// statusKB reads one kB field, such as "VmRSS:", of a process's /proc
// status.
func statusKB(pid int, field string) int64 {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseInt(f[0], 10, 64)
				return v
			}
		}
	}
	return 0
}

// scrapeMetrics reads a Prometheus exposition into series → value.
func scrapeMetrics(url string) (map[string]float64, error) {
	return scrapeLines(url+"/v1/metrics", func(line string) (string, string, bool) {
		if strings.HasPrefix(line, "#") {
			return "", "", false
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return "", "", false
		}
		return line[:i], line[i+1:], true
	})
}

// scrapeMemStats reads the runtime.MemStats block that
// /debug/pprof/heap?debug=1 appends ("# Mallocs = 123").
func scrapeMemStats(url string) (map[string]float64, error) {
	return scrapeLines(url+"/debug/pprof/heap?debug=1", func(line string) (string, string, bool) {
		k, v, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		return k, v, ok && strings.HasPrefix(line, "# ")
	})
}

func scrapeLines(url string, parse func(string) (string, string, bool)) (map[string]float64, error) {
	resp, err := probe.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		if k, v, ok := parse(sc.Text()); ok {
			if x, err := strconv.ParseFloat(v, 64); err == nil {
				out[k] = x
			}
		}
	}
	return out, sc.Err()
}

// sumPrefix adds every series of m whose key starts with prefix.
func sumPrefix(m map[string]float64, prefix string) float64 {
	s := 0.0
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}
