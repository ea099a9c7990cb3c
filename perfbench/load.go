package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// request is one prepared /v1/diagram call and its reference bytes.
type request struct {
	in   int // index of the input it was built from
	body []byte
	want *expect
	// alt, when set, is the reference while the instance's verification
	// breaker is open: the unverified diagram flagged "skipped".
	alt *expect
}

// sample is the outcome of one operation.
type sample struct {
	lat    time.Duration // from due time (open loop) or call start (closed loop)
	late   time.Duration // dispatch time minus due time (open loop)
	end    time.Duration // completion, from the start of the phase
	ok     bool          // 200 with the reference bytes
	wrong  bool          // 200 whose bytes differ from the reference
	cached bool          // X-Queryvis-Cache: hit
	// routed is set when the router answered from its response cache
	// (X-Queryvis-Router-Cache: hit or coalesced), so no instance ran.
	routed  bool
	skipped bool // matched the breaker-open reference
	rid     string
}

// failedLatency stands in for the latency of a failed operation, which
// counts as missing every limit.
const failedLatency = 10 * time.Second

// loadClient sends diagram requests over at most conns connections.
type loadClient struct {
	hc     *http.Client
	target string
}

func newLoadClient(target string, conns int) *loadClient {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &loadClient{hc: &http.Client{Transport: tr, Timeout: failedLatency}, target: target}
}

func (c *loadClient) close() { c.hc.CloseIdleConnections() }

// do sends one request and checks the response body against the
// reference: a non-200, a transport error, a malformed body or
// different bytes fail it.
func (c *loadClient) do(r *request, rid string) sample {
	req, err := http.NewRequest(http.MethodPost, c.target+"/v1/diagram", bytes.NewReader(r.body))
	if err != nil {
		return sample{rid: rid}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", rid)
	resp, err := c.hc.Do(req)
	if err != nil {
		return sample{rid: rid}
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return sample{rid: rid}
	}
	var got wireDiagram
	if json.Unmarshal(raw, &got) != nil {
		return sample{rid: rid}
	}
	s := sample{
		rid:    rid,
		cached: resp.Header.Get("X-Queryvis-Cache") == "hit",
		routed: resp.Header.Get("X-Queryvis-Router-Cache") != "",
	}
	switch e := got.expect(); {
	case e == *r.want:
	case r.alt != nil && e == *r.alt:
		s.skipped = true
	default:
		s.wrong = true
		return s
	}
	s.ok = true
	return s
}

// openLoop releases reqs[i] at start + i/rate, for dur, to conns sender
// goroutines with one connection each. Latency runs from the due time,
// so a stall shows in every request it delays; a request that waits for
// a free connection waits on the client's side of the system, which the
// latency counts too. done, when set, sees each finished operation.
func openLoop(c *loadClient, reqs []request, rate float64, dur time.Duration, conns int, tag string, done func(i int, s sample)) []sample {
	n := min(int(rate*dur.Seconds()), len(reqs))
	samples := make([]sample, n)
	late := make([]time.Duration, n)
	start := time.Now().Add(2 * time.Millisecond)
	due := func(i int) time.Time {
		return start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
	}
	jobs := make(chan int, n) // never blocks the scheduler
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				s := c.do(&reqs[i], tag+strconv.Itoa(i))
				s.lat = time.Since(due(i))
				s.end = time.Since(start)
				if !s.ok {
					s.lat = failedLatency
				}
				samples[i] = s
				if done != nil {
					done(i, s)
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		if d := time.Until(due(i)); d > 0 {
			time.Sleep(d)
		}
		late[i] = time.Since(due(i))
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for i := range samples {
		samples[i].late = late[i]
	}
	return samples
}

// closedLoop keeps conns operations in flight for dur, running op on the
// i-th operation of the phase, and returns every outcome in completion
// order with its latency from call start.
func closedLoop(dur time.Duration, conns int, op func(i int) sample) []sample {
	var next atomic.Int64
	per := make([][]sample, conns)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				t0 := time.Now()
				s := op(int(next.Add(1) - 1))
				s.lat = time.Since(t0)
				s.end = time.Since(start)
				if !s.ok {
					s.lat = failedLatency
				}
				per[w] = append(per[w], s)
			}
		}(w)
	}
	wg.Wait()
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].end < all[j].end })
	return all
}

// minWindow is the fewest operations a latency window holds: the p99 of
// a window then leaves at least ten operations beyond it.
const minWindow = 1000

// tally summarises a phase's samples, given in time order. The reported
// figures are whole-phase values: percentiles over every operation, and
// correct operations over the phase's length. The per-window percentiles
// and per-second throughputs are kept for the report's notes.
type tally struct {
	p50, p99   float64 // ms
	lateP99    float64 // ms, generator lateness
	throughput float64 // correct operations per second
	// per-window values, in time order
	p50s, p99s, bins []float64
	ok, failed       int64
	wrong, skipped   int64
	n                int
}

func summarize(ss []sample) tally {
	t := tally{n: len(ss)}
	late := make([]float64, 0, len(ss))
	lat := make([]float64, 0, len(ss))
	var span time.Duration
	for _, s := range ss {
		late = append(late, float64(s.late)/1e6)
		lat = append(lat, float64(s.lat)/1e6)
		span = max(span, s.end)
		switch {
		case s.ok:
			t.ok++
			if s.skipped {
				t.skipped++
			}
		case s.wrong:
			t.wrong++
			t.failed++
		default:
			t.failed++
		}
	}
	t.lateP99 = percentile(late, 0.99)
	t.p50, t.p99 = percentile(lat, 0.50), percentile(lat, 0.99)
	if span > 0 {
		t.throughput = float64(t.ok) / span.Seconds()
	}
	k := max(len(ss)/minWindow, 1)
	for w := 0; w < k; w++ {
		win := lat[w*len(ss)/k : (w+1)*len(ss)/k]
		t.p50s = append(t.p50s, percentile(win, 0.50))
		t.p99s = append(t.p99s, percentile(win, 0.99))
	}
	for _, s := range ss {
		b := int(s.end / time.Second)
		for len(t.bins) <= b {
			t.bins = append(t.bins, 0)
		}
		if s.ok {
			t.bins[b]++
		}
	}
	if len(t.bins) > 1 {
		t.bins = t.bins[:len(t.bins)-1] // the last second is partial
	}
	return t
}

// A meter samples the CPU time and resident set of the system under test
// every meterTick while a phase runs; meterWindow ticks make one window.
const (
	meterTick   = 200 * time.Millisecond
	meterWindow = 10
)

type usage struct {
	at    time.Duration // from the start of the meter
	cpuMS float64       // user plus system CPU so far
	rssMB float64       // resident set now
}

type meter struct {
	read  func() (cpuMS, rssMB float64)
	start time.Time
	got   []usage
	stop  chan struct{}
	done  chan struct{}
}

// startMeter takes a first sample now and then one every meterTick, until
// finish. Start it just before the phase it measures.
func startMeter(read func() (cpuMS, rssMB float64)) *meter {
	m := &meter{read: read, start: time.Now(), stop: make(chan struct{}), done: make(chan struct{})}
	m.sample()
	go func() {
		defer close(m.done)
		tk := time.NewTicker(meterTick)
		defer tk.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tk.C:
				m.sample()
			}
		}
	}()
	return m
}

func (m *meter) sample() {
	cpu, rss := m.read()
	m.got = append(m.got, usage{time.Since(m.start), cpu, rss})
}

// finish stops the meter, takes a last sample and returns them all.
func (m *meter) finish() []usage {
	close(m.stop)
	<-m.done
	m.sample()
	return m.got
}

// phaseCPU is the CPU the meter saw over its whole run per correct
// operation of ss.
func phaseCPU(us []usage, ss []sample) float64 {
	ok := 0
	for _, s := range ss {
		if s.ok {
			ok++
		}
	}
	return (us[len(us)-1].cpuMS - us[0].cpuMS) / float64(max(ok, 1))
}

// perWindow returns, for each of the meter's full windows, the CPU per
// correct operation completed in the window and the largest resident
// set sampled in it. ss are the samples of the phase the meter measured.
func perWindow(us []usage, ss []sample) (cpus, rsss []float64) {
	for lo := 0; lo+meterWindow < len(us); lo += meterWindow {
		a, b := us[lo], us[lo+meterWindow]
		ops, peak := 0, 0.0
		for _, s := range ss {
			if s.ok && s.end >= a.at && s.end < b.at {
				ops++
			}
		}
		for _, u := range us[lo : lo+meterWindow+1] {
			peak = max(peak, u.rssMB)
		}
		if ops > 0 {
			cpus = append(cpus, (b.cpuMS-a.cpuMS)/float64(ops))
		}
		rsss = append(rsss, peak)
	}
	return cpus, rsss
}
