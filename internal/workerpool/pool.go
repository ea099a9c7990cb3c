package workerpool

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os/exec"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/telemetry"
)

// Metric families exported by the pool. They live in the same registry
// as the server's families (share one via Config.Metrics) so /v1/metrics
// and /v1/healthz read identical numbers.
const (
	mSpawns     = "queryvis_worker_spawns_total"
	mExits      = "queryvis_worker_exits_total"
	mRetries    = "queryvis_worker_retries_total"
	mWorkerDur  = "queryvis_worker_request_duration_seconds"
	mBackoffMS  = "queryvis_worker_backoff_ms"
	mLive       = "queryvis_worker_live"
	mIdle       = "queryvis_worker_idle"
	mBusy       = "queryvis_worker_busy"
	mQueueDepth = "queryvis_worker_queue_depth"
)

// exitReasons is the worker-retirement taxonomy; every reason is
// pre-registered so the exposition shows zero-valued series from the
// first scrape.
//
//	crash     the child died without being told to (SIGKILL, OOM killer,
//	          runtime fatal error such as stack exhaustion)
//	oom       the RSS watchdog killed it for exceeding maxWorkerRSS
//	timeout   it overran the dispatch deadline and was killed (wedged)
//	protocol  it wrote garbage on the pipe and was killed
//	canceled  the client went away mid-request; the worker is killed
//	          because its pipe state is unknowable (crash-only design)
//	recycled  planned retirement after MaxRequestsPerWorker requests or
//	          maxRSSGrowth bytes of resident-set growth
//	drain     retired by pool shutdown
//	spawn     it died before sending its ready frame
var exitReasons = []string{
	"crash", "oom", "timeout", "protocol", "canceled", "recycled", "drain", "spawn",
}

// Kind classifies a WorkerError.
type Kind string

const (
	// KindCrash: the worker died mid-request (EOF/EPIPE on the pipe).
	KindCrash Kind = "crash"
	// KindTimeout: the worker overran the dispatch deadline and was
	// SIGKILLed (a wedged or pathologically slow child).
	KindTimeout Kind = "timeout"
	// KindProtocol: the worker wrote bytes that don't parse as a frame.
	KindProtocol Kind = "protocol"
	// KindOOM: the RSS watchdog killed the worker mid-request.
	KindOOM Kind = "oom"
)

// WorkerError is the typed failure a dispatch surfaces after its retry
// budget is spent. The server maps KindTimeout to 504 and everything
// else to a 503 with category "worker_crashed".
type WorkerError struct {
	Kind     Kind
	Slot     int
	Attempts int
	Err      error
}

func (e *WorkerError) Error() string {
	return fmt.Sprintf("workerpool: worker %d %s after %d attempt(s): %v",
		e.Slot, e.Kind, e.Attempts, e.Err)
}

func (e *WorkerError) Unwrap() error { return e.Err }

// ErrPoolClosed is returned by Do once shutdown has begun.
var ErrPoolClosed = errors.New("workerpool: pool closed")

// errMalformed tags pipe garbage so dispatch errors classify as
// KindProtocol rather than KindCrash.
var errMalformed = errors.New("malformed frame")

// Fixed supervision bounds. A worker's resident set is capped two ways
// (both no-ops where /proc is unavailable): one observed above
// maxWorkerRSS is SIGKILLed even mid-request, and one that has grown
// maxRSSGrowth beyond its first-request baseline is recycled after it
// finishes a request. spawnTimeout bounds the wait for a new worker's
// ready frame; watchdogInterval is the RSS poll period; drainGrace is
// how long a drain-retired worker gets to exit cleanly after its stdin
// closes before being SIGKILLed.
const (
	maxWorkerRSS     = 512 << 20
	maxRSSGrowth     = 256 << 20
	spawnTimeout     = 10 * time.Second
	watchdogInterval = 250 * time.Millisecond
	drainGrace       = 500 * time.Millisecond
)

// Config tunes the supervisor. Zero fields take the documented defaults.
type Config struct {
	// Spawn builds the command for one fresh worker (stdin/stdout are
	// claimed by the pool; stderr may be pre-wired by the caller,
	// otherwise it goes to the pool logger or is discarded). Required.
	Spawn func() (*exec.Cmd, error)
	// Workers is the pool size (default 4).
	Workers int
	// MaxRequestsPerWorker recycles a worker after this many served
	// requests (default 512; negative disables).
	MaxRequestsPerWorker int
	// RequestTimeout is the hard wall-clock bound on one dispatch; a
	// worker that has not answered by then is SIGKILLed (default 10s).
	// The effective deadline is the smaller of this and the request
	// context's remaining budget.
	RequestTimeout time.Duration
	// BackoffBase and BackoffMax bound the exponential respawn backoff
	// applied when a worker dies before serving a single request
	// (defaults 100ms and 5s). Jitter is a uniform draw from
	// [backoff/2, backoff].
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Metrics receives the pool's lifecycle counters and gauges; nil
	// creates a private registry.
	Metrics *telemetry.Registry
	// Logger, when non-nil, receives worker lifecycle events and (rate-
	// capped) worker stderr output.
	Logger *slog.Logger
}

// WithDefaults returns the config with every zero field set to its
// documented default: the values New runs with.
func (c Config) WithDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.MaxRequestsPerWorker == 0 {
		c.MaxRequestsPerWorker = 512
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 5 * time.Second
	}
	return c
}

// worker is one supervised child process.
type worker struct {
	slot    int
	pid     int
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	bw      *bufio.Writer
	br      *bufio.Reader
	started time.Time
	served  atomic.Int64
	baseRSS int64
	nextID  uint64

	mu         sync.Mutex
	killReason string
	retireOnce sync.Once
	retired    chan struct{}
}

// markKill records why the worker is being killed; the first reason
// wins (a watchdog OOM kill must not be relabeled a crash by the
// dispatcher that observes the resulting EOF). Reports whether this
// call set the reason.
func (w *worker) markKill(reason string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.killReason != "" {
		return false
	}
	w.killReason = reason
	return true
}

func (w *worker) reason() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.killReason
}

// kill SIGKILLs the child; safe to call repeatedly and on the dead.
func (w *worker) kill() {
	if w.cmd.Process != nil {
		_ = w.cmd.Process.Kill()
	}
}

// Pool is the supervisor.
type Pool struct {
	cfg    Config
	ladder backoff.Policy // respawn delays, from cfg.BackoffBase/BackoffMax
	closed chan struct{}
	once   sync.Once

	// parkMu guards the idle set and the waiter queue. Hand-off to a
	// waiter happens under the lock, so a worker is never both parked
	// and promised. A waiter is the buffered channel of one dispatcher
	// blocked in acquire; it leaves the queue either when park hands it
	// a worker or when it withdraws itself (context death or shutdown).
	parkMu  sync.Mutex
	parked  []*worker
	waiters []chan *worker

	// closeMu makes "not closed, register in-flight" atomic against
	// Close: Do holds it shared around the closed-check + inflight.Add
	// pair, Close holds it exclusively while closing, so inflight.Wait
	// can never race an Add from a Do that missed the closed flag.
	closeMu  sync.RWMutex
	inflight sync.WaitGroup
	busy     atomic.Int64
	loops    sync.WaitGroup

	mu   sync.Mutex
	live map[int]*worker

	reg     *telemetry.Registry
	spawns  *telemetry.Counter
	retries *telemetry.Counter
}

// New starts the pool: one supervision loop per slot plus the RSS
// watchdog. It returns as soon as the loops are running; workers come up
// asynchronously (Do blocks until one is ready or the context expires).
func New(cfg Config) (*Pool, error) {
	if cfg.Spawn == nil {
		return nil, errors.New("workerpool: Config.Spawn is required")
	}
	cfg = cfg.WithDefaults()
	p := &Pool{
		cfg:    cfg,
		ladder: backoff.Policy{Base: cfg.BackoffBase, Max: cfg.BackoffMax},
		closed: make(chan struct{}),
		parked: make([]*worker, 0, cfg.Workers),
		live:   make(map[int]*worker, cfg.Workers),
		reg:    cfg.Metrics,
	}
	if p.reg == nil {
		p.reg = telemetry.NewRegistry()
	}
	p.spawns = p.reg.Counter(mSpawns, "Worker processes started.")
	p.retries = p.reg.Counter(mRetries, "Requests transparently retried on a fresh worker.")
	for _, r := range exitReasons {
		p.reg.Counter(mExits, "Worker retirements by reason.", "reason", r)
	}
	p.reg.GaugeFunc(mQueueDepth, "Dispatches queued for a free worker.", func() float64 {
		p.parkMu.Lock()
		defer p.parkMu.Unlock()
		return float64(len(p.waiters))
	})
	p.reg.GaugeFunc(mLive, "Live worker processes.", func() float64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return float64(len(p.live))
	})
	p.reg.GaugeFunc(mIdle, "Workers parked idle.", func() float64 {
		p.parkMu.Lock()
		defer p.parkMu.Unlock()
		return float64(len(p.parked))
	})
	p.reg.GaugeFunc(mBusy, "Requests currently dispatched or awaiting a worker.",
		func() float64 { return float64(p.busy.Load()) })

	for slot := 0; slot < cfg.Workers; slot++ {
		p.loops.Add(1)
		go p.slotLoop(slot)
	}
	p.loops.Add(1)
	go p.watchdog()
	return p, nil
}

// Registry exposes the metrics registry backing the pool.
func (p *Pool) Registry() *telemetry.Registry { return p.reg }

func (p *Pool) isClosed() bool {
	select {
	case <-p.closed:
		return true
	default:
		return false
	}
}

// Pids snapshots the live workers' process IDs, sorted; the hook the
// kill-storm chaos test uses to SIGKILL real children mid-load.
func (p *Pool) Pids() []int {
	p.mu.Lock()
	pids := make([]int, 0, len(p.live))
	for _, w := range p.live {
		pids = append(pids, w.pid)
	}
	p.mu.Unlock()
	sort.Ints(pids)
	return pids
}

// State is the pool's health snapshot, embedded in /v1/healthz.
type State struct {
	Workers int   `json:"workers"`
	Live    int   `json:"live"`
	Idle    int   `json:"idle"`
	Busy    int   `json:"busy"`
	Spawns  int64 `json:"spawns"`
	Retries int64 `json:"retries"`
	// QueueDepth is the number of dispatches currently queued for a free
	// worker: the dispatch backlog.
	QueueDepth int              `json:"queue_depth"`
	Exits      map[string]int64 `json:"exits,omitempty"`
	Draining   bool             `json:"draining"`
}

// State reads the snapshot; every number comes from the same registry
// /v1/metrics exposes, so the two can never disagree.
func (p *Pool) State() State {
	p.mu.Lock()
	live := len(p.live)
	p.mu.Unlock()
	p.parkMu.Lock()
	idle := len(p.parked)
	depth := len(p.waiters)
	p.parkMu.Unlock()
	st := State{
		Workers:    p.cfg.Workers,
		Live:       live,
		Idle:       idle,
		Busy:       int(p.busy.Load()),
		Spawns:     p.spawns.Value(),
		Retries:    p.retries.Value(),
		QueueDepth: depth,
		Exits:      make(map[string]int64, len(exitReasons)),
		Draining:   p.isClosed(),
	}
	for _, r := range exitReasons {
		if n := int64(p.reg.Value(mExits, "reason", r)); n > 0 {
			st.Exits[r] = n
		}
	}
	return st
}

// Do dispatches one request to an idle worker as one request frame and
// one response frame, transparently retrying once on a fresh worker if
// the first one crashes, OOMs, overruns, or corrupts the pipe. After the
// retry budget it returns the typed *WorkerError; context errors pass
// through untouched.
func (p *Pool) Do(ctx context.Context, req Request) (*Response, error) {
	p.closeMu.RLock()
	if p.isClosed() {
		p.closeMu.RUnlock()
		return nil, ErrPoolClosed
	}
	p.inflight.Add(1)
	p.closeMu.RUnlock()
	defer p.inflight.Done()
	p.busy.Add(1)
	defer p.busy.Add(-1)

	var lastErr error
	for attempt := 1; attempt <= 2; attempt++ {
		w, err := p.acquire(ctx)
		if err != nil {
			if lastErr != nil {
				return nil, annotate(lastErr, attempt)
			}
			return nil, err
		}
		deadline := p.dispatchDeadline(ctx)
		if deadline <= 0 {
			// The context's deadline has passed but its timer may not
			// have fired, so ctx.Err() can still be nil. No frame was
			// written: the worker is untouched and goes back idle.
			p.park(w)
			return nil, context.DeadlineExceeded
		}
		resp, err := p.roundTrip(ctx, w, &req, deadline)
		if err == nil {
			p.release(w)
			return resp, nil
		}
		p.destroy(w, killReasonFor(err))
		lastErr = err
		var we *WorkerError
		if !errors.As(err, &we) || ctx.Err() != nil {
			return nil, annotate(lastErr, attempt)
		}
		if attempt == 1 {
			p.retries.Inc()
			p.log("retrying request on a fresh worker", "slot", we.Slot, "kind", string(we.Kind))
		}
	}
	return nil, annotate(lastErr, 2)
}

// annotate stamps the attempt count onto a surfacing WorkerError.
func annotate(err error, attempts int) error {
	var we *WorkerError
	if errors.As(err, &we) {
		we.Attempts = attempts
	}
	return err
}

// killReasonFor maps a dispatch error onto the retirement taxonomy.
func killReasonFor(err error) string {
	var we *WorkerError
	if errors.As(err, &we) {
		return string(we.Kind)
	}
	return "canceled"
}

// takeParkedLocked pops the most recently parked idle worker, nil when
// none is idle. Caller holds parkMu.
func (p *Pool) takeParkedLocked() *worker {
	n := len(p.parked)
	if n == 0 {
		return nil
	}
	w := p.parked[n-1]
	p.parked[n-1] = nil
	p.parked = p.parked[:n-1]
	return w
}

// acquire pulls an idle worker, preferring an immediately available one
// before queueing as a waiter on the context or shutdown.
func (p *Pool) acquire(ctx context.Context) (*worker, error) {
	p.parkMu.Lock()
	if w := p.takeParkedLocked(); w != nil {
		p.parkMu.Unlock()
		return w, nil
	}
	if p.isClosed() {
		p.parkMu.Unlock()
		return nil, ErrPoolClosed
	}
	wt := make(chan *worker, 1)
	p.waiters = append(p.waiters, wt)
	p.parkMu.Unlock()

	select {
	case w := <-wt:
		return w, nil
	case <-ctx.Done():
		if w := p.abandon(wt); w != nil {
			// Lost the race: park already handed us a worker. Put it back
			// for the next dispatcher; this request's context is dead.
			p.park(w)
		}
		return nil, ctx.Err()
	case <-p.closed:
		if w := p.abandon(wt); w != nil {
			p.destroy(w, "drain")
		}
		return nil, ErrPoolClosed
	}
}

// abandon withdraws a waiter. If a worker hand-off already happened (the
// waiter is gone from the queue with a worker promised), the worker is
// returned so the caller can repark or retire it; park dequeues a waiter
// and fills its buffered channel under parkMu, so that receive never
// blocks.
func (p *Pool) abandon(wt chan *worker) *worker {
	p.parkMu.Lock()
	for i, x := range p.waiters {
		if x == wt {
			p.waiters = append(p.waiters[:i], p.waiters[i+1:]...)
			p.parkMu.Unlock()
			return nil
		}
	}
	p.parkMu.Unlock()
	return <-wt
}

// park returns a worker to the idle set: straight to the oldest waiter
// when one is queued, else into the parked set. During shutdown the
// worker is retired instead.
func (p *Pool) park(w *worker) {
	p.parkMu.Lock()
	if p.isClosed() {
		p.parkMu.Unlock()
		p.destroy(w, "drain")
		return
	}
	if len(p.waiters) > 0 {
		wt := p.waiters[0]
		p.waiters = append(p.waiters[:0], p.waiters[1:]...)
		wt <- w
		p.parkMu.Unlock()
		return
	}
	p.parked = append(p.parked, w)
	p.parkMu.Unlock()
}

// release returns a healthy worker to the idle set — unless policy says
// its time is up, in which case it is retired through exactly the same
// path a crash takes (crash-only design: recycling rehearses recovery).
func (p *Pool) release(w *worker) {
	if p.isClosed() {
		p.destroy(w, "drain")
		return
	}
	if p.cfg.MaxRequestsPerWorker > 0 && w.served.Load() >= int64(p.cfg.MaxRequestsPerWorker) {
		p.destroy(w, "recycled")
		return
	}
	if rssSupported {
		rss := readRSS(w.pid)
		switch {
		case rss == 0:
			// unknown; leave policy alone
		case w.baseRSS == 0:
			w.baseRSS = rss
		case rss-w.baseRSS > maxRSSGrowth:
			p.destroy(w, "recycled")
			return
		}
	}
	p.park(w)
}

// guardDispatch arms the two safety nets around an exchange: the hard
// deadline (SIGKILL a worker that has not answered in time) and the
// client-cancellation watcher (SIGKILL when the caller goes away — the
// pipe's state is unknowable mid-exchange, and killing is the one
// recovery path that always works). The returned func disarms both.
func (p *Pool) guardDispatch(ctx context.Context, w *worker, deadline time.Duration) func() {
	killTimer := time.AfterFunc(deadline, func() {
		if w.markKill("timeout") {
			w.kill()
		}
	})
	watchDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			// The handler's ctx is canceled when ServeHTTP returns, so a
			// watcher scheduled late can see both channels ready and must
			// not kill a worker whose round trip already completed — that
			// worker is back in the idle set serving someone else.
			select {
			case <-watchDone:
			default:
				if w.markKill("canceled") {
					w.kill()
				}
			}
		case <-watchDone:
		}
	}()
	return func() {
		killTimer.Stop()
		close(watchDone)
	}
}

// dispatchDeadline is the wall-clock budget for one exchange: the
// configured timeout, shrunk to the context's remaining time.
func (p *Pool) dispatchDeadline(ctx context.Context) time.Duration {
	deadline := p.cfg.RequestTimeout
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem < deadline {
			deadline = rem
		}
	}
	return deadline
}

// stampDeadline copies a request with the worker-side deadline header
// set. The worker gets a slightly earlier deadline than the kill timer,
// so a slow-but-cooperative pipeline answers with a categorized timeout
// instead of dying: SIGKILL is for the uncooperative.
func stampDeadline(req *Request, deadline time.Duration) *Request {
	workerDeadline := deadline - deadline/10
	wr := *req
	wr.Header = make(map[string]string, len(req.Header)+1)
	for k, v := range req.Header {
		wr.Header[k] = v
	}
	wr.Header[headerDeadlineMS] = strconv.FormatInt(max64(1, workerDeadline.Milliseconds()), 10)
	return &wr
}

// roundTrip performs one framed exchange under the dispatch deadline.
func (p *Pool) roundTrip(ctx context.Context, w *worker, req *Request, deadline time.Duration) (*Response, error) {
	done := p.guardDispatch(ctx, w, deadline)
	defer done()

	w.nextID++
	id := w.nextID
	start := time.Now()
	if err := writeFrame(w.bw, &frame{ID: id, Req: stampDeadline(req, deadline)}); err != nil {
		return nil, p.dispatchError(ctx, w, err)
	}
	f, err := readFrame(w.br)
	if err != nil {
		return nil, p.dispatchError(ctx, w, err)
	}
	if f.Resp == nil || f.ID != id {
		w.markKill("protocol")
		return nil, &WorkerError{Kind: KindProtocol, Slot: w.slot, Attempts: 1,
			Err: fmt.Errorf("frame id %d for request %d: %w", f.ID, id, errMalformed)}
	}
	w.served.Add(1)
	p.reg.Histogram(mWorkerDur, "Per-worker dispatch latency.", nil,
		"slot", strconv.Itoa(w.slot)).Observe(time.Since(start).Seconds())
	return f.Resp, nil
}

// dispatchError classifies a failed exchange. A kill this supervisor
// initiated keeps its recorded motive (timeout, oom, canceled); an
// unprompted failure is a crash or, for undecodable bytes, garbage on
// the pipe.
func (p *Pool) dispatchError(ctx context.Context, w *worker, err error) error {
	switch w.reason() {
	case "timeout":
		return &WorkerError{Kind: KindTimeout, Slot: w.slot, Attempts: 1, Err: err}
	case "oom":
		return &WorkerError{Kind: KindOOM, Slot: w.slot, Attempts: 1, Err: err}
	case "canceled":
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		// This dispatch's ctx is live: the worker was killed for a
		// *previous* request's cancellation and this request is an
		// innocent bystander. To its caller that is a plain crash —
		// retryable on a fresh worker.
	}
	kind := KindCrash
	if errors.Is(err, errMalformed) {
		kind = KindProtocol
	}
	return &WorkerError{Kind: kind, Slot: w.slot, Attempts: 1, Err: err}
}

// destroy retires a worker exactly once: record the reason, make sure it
// is dead (drain retirements get drainGrace to exit cleanly first), reap
// it, and wake the slot loop to respawn.
func (p *Pool) destroy(w *worker, fallbackReason string) {
	w.retireOnce.Do(func() {
		w.markKill(fallbackReason)
		reason := w.reason()
		_ = w.stdin.Close()
		if reason == "drain" || reason == "recycled" {
			// Planned retirement: closing stdin lets the worker's loop see a
			// clean EOF and exit zero; the grace timer backs it with SIGKILL.
			t := time.AfterFunc(drainGrace, w.kill)
			_ = w.cmd.Wait()
			t.Stop()
		} else {
			w.kill()
			_ = w.cmd.Wait()
		}
		p.mu.Lock()
		if p.live[w.slot] == w {
			delete(p.live, w.slot)
		}
		p.mu.Unlock()
		p.reg.Counter(mExits, "Worker retirements by reason.", "reason", reason).Inc()
		p.log("worker retired", "slot", w.slot, "pid", w.pid,
			"reason", reason, "served", w.served.Load())
		close(w.retired)
	})
}

// slotLoop supervises one slot for the pool's lifetime: spawn a worker,
// park it idle, wait for its retirement, repeat. A worker that dies before
// serving anything escalates the slot's backoff (exponential, jittered,
// capped); one that served at least a request respawns immediately — a
// crash under real load should not idle the slot.
func (p *Pool) slotLoop(slot int) {
	defer p.loops.Done()
	delayGauge := p.reg.Gauge(mBackoffMS, "Current respawn backoff per slot, in ms.",
		"slot", strconv.Itoa(slot))
	delay := time.Duration(0)
	for {
		if p.isClosed() {
			return
		}
		delayGauge.Set(delay.Milliseconds())
		if delay > 0 && !p.sleep(backoff.Jitter(delay)) {
			return
		}
		w, err := p.spawnWorker(slot)
		if err != nil {
			p.reg.Counter(mExits, "Worker retirements by reason.", "reason", "spawn").Inc()
			p.log("worker spawn failed", "slot", slot, "err", err)
			delay = p.ladder.Next(delay)
			continue
		}
		p.spawns.Inc()
		p.log("worker spawned", "slot", slot, "pid", w.pid)
		p.mu.Lock()
		p.live[slot] = w
		p.mu.Unlock()

		p.park(w)
		select {
		case <-w.retired:
		case <-p.closed:
			// Close() reaps it (idle drain or the holding dispatcher).
			return
		}
		if w.served.Load() > 0 {
			delay = 0
		} else {
			delay = p.ladder.Next(delay)
		}
	}
}

// sleep waits d or until shutdown; reports whether the full wait
// elapsed.
func (p *Pool) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-p.closed:
		return false
	}
}

// spawnWorker starts a child and waits for its ready frame.
func (p *Pool) spawnWorker(slot int) (*worker, error) {
	cmd, err := p.cfg.Spawn()
	if err != nil {
		return nil, err
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if cmd.Stderr == nil {
		if p.cfg.Logger != nil {
			cmd.Stderr = &stderrWriter{log: p.cfg.Logger, slot: slot}
		} else {
			cmd.Stderr = io.Discard
		}
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	w := &worker{
		slot:    slot,
		pid:     cmd.Process.Pid,
		cmd:     cmd,
		stdin:   stdin,
		bw:      bufio.NewWriter(stdin),
		br:      bufio.NewReader(stdout),
		started: time.Now(),
		retired: make(chan struct{}),
	}
	t := time.AfterFunc(spawnTimeout, func() {
		w.markKill("spawn")
		w.kill()
	})
	f, err := readFrame(w.br)
	t.Stop()
	if err != nil || !f.Ready {
		w.kill()
		_ = stdin.Close()
		_ = cmd.Wait()
		if err == nil {
			err = fmt.Errorf("first frame not a ready marker: %w", errMalformed)
		}
		return nil, fmt.Errorf("worker did not become ready: %w", err)
	}
	return w, nil
}

// Close drains the pool: no new dispatches are accepted, in-flight
// requests run to completion (or until ctx expires, at which point the
// remaining workers are killed to unblock their dispatchers), and every
// child is reaped before Close returns — the pool never leaks a process
// or a zombie.
func (p *Pool) Close(ctx context.Context) error {
	p.closeMu.Lock()
	p.once.Do(func() { close(p.closed) })
	p.closeMu.Unlock()
	done := make(chan struct{})
	go func() {
		p.inflight.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		p.mu.Lock()
		for _, w := range p.live {
			if w.markKill("drain") {
				w.kill()
			}
		}
		p.mu.Unlock()
		<-done
	}
	p.loops.Wait()
	// Only now is the idle set quiescent: slot loops can no longer park,
	// dispatchers can no longer take (acquire fails closed), and every
	// waiter has withdrawn via the closed channel.
	p.parkMu.Lock()
	parked := p.parked
	p.parked = nil
	p.parkMu.Unlock()
	for _, w := range parked {
		p.destroy(w, "drain")
	}
	return err
}

// watchdog polls every live worker's resident set and SIGKILLs any that
// exceed the ceiling — even mid-request; the dispatcher observes the
// death and classifies it KindOOM via the recorded kill reason.
func (p *Pool) watchdog() {
	defer p.loops.Done()
	if !rssSupported {
		return
	}
	t := time.NewTicker(watchdogInterval)
	defer t.Stop()
	for {
		select {
		case <-p.closed:
			return
		case <-t.C:
		}
		p.mu.Lock()
		ws := make([]*worker, 0, len(p.live))
		for _, w := range p.live {
			ws = append(ws, w)
		}
		p.mu.Unlock()
		for _, w := range ws {
			if rss := readRSS(w.pid); rss > maxWorkerRSS {
				if w.markKill("oom") {
					p.log("worker over RSS ceiling, killing",
						"slot", w.slot, "pid", w.pid, "rss", rss, "ceiling", maxWorkerRSS)
					w.kill()
				}
			}
		}
	}
}

func (p *Pool) log(msg string, args ...any) {
	if p.cfg.Logger != nil {
		p.cfg.Logger.Info(msg, args...)
	}
}

// stderrWriter forwards a worker's stderr to the pool logger, capped per
// worker so a crashing child's multi-megabyte stack dump cannot flood
// the log.
type stderrWriter struct {
	log     *slog.Logger
	slot    int
	written int
}

const stderrCap = 8 << 10

func (sw *stderrWriter) Write(b []byte) (int, error) {
	n := len(b)
	if sw.written < stderrCap {
		keep := b
		if sw.written+len(keep) > stderrCap {
			keep = keep[:stderrCap-sw.written]
		}
		sw.written += len(keep)
		sw.log.Warn("worker stderr", "slot", sw.slot, "output", string(keep))
	}
	return n, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
