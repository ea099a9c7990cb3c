// Package netchaos is a stdlib-only TCP proxy with deterministic,
// seeded network-fault injection, sized for tests: it sits between the
// router and an instance (or any client/server pair) and misbehaves on
// command in exactly the ways real networks do — added latency, stalled
// transfers, connection resets, full and asymmetric partitions, and
// flapping links that alternate between the two on a schedule.
//
// internal/faults injects failures *inside* the pipeline and
// internal/workerpool's chaos headers inject them at the process
// boundary; netchaos is the missing third layer, the network itself.
// A partition here is honest: connections complete their TCP handshake
// (the listener is alive) and then bytes silently stop moving in the
// partitioned direction, which is what a blackholed route looks like —
// callers discover it by timeout, not by a tidy ECONNREFUSED. An
// asymmetric partition moves bytes one way only: requests arrive but
// responses never return (or vice versa), the classic "it works from
// over here" failure.
//
// Determinism: probabilistic faults (per-connection reset draws, flap
// jitter) are drawn from per-connection and per-schedule sources derived
// from the proxy seed and the connection's accept index (or the
// schedule's generation), so the draws follow the seed, never the
// goroutine scheduler, and a failing chaos run names the seed that
// reproduces it. Structural faults (Partition, Stall,
// Latency) are explicit state flipped by the test at chosen moments and
// need no randomness at all.
package netchaos

import (
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Direction names one side of the byte stream through the proxy.
type Direction int

const (
	// Up is client → target (requests).
	Up Direction = iota
	// Down is target → client (responses).
	Down
)

func (d Direction) String() string {
	if d == Up {
		return "up"
	}
	return "down"
}

// Faults is the proxy's current misbehavior. The zero value is a
// transparent proxy. Fields compose: a flapping link with added latency
// is Latency plus a flap schedule toggling DropUp/DropDown.
type Faults struct {
	// Latency is added once per transferred chunk in each direction —
	// a blunt but deterministic model of a slow link.
	Latency time.Duration
	// Stall freezes all transfers while set: connections stay open,
	// nothing moves. Models severe congestion or a wedged middlebox.
	Stall bool
	// DropUp blackholes client→target bytes: the sender's writes are
	// consumed and discarded, so the far side simply never hears them.
	DropUp bool
	// DropDown blackholes target→client bytes.
	DropDown bool
	// RefuseNew resets each newly accepted connection before any bytes
	// move — the "host is up, service is gone" shape.
	RefuseNew bool
	// ResetProb, in [0,1], resets each new connection after its first
	// client→target chunk with this probability, drawn from the
	// connection's seeded source — a deterministic model of a flaky NAT
	// dropping mappings. A doomed connection forwards nothing back to the
	// client, so the client always sees the reset, never a reply that
	// raced it.
	ResetProb float64
}

// partitioned reports whether direction d is blackholed.
func (f Faults) partitioned(d Direction) bool {
	if d == Up {
		return f.DropUp
	}
	return f.DropDown
}

// Stats counts the proxy's lifetime activity; read it to prove the
// chaos actually happened.
type Stats struct {
	Accepted     int64 `json:"accepted"`
	Active       int64 `json:"active"`
	Refused      int64 `json:"refused"`
	Resets       int64 `json:"resets"`
	Severed      int64 `json:"severed"`
	BytesUp      int64 `json:"bytes_up"`
	BytesDown    int64 `json:"bytes_down"`
	DroppedUp    int64 `json:"dropped_up"`
	DroppedDown  int64 `json:"dropped_down"`
	FlapsApplied int64 `json:"flaps_applied"`
}

// Config builds a Proxy.
type Config struct {
	// Target is the backend address ("127.0.0.1:port"). Required.
	Target string
	// Listen is the listen address (default "127.0.0.1:0").
	Listen string
	// Seed drives the probabilistic faults. The zero seed is replaced
	// by 1 — determinism, not entropy, is the point.
	Seed int64
	// Logger, when non-nil, receives one line per fault event.
	Logger *slog.Logger
}

// Proxy is one chaos link. Create with New, point the client at Addr,
// flip faults with Set or the convenience methods, Close when done.
type Proxy struct {
	target string
	ln     net.Listener
	logger *slog.Logger

	faults atomic.Pointer[Faults]

	// seed roots every random draw; see newRand.
	seed int64

	connMu sync.Mutex
	conns  map[*proxyConn]struct{}

	accepted, refused, resets, severed atomic.Int64
	bytes, dropped                     [2]atomic.Int64
	flaps                              atomic.Int64

	closed  chan struct{}
	once    sync.Once
	pumps   sync.WaitGroup
	flapMu  sync.Mutex
	flapGen int // bumps to cancel a running flap schedule
}

// proxyConn is one accepted client connection paired with its target
// connection.
type proxyConn struct {
	client net.Conn
	server net.Conn
}

// New starts the proxy listening (default 127.0.0.1:0) and forwarding
// to cfg.Target.
func New(cfg Config) (*Proxy, error) {
	if cfg.Target == "" {
		return nil, fmt.Errorf("netchaos: Config.Target is required")
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("netchaos: listen: %w", err)
	}
	p := &Proxy{
		target: cfg.Target,
		ln:     ln,
		logger: cfg.Logger,
		seed:   seed,
		conns:  make(map[*proxyConn]struct{}),
		closed: make(chan struct{}),
	}
	p.faults.Store(&Faults{})
	p.pumps.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the proxy's listen address ("127.0.0.1:port").
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// URL is the proxy's base URL ("http://127.0.0.1:port").
func (p *Proxy) URL() string { return "http://" + p.Addr() }

// Set replaces the proxy's fault state atomically. Pumps observe the
// new state at their next chunk boundary (and stalled pumps poll it).
func (p *Proxy) Set(f Faults) {
	p.faults.Store(&f)
	p.log("faults set", "latency", f.Latency, "stall", f.Stall,
		"drop_up", f.DropUp, "drop_down", f.DropDown,
		"refuse_new", f.RefuseNew, "reset_prob", f.ResetProb)
}

// Get snapshots the current fault state.
func (p *Proxy) Get() Faults { return *p.faults.Load() }

// Partition blackholes both directions: the link is up, bytes go
// nowhere, callers discover it by timeout.
func (p *Proxy) Partition() {
	f := p.Get()
	f.DropUp, f.DropDown = true, true
	p.Set(f)
}

// PartitionDir blackholes one direction only — the asymmetric
// partition: with Up dropped, requests never arrive; with Down dropped,
// they arrive but the answers never come home.
func (p *Proxy) PartitionDir(d Direction) {
	f := p.Get()
	if d == Up {
		f.DropUp = true
	} else {
		f.DropDown = true
	}
	p.Set(f)
}

// Heal clears the partition, stall, and refuse flags (latency and
// reset probability persist — heal the partition, keep the slow link).
func (p *Proxy) Heal() {
	f := p.Get()
	f.DropUp, f.DropDown, f.Stall, f.RefuseNew = false, false, false, false
	p.Set(f)
}

// SeverAll resets every active connection and returns how many died.
// Call it after healing a partition: bytes blackholed mid-exchange have
// corrupted any pooled connection that lived through it, and a reset is
// how the real network tells the pool so.
func (p *Proxy) SeverAll() int {
	p.connMu.Lock()
	conns := make([]*proxyConn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.connMu.Unlock()
	for _, c := range conns {
		rstConn(c.client)
		rstConn(c.server)
	}
	p.severed.Add(int64(len(conns)))
	p.log("severed all connections", "count", len(conns))
	return len(conns)
}

// Flap runs a deterministic partition schedule in the background: the
// link is healthy for up, fully partitioned for down, repeating, with
// ±10% seeded jitter on each phase so flaps never phase-lock with a
// prober. A second Flap call replaces the schedule; Heal stops the
// partition the moment the current phase ends; Close stops it cold.
func (p *Proxy) Flap(up, down time.Duration) {
	p.flapMu.Lock()
	p.flapGen++
	gen := p.flapGen
	p.flapMu.Unlock()
	rng := p.newRand(^uint64(gen))
	p.pumps.Add(1)
	go func() {
		defer p.pumps.Done()
		for {
			if !p.flapSleep(gen, jitter(rng, up)) {
				return
			}
			p.Partition()
			p.flaps.Add(1)
			if !p.flapSleep(gen, jitter(rng, down)) {
				// Stopping mid-partition would leave the link dark forever.
				p.Heal()
				return
			}
			p.Heal()
		}
	}()
}

// StopFlap cancels the running flap schedule (the link is left in
// whatever state the schedule last set; call Heal to be sure).
func (p *Proxy) StopFlap() {
	p.flapMu.Lock()
	p.flapGen++
	p.flapMu.Unlock()
}

// flapSleep sleeps d unless the schedule was replaced or the proxy
// closed.
func (p *Proxy) flapSleep(gen int, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	for {
		select {
		case <-p.closed:
			return false
		case <-t.C:
			p.flapMu.Lock()
			live := p.flapGen == gen
			p.flapMu.Unlock()
			return live
		}
	}
}

// jitter draws a seeded ±10% perturbation of d.
func jitter(rng *rand.Rand, d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return d*9/10 + time.Duration(rng.Int63n(int64(d)/5+1))
}

// newRand returns an independent source for one random stream: stream
// i < 2^63 is the connection accepted i-th, and ^gen is flap schedule
// gen. The proxy seed and the stream number are mixed with splitmix64,
// so neighbouring streams are uncorrelated.
func (p *Proxy) newRand(stream uint64) *rand.Rand {
	z := uint64(p.seed) + (stream+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z)))
}

// Stats snapshots the lifetime counters.
func (p *Proxy) Stats() Stats {
	p.connMu.Lock()
	active := int64(len(p.conns))
	p.connMu.Unlock()
	return Stats{
		Accepted:     p.accepted.Load(),
		Active:       active,
		Refused:      p.refused.Load(),
		Resets:       p.resets.Load(),
		Severed:      p.severed.Load(),
		BytesUp:      p.bytes[Up].Load(),
		BytesDown:    p.bytes[Down].Load(),
		DroppedUp:    p.dropped[Up].Load(),
		DroppedDown:  p.dropped[Down].Load(),
		FlapsApplied: p.flaps.Load(),
	}
}

// Close stops the listener, severs every connection, and waits for the
// pumps to drain. Safe to call more than once.
func (p *Proxy) Close() error {
	p.once.Do(func() {
		close(p.closed)
		_ = p.ln.Close()
		p.SeverAll()
	})
	p.pumps.Wait()
	return nil
}

func (p *Proxy) acceptLoop() {
	defer p.pumps.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		idx := uint64(p.accepted.Add(1) - 1)
		f := p.faults.Load()
		if f.RefuseNew {
			p.refused.Add(1)
			rstConn(c)
			continue
		}
		p.pumps.Add(1)
		go p.serve(c, *f, idx)
	}
}

// serve dials the target and runs the two pumps for the idx-th accepted
// connection.
func (p *Proxy) serve(client net.Conn, f Faults, idx uint64) {
	defer p.pumps.Done()
	server, err := net.DialTimeout("tcp", p.target, 5*time.Second)
	if err != nil {
		p.log("target dial failed", "err", err)
		rstConn(client)
		return
	}
	pc := &proxyConn{client: client, server: server}
	p.connMu.Lock()
	select {
	case <-p.closed:
		p.connMu.Unlock()
		rstConn(client)
		rstConn(server)
		return
	default:
	}
	p.conns[pc] = struct{}{}
	p.connMu.Unlock()

	// Per-connection reset draw: decided at accept time from the
	// connection's own seeded source, acted on after the first request
	// chunk so the exchange starts convincingly before the rug is
	// pulled. The reply direction of a doomed connection is blackholed,
	// so no answer can outrun the reset.
	doomed := false
	if f.ResetProb > 0 {
		doomed = p.newRand(idx).Float64() < f.ResetProb
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); p.pump(pc, client, server, Up, doomed) }()
	go func() { defer wg.Done(); p.pump(pc, server, client, Down, doomed) }()
	wg.Wait()

	p.connMu.Lock()
	delete(p.conns, pc)
	p.connMu.Unlock()
	_ = client.Close()
	_ = server.Close()
}

// stallPoll is how often a stalled pump re-checks the fault state.
const stallPoll = 5 * time.Millisecond

// pump copies src→dst one chunk at a time, consulting the live fault
// state at every chunk boundary. Dropped chunks are consumed and
// discarded — the sender keeps sending into the void, exactly like a
// blackholed route — and a stall parks the pump without closing
// anything. On a doomed connection the Up pump resets both ends after
// its first chunk and the Down pump discards everything.
func (p *Proxy) pump(pc *proxyConn, src, dst net.Conn, dir Direction, doomed bool) {
	buf := make([]byte, 32<<10)
	first := true
	for {
		n, err := src.Read(buf)
		if n > 0 {
			f := p.faults.Load()
			// A stall holds the chunk until the state changes or the
			// proxy dies; the bytes then flow (or drop) per the new state.
			for f.Stall {
				select {
				case <-p.closed:
					return
				case <-time.After(stallPoll):
				}
				f = p.faults.Load()
			}
			if f.Latency > 0 {
				select {
				case <-p.closed:
					return
				case <-time.After(f.Latency):
				}
				f = p.faults.Load()
			}
			if f.partitioned(dir) || (doomed && dir == Down) {
				p.dropped[dir].Add(int64(n))
			} else {
				// Count before writing: once the far side can see these
				// bytes, and answer them, Stats already includes them.
				p.bytes[dir].Add(int64(n))
				if _, werr := dst.Write(buf[:n]); werr != nil {
					return
				}
			}
			if first && doomed && dir == Up {
				p.resets.Add(1)
				p.log("seeded reset", "dir", dir.String())
				rstConn(pc.client)
				rstConn(pc.server)
				return
			}
			first = false
		}
		if err != nil {
			if err != io.EOF {
				return
			}
			// Half-close: propagate the write-side shutdown so an HTTP
			// exchange that legitimately half-closes still completes.
			if tc, ok := dst.(*net.TCPConn); ok {
				_ = tc.CloseWrite()
			}
			return
		}
	}
}

// rstConn closes c abruptly: SO_LINGER 0 turns the close into a RST on
// TCP, which is what a connection reset fault means.
func rstConn(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	_ = c.Close()
}

func (p *Proxy) log(msg string, args ...any) {
	if p.logger != nil {
		p.logger.Info("netchaos: "+msg, args...)
	}
}
