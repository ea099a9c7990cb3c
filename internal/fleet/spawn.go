package fleet

import (
	"os"
	"strconv"
	"syscall"
	"time"

	"repro/internal/router"
)

// Process supervision for -fleet-spawn mode. The supervisor owns one
// proc per desired member: started on the first tick that wants it,
// watched by a goroutine that records the exit, and respawned on a
// later tick once a jittered exponential backoff has elapsed — the same
// crash-loop discipline the worker pool applies to its children. A
// process that stays up past StableAfter resets its ladder, so one bad
// deploy's crash storm does not tax the member forever.

// proc tracks one managed member process across respawns.
type proc struct {
	member Member

	cmd     *procHandle
	started time.Time

	backoff      time.Duration
	backoffUntil time.Time
	respawns     int64
}

// procHandle pairs a started command with its reaper channel.
type procHandle struct {
	pid  int
	sig  func(os.Signal) error
	done chan struct{}
}

func (p *proc) running() bool {
	if p.cmd == nil {
		return false
	}
	select {
	case <-p.cmd.done:
		return false
	default:
		return true
	}
}

// ensureProcesses starts or respawns a process for every desired
// member that lacks a live one, honoring per-member backoff. A member
// no longer desired keeps its process while it is on the ring (its
// drain is still serving what it has) and is stopped and forgotten on
// the first tick that finds it off — desired state owns the process
// table exactly as it owns the ring.
func (s *Supervisor) ensureProcesses(desired []Member, onRing map[string]router.InstanceState) {
	now := time.Now()
	desiredSet := make(map[string]bool, len(desired))
	for _, m := range desired {
		desiredSet[m.URL] = true
	}

	s.mu.Lock()
	var toStop []*proc
	for url, p := range s.procs {
		if _, on := onRing[url]; !desiredSet[url] && !on {
			toStop = append(toStop, p)
			delete(s.procs, url)
		}
	}
	var toStart []Member
	for _, m := range desired {
		p := s.procs[m.URL]
		if p == nil {
			p = &proc{member: m, backoff: s.cfg.RespawnBase}
			s.procs[m.URL] = p
		}
		p.member = m
		if p.running() || now.Before(p.backoffUntil) {
			continue
		}
		first := p.cmd == nil
		if !first {
			// The previous incarnation exited. A stable run earns a fresh
			// ladder; a crash loop climbs it.
			if now.Sub(p.started) >= s.cfg.StableAfter {
				p.backoff = s.cfg.RespawnBase
			}
			p.respawns++
		}
		toStart = append(toStart, m)
	}
	s.mu.Unlock()

	for _, p := range toStop {
		s.log("stopping process for undesired member", "member", p.member.URL)
		p.stop()
	}
	for _, m := range toStart {
		s.startProcess(m)
	}
}

// startProcess spawns one member process and installs its watcher.
func (s *Supervisor) startProcess(m Member) {
	cmd, err := s.cfg.Spawn(m)
	if err != nil {
		s.log("spawn construction failed", "member", m.URL, "err", err)
		return
	}
	if err := cmd.Start(); err != nil {
		s.log("spawn start failed", "member", m.URL, "err", err)
		s.mu.Lock()
		if p := s.procs[m.URL]; p != nil {
			p.backoffUntil = time.Now().Add(s.rng.Jitter(p.backoff))
			p.backoff = s.ladder.Next(p.backoff)
		}
		s.mu.Unlock()
		return
	}
	h := &procHandle{
		pid:  cmd.Process.Pid,
		sig:  func(sig os.Signal) error { return cmd.Process.Signal(sig) },
		done: make(chan struct{}),
	}
	go func() {
		_ = cmd.Wait()
		// Backoff counts from the exit, not the launch: a process that
		// ran stably for an hour and then died must still wait out its
		// ladder instead of respawning on the very next tick.
		s.mu.Lock()
		if p := s.procs[m.URL]; p != nil && p.cmd == h {
			p.backoffUntil = time.Now().Add(s.rng.Jitter(p.backoff))
		}
		s.mu.Unlock()
		close(h.done)
	}()

	s.mu.Lock()
	p := s.procs[m.URL]
	if p == nil { // member vanished from desired while we were starting
		s.mu.Unlock()
		_ = h.sig(syscall.SIGKILL)
		<-h.done
		return
	}
	action := "spawn"
	if p.cmd != nil {
		action = "respawn"
		s.reg.Counter(mRespawns, "Managed processes respawned after exit.").Inc()
	}
	p.cmd = h
	p.started = time.Now()
	p.backoffUntil = time.Now().Add(s.rng.Jitter(p.backoff))
	p.backoff = s.ladder.Next(p.backoff)
	s.act(time.Now(), action, m.URL, "pid "+strconv.Itoa(h.pid))
	s.mu.Unlock()
}

// stop terminates the process politely, then firmly: SIGTERM, a grace
// period, SIGKILL, and always a reap — an unreaped child is a zombie
// the leak checker rightly flags.
func (p *proc) stop() {
	h := p.cmd
	if h == nil {
		return
	}
	select {
	case <-h.done:
		return
	default:
	}
	_ = h.sig(syscall.SIGTERM)
	select {
	case <-h.done:
		return
	case <-time.After(2 * time.Second):
	}
	_ = h.sig(syscall.SIGKILL)
	<-h.done
}
