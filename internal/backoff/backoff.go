// Package backoff is the one capped, jittered exponential backoff the
// service shares: the retrying HTTP client, the worker pool's respawn
// ladder and the fleet supervisor's respawn ladder all draw their waits
// here.
//
// A Policy names the ladder (Base, 2·Base, 4·Base, … capped at Max) and
// Jitter spreads one step uniformly over [d/2, d], so a synchronized
// burst of failures does not come back as a synchronized burst of
// retries. Callers that must be reproducible jitter from their own
// seeded Rand; the rest share the global source.
package backoff

import (
	"math/rand"
	"sync"
	"time"
)

// Policy is a capped exponential ladder.
type Policy struct {
	Base time.Duration
	Max  time.Duration
}

// Delay is the ladder's n-th step, counting from 1: Base·2^(n-1),
// capped at Max.
func (p Policy) Delay(n int) time.Duration {
	if n < 1 {
		n = 1
	}
	if n > 63 || p.Base > p.Max>>(n-1) {
		return p.Max
	}
	return p.Base << (n - 1)
}

// Next is the step after cur: Base from a zero (reset) ladder, else
// twice cur, capped at Max.
func (p Policy) Next(cur time.Duration) time.Duration {
	if cur <= 0 {
		return p.Base
	}
	if cur >= p.Max/2 {
		return p.Max
	}
	return cur * 2
}

// Rand is a jitter source safe for concurrent use. A seeded Rand yields
// the same waits for the same sequence of calls; the nil *Rand draws
// from the global source.
type Rand struct {
	mu sync.Mutex
	r  *rand.Rand
}

// NewRand returns a Rand seeded with seed.
func NewRand(seed int64) *Rand {
	return &Rand{r: rand.New(rand.NewSource(seed))}
}

// Jitter draws uniformly from [d/2, d] from the global source; 0 for a
// non-positive d.
func Jitter(d time.Duration) time.Duration {
	return (*Rand)(nil).Jitter(d)
}

// Jitter draws uniformly from [d/2, d]; 0 for a non-positive d.
func (r *Rand) Jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	half := int64(d / 2)
	if r == nil {
		return time.Duration(half + rand.Int63n(half+1))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return time.Duration(half + r.r.Int63n(half+1))
}
