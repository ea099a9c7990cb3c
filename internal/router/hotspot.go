// Hot-key replication. The consistent-hash ring pins each request body
// to one owner, which is exactly right until one query goes viral: the
// owner saturates while the rest of the ring idles, and no amount of
// healthy capacity helps because the hash always picks the same victim.
// The hottab watches per-key request rates with exponentially decaying
// counters — bounded memory, no clock ticks, no global coordination —
// and promotes any key whose decayed rate crosses the threshold to
// replicated reads: its requests rotate round-robin across the first R
// candidates of its ring order instead of hammering the owner alone.
// This is safe because every instance answers a request the same way
// (same body ⇒ same bytes, so any replica's answer is the answer); the
// only cost is R caches warming the request instead of one. Demotion is
// automatic with hysteresis: when the spike subsides the rate decays
// below half the promotion threshold and the key collapses back onto
// its owner.
package router

import (
	"math"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// ln2 converts between a decayed event count and an events-per-second
// rate estimate: at steady rate R with half-life H, the decayed count
// converges to R·H/ln2.
const ln2 = 0.6931471805599453

type hotEntry struct {
	count    float64 // exponentially decayed request count
	last     time.Time
	promoted bool
	rr       uint32 // round-robin cursor across the replica set
}

// hottab tracks per-routing-key request rates in a bounded table.
type hottab struct {
	mu sync.Mutex
	m  map[string]*hotEntry

	cap          int
	halfLife     time.Duration
	promoteCount float64 // decayed-count equivalent of the promote RPS
	demoteCount  float64 // hysteresis floor (promote/2)
	promotedN    int     // currently promoted entries

	cPromote *telemetry.Counter
	cDemote  *telemetry.Counter
}

func newHottab(capacity int, halfLife time.Duration, promoteRPS float64, reg *telemetry.Registry) *hottab {
	promoteCount := promoteRPS * halfLife.Seconds() / ln2
	return &hottab{
		m:            make(map[string]*hotEntry),
		cap:          capacity,
		halfLife:     halfLife,
		promoteCount: promoteCount,
		demoteCount:  promoteCount / 2,
		cPromote:     reg.Counter(mHotPromotions, "Patterns promoted to replicated reads."),
		cDemote:      reg.Counter(mHotDemotions, "Patterns demoted back to single-owner routing."),
	}
}

// touch records one request for key and reports whether the key is
// currently promoted, plus a round-robin cursor for spreading the
// request across the replica set.
func (h *hottab) touch(key string, now time.Time) (promoted bool, rot uint32) {
	h.mu.Lock()
	defer h.mu.Unlock()
	e := h.m[key]
	if e == nil {
		if len(h.m) >= h.cap {
			h.sweepLocked(now)
		}
		if len(h.m) >= h.cap {
			// Table saturated with warmer keys; an untracked key cannot
			// promote, which only delays — never prevents — promotion:
			// a genuinely viral pattern outlives the sweep horizon of
			// whatever it displaced.
			return false, 0
		}
		e = &hotEntry{last: now}
		h.m[key] = e
	}
	if dt := now.Sub(e.last); dt > 0 {
		e.count *= math.Exp2(-float64(dt) / float64(h.halfLife))
		e.last = now
	}
	e.count++
	switch {
	case !e.promoted && e.count >= h.promoteCount:
		e.promoted = true
		h.promotedN++
		h.cPromote.Inc()
	case e.promoted && e.count < h.demoteCount:
		e.promoted = false
		h.promotedN--
		h.cDemote.Inc()
	}
	e.rr++
	return e.promoted, e.rr
}

// sweepLocked evicts entries that have gone cold: idle past several
// half-lives, or decayed far below the demotion floor without ever
// promoting. Promoted entries are demoted first if their decayed count
// says the spike is over, so the demotion counter stays truthful.
func (h *hottab) sweepLocked(now time.Time) {
	idleHorizon := 8 * h.halfLife
	for k, e := range h.m {
		decayed := e.count * math.Exp2(-float64(now.Sub(e.last))/float64(h.halfLife))
		if e.promoted && decayed < h.demoteCount {
			e.promoted = false
			h.promotedN--
			h.cDemote.Inc()
		}
		if e.promoted {
			continue
		}
		if now.Sub(e.last) > idleHorizon || decayed < h.demoteCount/4 {
			delete(h.m, k)
		}
	}
}

// promotedCount reports how many patterns are replicated right now.
func (h *hottab) promotedCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.promotedN
}

// tracked reports the table's current size.
func (h *hottab) tracked() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.m)
}
