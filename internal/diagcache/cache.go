// Package diagcache memoizes fully rendered diagram results keyed by
// the exact request (see Key): the schema, the option flags that change
// the artifact, a fingerprint of the limits the build runs under, and
// the literal SQL text. Those decide the response
// bytes, so a hit returns exactly what a fresh build of the same
// request would return, and an entry built under one configuration is
// never served under another. Two different queries never share an
// entry, even when they share a logical pattern (§1.1 of the paper):
// pattern-isomorphic queries share a diagram's shape, not its table
// names or constants.
//
// The cache is a bounded, sharded LRU holding immutable entries: the
// three rendered formats (DOT, SVG, text), the interpretation, and the
// verification status the build earned. GetOrBuild is the one serve
// flow, and its rules are load bearing:
//
//   - only results whose verify status is "verified" (or "off", when the
//     caller never asked for proof) are cacheable;
//   - degraded, failed, skipped, or quarantined results are never
//     inserted — builds gate on CacheableStatus;
//   - a request carrying an injected fault bypasses the cache in both
//     directions: it is neither served cached bytes nor inserted.
//
// Concurrent misses on one key collapse via singleflight: one leader
// runs the build, everyone else waits for its entry.
package diagcache

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Metric families exported through the telemetry registry. Pass the
// server's registry via Config.Metrics so /v1/metrics and /v1/healthz
// read the same numbers.
const (
	// MetricRequests counts lookups by outcome, one per GetOrBuild call
	// ("bypass" for a request carrying an injected fault).
	MetricRequests = "queryvis_cache_requests_total"
	// MetricEvictions counts dropped entries by cause.
	MetricEvictions = "queryvis_cache_evictions_total"
	// MetricInserts counts successful entry insertions.
	MetricInserts = "queryvis_cache_inserts_total"
	// MetricBuilds counts singleflight leader executions — the number of
	// verified pipeline runs the cache could not avoid.
	MetricBuilds = "queryvis_cache_builds_total"
	// MetricSFWaits counts followers that waited on another caller's
	// in-flight build instead of running their own.
	MetricSFWaits = "queryvis_cache_singleflight_waits_total"
	// MetricEntries and MetricBytes gauge current occupancy.
	MetricEntries = "queryvis_cache_entries"
	MetricBytes   = "queryvis_cache_bytes"
)

// Outcome classifies one GetOrBuild call.
type Outcome string

const (
	// OutcomeHit: the request's key was resident; no pipeline work ran.
	OutcomeHit Outcome = "hit"
	// OutcomeHitFlight: the caller waited on a concurrent leader's build
	// and was served its entry (singleflight collapse).
	OutcomeHitFlight Outcome = "hit_flight"
	// OutcomeMiss: this caller led a build and inserted the entry.
	OutcomeMiss Outcome = "miss"
	// OutcomeUncacheable: the build ran but produced nothing insertable
	// (degraded, skipped, failed); the caller serves its own result
	// directly.
	OutcomeUncacheable Outcome = "uncacheable"
	// OutcomeBypass: the request carried an injected fault, or there is
	// no cache; the caller's own build served it.
	OutcomeBypass Outcome = "bypass"
)

// Hit reports whether the outcome served bytes from the cache.
func (o Outcome) Hit() bool {
	return o == OutcomeHit || o == OutcomeHitFlight
}

var outcomes = []Outcome{
	OutcomeHit, OutcomeHitFlight, OutcomeMiss, OutcomeUncacheable, OutcomeBypass,
}

// Eviction causes for MetricEvictions.
const (
	EvictLRU     = "lru"     // capacity pressure (entries or bytes)
	EvictReplace = "replace" // a verified entry superseded an "off" one
)

var evictCauses = []string{EvictLRU, EvictReplace}

// Entry is one immutable cached result: everything the server needs to
// answer a diagram request in any format without touching the pipeline.
// Fields must never be mutated after Put.
type Entry struct {
	// DOT, SVG, and Text are the three rendered formats; every format is
	// rendered at insert time so a hit never runs the renderer.
	DOT  string
	SVG  string
	Text string
	// Interpretation is the natural-language reading.
	Interpretation string
	// ReadingOrder, Tables, and Edges mirror the diagram summary fields
	// of the wire response.
	ReadingOrder []int
	Tables       int
	Edges        int
	// VerifyStatus is the proof status the build earned: "verified", or
	// "off" when verification was never requested. No other status is
	// insertable.
	VerifyStatus string
}

// size is the entry's accounted footprint in bytes.
func (e *Entry) size() int64 {
	return int64(len(e.DOT) + len(e.SVG) + len(e.Text) +
		len(e.Interpretation) + 8*len(e.ReadingOrder) + 128) // struct + bookkeeping overhead
}

// CacheableStatus reports whether a result with the given verify status
// and degradation rung may be inserted. This is the single codified
// cacheability rule: verified results always qualify, unverified ones
// only when verification was off, and degraded artifacts never do.
func CacheableStatus(verifyStatus, degraded string) bool {
	if degraded != "" {
		return false
	}
	return verifyStatus == "verified" || verifyStatus == "off"
}

// Config tunes a Cache. Zero fields take the documented defaults.
type Config struct {
	// MaxEntries bounds the number of cached requests (default 4096;
	// negative means 1).
	MaxEntries int
	// MaxBytes bounds the accounted bytes of rendered output (default
	// 64 MiB; negative means unbounded).
	MaxBytes int64
	// Shards is the number of independent LRU shards (default 16,
	// rounded up to a power of two). More shards means less lock
	// contention and a slightly coarser global LRU.
	Shards int
	// Metrics receives the cache's counters and occupancy gauges; nil
	// creates a private registry.
	Metrics *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.MaxEntries == 0 {
		c.MaxEntries = 4096
	}
	if c.MaxEntries < 0 {
		c.MaxEntries = 1
	}
	if c.MaxBytes == 0 {
		c.MaxBytes = 64 << 20
	}
	if c.Shards <= 0 {
		c.Shards = 16
	}
	for c.Shards&(c.Shards-1) != 0 {
		c.Shards++
	}
	if c.Shards > c.MaxEntries {
		// Pointless to run more shards than entries; per-shard capacity
		// must stay >= 1.
		c.Shards = 1
	}
	return c
}

// Cache is the bounded, sharded, singleflighted diagram cache.
type Cache struct {
	cfg    Config
	shards []*shard

	flightMu sync.Mutex
	flights  map[string]*flight

	entries atomic.Int64
	bytes   atomic.Int64

	reg       *telemetry.Registry
	cOutcomes map[Outcome]*telemetry.Counter
	cInserts  *telemetry.Counter
	cBuilds   *telemetry.Counter
	cSFWaits  *telemetry.Counter
}

// shard is one LRU partition. Entries are keyed by request key; the
// list front is most recently used.
type shard struct {
	mu         sync.Mutex
	byKey      map[string]*list.Element
	lru        *list.List
	bytes      int64
	maxEntries int
	maxBytes   int64
}

// node is the shard-owned envelope around one Entry.
type node struct {
	key string
	ent *Entry
}

// New builds a Cache.
func New(cfg Config) *Cache {
	cfg = cfg.withDefaults()
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	c := &Cache{
		cfg:     cfg,
		shards:  make([]*shard, cfg.Shards),
		flights: make(map[string]*flight),
		reg:     reg,

		cOutcomes: make(map[Outcome]*telemetry.Counter, len(outcomes)),
	}
	perEntries := (cfg.MaxEntries + cfg.Shards - 1) / cfg.Shards
	perBytes := cfg.MaxBytes
	if perBytes > 0 {
		perBytes = (cfg.MaxBytes + int64(cfg.Shards) - 1) / int64(cfg.Shards)
	}
	for i := range c.shards {
		c.shards[i] = &shard{
			byKey:      make(map[string]*list.Element),
			lru:        list.New(),
			maxEntries: perEntries,
			maxBytes:   perBytes,
		}
	}
	c.cInserts = reg.Counter(MetricInserts, "Diagram cache entries inserted.")
	c.cBuilds = reg.Counter(MetricBuilds, "Verified builds executed by singleflight leaders.")
	c.cSFWaits = reg.Counter(MetricSFWaits, "Callers that waited on a concurrent leader's build.")
	for _, o := range outcomes {
		c.cOutcomes[o] = reg.Counter(MetricRequests, "Diagram cache lookups by outcome.", "outcome", string(o))
	}
	for _, cause := range evictCauses {
		reg.Counter(MetricEvictions, "Diagram cache evictions by cause.", "cause", cause)
	}
	reg.GaugeFunc(MetricEntries, "Diagram cache entries resident.",
		func() float64 { return float64(c.entries.Load()) })
	reg.GaugeFunc(MetricBytes, "Diagram cache accounted bytes resident.",
		func() float64 { return float64(c.bytes.Load()) })
	return c
}

func (c *Cache) countOutcome(o Outcome) {
	c.cOutcomes[o].Inc()
}

func (c *Cache) countEviction(cause string, n int) {
	if n > 0 {
		c.reg.Counter(MetricEvictions, "Diagram cache evictions by cause.", "cause", cause).Add(int64(n))
	}
}

// shardIndex is the key's 32-bit FNV-1a hash masked to the shard count,
// computed in place: it runs on every lookup.
func shardIndex(key string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h) & (n - 1)
}

// acceptable reports whether an entry satisfies a lookup's proof
// requirement: a caller that wants verification only accepts proven
// entries; a verify=off caller accepts anything (a verified entry is
// strictly stronger than what it asked for).
func acceptable(e *Entry, wantVerified bool) bool {
	return !wantVerified || e.VerifyStatus == "verified"
}

// Get resolves a request key, touching LRU recency. It counts nothing;
// GetOrBuild owns outcome accounting.
func (c *Cache) Get(key string, wantVerified bool) (*Entry, bool) {
	sh := c.shards[shardIndex(key, c.cfg.Shards)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.byKey[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*node).ent
	if !acceptable(e, wantVerified) {
		return nil, false
	}
	sh.lru.MoveToFront(el)
	return e, true
}

// Put inserts an entry under its request key and evicts LRU tails until
// the shard is back under its bounds. A verified entry replaces an
// unverified one for the same key; an unverified entry never downgrades
// a verified one. Entries failing CacheableStatus are rejected outright.
func (c *Cache) Put(key string, e *Entry) bool {
	if e == nil || !CacheableStatus(e.VerifyStatus, "") {
		return false
	}
	sh := c.shards[shardIndex(key, c.cfg.Shards)]
	evicted, replaced := 0, 0
	sh.mu.Lock()
	if el, ok := sh.byKey[key]; ok {
		old := el.Value.(*node)
		if old.ent.VerifyStatus == "verified" && e.VerifyStatus != "verified" {
			sh.mu.Unlock()
			return false // keep the stronger entry
		}
		sh.bytes += e.size() - old.ent.size()
		c.bytes.Add(e.size() - old.ent.size())
		old.ent = e
		sh.lru.MoveToFront(el)
		replaced = 1
	} else {
		sh.byKey[key] = sh.lru.PushFront(&node{key: key, ent: e})
		sh.bytes += e.size()
		c.bytes.Add(e.size())
		c.entries.Add(1)
	}
	for (sh.maxEntries > 0 && sh.lru.Len() > sh.maxEntries) ||
		(sh.maxBytes > 0 && sh.bytes > sh.maxBytes && sh.lru.Len() > 1) {
		tail := sh.lru.Back()
		nd := tail.Value.(*node)
		sh.lru.Remove(tail)
		delete(sh.byKey, nd.key)
		sh.bytes -= nd.ent.size()
		c.bytes.Add(-nd.ent.size())
		c.entries.Add(-1)
		evicted++
	}
	sh.mu.Unlock()

	c.cInserts.Inc()
	c.countEviction(EvictReplace, replaced)
	c.countEviction(EvictLRU, evicted)
	return true
}

// Stats is the healthz snapshot. Every number reads the same storage
// the metrics exposition reports.
type Stats struct {
	Entries           int64 `json:"entries"`
	Bytes             int64 `json:"bytes"`
	MaxEntries        int   `json:"max_entries"`
	MaxBytes          int64 `json:"max_bytes"`
	Hits              int64 `json:"hits"`
	Misses            int64 `json:"misses"`
	Evictions         int64 `json:"evictions"`
	Builds            int64 `json:"builds"`
	SingleflightWaits int64 `json:"singleflight_waits"`
}

// Stats snapshots the cache.
func (c *Cache) Stats() Stats {
	st := Stats{
		Entries:           c.entries.Load(),
		Bytes:             c.bytes.Load(),
		MaxEntries:        c.cfg.MaxEntries,
		MaxBytes:          c.cfg.MaxBytes,
		Builds:            c.cBuilds.Value(),
		SingleflightWaits: c.cSFWaits.Value(),
	}
	for o, ctr := range c.cOutcomes {
		n := ctr.Value()
		if o.Hit() {
			st.Hits += n
		} else if o == OutcomeMiss {
			st.Misses += n
		}
	}
	for _, cause := range evictCauses {
		st.Evictions += int64(c.reg.Value(MetricEvictions, "cause", cause))
	}
	return st
}

// flight is one in-progress singleflight build.
type flight struct {
	done  chan struct{}
	entry *Entry
	err   error
}

// doFlight runs build once per key among concurrent callers. The
// second return reports whether this caller led the build. Followers
// abandon the wait when their own context dies; the leader's result is
// still recorded for everyone else.
func (c *Cache) doFlight(ctx context.Context, key string, build func() (*Entry, error)) (*Entry, bool, error) {
	c.flightMu.Lock()
	if f, ok := c.flights[key]; ok {
		c.flightMu.Unlock()
		c.cSFWaits.Inc()
		select {
		case <-f.done:
			return f.entry, false, f.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.flightMu.Unlock()

	c.cBuilds.Inc()
	defer func() {
		// The build closures run with panic boundaries below them, but a
		// stuck flight would wedge every future request for the key —
		// release it even on a panic escaping the caller's stack.
		c.flightMu.Lock()
		delete(c.flights, key)
		c.flightMu.Unlock()
		close(f.done)
	}()
	f.entry, f.err = build()
	return f.entry, true, f.err
}

// maxLeaderRetries bounds how many dead leaders a follower outlives
// before it builds its own result.
const maxLeaderRetries = 3

// Key is the request key: everything that decides a response's bytes,
// and the only place a key is written. schema identifies the schema
// (its full rendering, or a catalog name where config covers the
// catalog); simplify and keepExists are the option flags that change
// the artifact; config fingerprints the limits (and, for a server, the
// schema catalog) the build runs under; sql is the literal text. The verify mode is not
// part of the key: an entry records the status its build earned, and
// each lookup states the proof it needs (see GetOrBuild).
func Key(schema string, simplify, keepExists bool, config, sql string) string {
	flags := byte('0')
	if simplify {
		flags |= 1
	}
	if keepExists {
		flags |= 2
	}
	return schema + "\x00" + string(flags) + "\x00" + config + "\x00" + sql
}

// GetOrBuild is the one serve flow. build runs the caller's pipeline,
// keeps the caller's own result, and returns the cache entry of a
// cacheable result, or nil for one that may not be cached.
//
//   - With a nil cache, or bypass set (the request carries an injected
//     fault, which must neither be masked by cached bytes nor poison
//     them), build runs and nothing is looked up or inserted.
//   - A resident entry acceptable to the caller is a hit: no build runs.
//   - Otherwise one singleflight leader per key runs build and inserts
//     its entry; followers are served that entry. A follower whose
//     leader's build was uncacheable, or that outlived maxLeaderRetries
//     dead leaders, runs build itself.
//
// flightClass partitions singleflight by verification mode so a strict
// caller's hard failure is never replayed onto a degrade caller. The
// entry is non-nil on a hit or a miss; on any other outcome the caller
// serves the result its own build kept, or the error.
func (c *Cache) GetOrBuild(
	ctx context.Context,
	key, flightClass string,
	wantVerified, bypass bool,
	build func(context.Context) (*Entry, error),
) (*Entry, Outcome, error) {
	if c == nil || bypass {
		if c != nil {
			c.countOutcome(OutcomeBypass)
		}
		_, err := build(ctx)
		return nil, OutcomeBypass, err
	}
	for attempt := 0; ; attempt++ {
		if e, ok := c.Get(key, wantVerified); ok {
			c.countOutcome(OutcomeHit)
			return e, OutcomeHit, nil
		}
		if attempt > maxLeaderRetries {
			break
		}
		e, led, err := c.doFlight(ctx, key+"\x00"+flightClass, func() (*Entry, error) {
			return c.buildInsert(ctx, key, build)
		})
		if led {
			return c.settle(e, err)
		}
		if err == nil && e != nil {
			c.countOutcome(OutcomeHitFlight)
			return e, OutcomeHitFlight, nil
		}
		if err == nil {
			break // the leader's build was uncacheable
		}
		if ctx.Err() == nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			// The leader's own context died mid-build; this follower is
			// alive and can lead the next round.
			continue
		}
		c.countOutcome(OutcomeUncacheable)
		return nil, OutcomeUncacheable, err
	}
	return c.settle(c.buildInsert(ctx, key, build))
}

// buildInsert runs build and inserts the entry it returns, if any.
func (c *Cache) buildInsert(ctx context.Context, key string, build func(context.Context) (*Entry, error)) (*Entry, error) {
	e, err := build(ctx)
	if err == nil && e != nil {
		c.Put(key, e)
	}
	return e, err
}

// settle counts the outcome of a build this caller ran: a miss when it
// produced an entry, uncacheable otherwise.
func (c *Cache) settle(e *Entry, err error) (*Entry, Outcome, error) {
	if err != nil || e == nil {
		c.countOutcome(OutcomeUncacheable)
		return nil, OutcomeUncacheable, err
	}
	c.countOutcome(OutcomeMiss)
	return e, OutcomeMiss, nil
}
