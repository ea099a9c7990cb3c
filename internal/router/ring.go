// Consistent-hash ring. Each backend instance owns ringReplicas virtual
// points on a uint32 circle; a key routes to the first point at or
// clockwise of its hash, and the ring's walk order from that point
// (deduplicated by instance) is the key's failover preference list.
// Virtual points keep the load split even when instances join or leave,
// and make a key's preference list stable: killing one instance moves
// only that instance's keys, everyone else's cache affinity survives.
//
// Vnode placement is keyed by the member's stable identity (its URL),
// never its slice position: live membership rebuilds the ring with a
// different member list, and an index-keyed ring would re-place every
// surviving instance's points on removal — moving nearly every key for
// a one-instance change. Identity-keyed points guarantee the minimal-
// movement property the membership tests pin down: a join moves only
// the ~K/(N+1) keys the newcomer wins, a removal only the departed
// instance's own keys.
package router

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// ringReplicas is the number of virtual ring points per instance.
const ringReplicas = 64

type ringPoint struct {
	hash uint32
	idx  int // index into the member list the ring was built from
}

type ring struct {
	points []ringPoint
	n      int // distinct instances
}

// newRing places replicas points per member, sorted by hash. Point
// hashes depend only on the member id, so a member's placement is
// identical in every ring that contains it. Ties are broken by member
// index so construction is deterministic.
func newRing(members []string, replicas int) *ring {
	r := &ring{points: make([]ringPoint, 0, len(members)*replicas), n: len(members)}
	for i, id := range members {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{hash: hash32([]byte(id + "#" + strconv.Itoa(v))), idx: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].idx < r.points[b].idx
	})
	return r
}

// start indexes key hash h's owner point; the ring must not be empty.
func (r *ring) start(h uint32) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	return i % len(r.points)
}

// order returns the instance preference of key hash h: the owner first,
// then each distinct instance met walking clockwise. Every instance
// appears exactly once, so the list is also the failover schedule. An
// empty ring yields nil.
func (r *ring) order(h uint32) []int {
	if len(r.points) == 0 {
		return nil
	}
	start := r.start(h)
	out := make([]int, 0, r.n)
	seen := make([]bool, r.n)
	for i := 0; i < len(r.points) && len(out) < r.n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.idx] {
			seen[p.idx] = true
			out = append(out, p.idx)
		}
	}
	return out
}

// keyHash is a request body's ring position: hash32 of the hex form of
// its 64-bit FNV-1a hash. A miss computes it once, without allocating,
// for its ring order, and the cache entry it stores keeps it for the
// owner checks of later hits.
func keyHash(body []byte) uint32 {
	h := fnv.New64a()
	_, _ = h.Write(body)
	var hex [16]byte
	return hash32(strconv.AppendUint(hex[:0], h.Sum64(), 16))
}

func hash32(b []byte) uint32 {
	h := fnv.New32a()
	_, _ = h.Write(b)
	return mix32(h.Sum32())
}

// mix32 is a bijective finalizer (Prospecting-for-Hash-Functions
// constants) applied on top of FNV-1a. Raw FNV of short keys like
// "host#13" keeps additive structure — instance i's vnode hashes land
// at near-constant offsets from instance 0's — which lines the ring up
// so one survivor inherits nearly all of a dead instance's keys. The
// finalizer destroys that correlation so failover load actually
// spreads.
func mix32(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x
}
