package router

import (
	"fmt"
	"testing"
)

// ringMembers fabricates n stable member identities.
func ringMembers(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://10.0.0.%d:8080", i+1)
	}
	return out
}

// TestRingOrderIsDeterministicAndComplete: a key's preference list is
// stable across calls and across ring rebuilds, and names every
// instance exactly once — it must double as the failover schedule.
func TestRingOrderIsDeterministicAndComplete(t *testing.T) {
	r1 := newRing(ringMembers(5), 64)
	r2 := newRing(ringMembers(5), 64)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("pattern-%d", i)
		a, b := r1.order(hash32([]byte(key))), r2.order(hash32([]byte(key)))
		if len(a) != 5 {
			t.Fatalf("key %q: order has %d entries, want 5", key, len(a))
		}
		seen := map[int]bool{}
		for j, idx := range a {
			if idx < 0 || idx >= 5 || seen[idx] {
				t.Fatalf("key %q: bad or repeated instance %d in %v", key, idx, a)
			}
			seen[idx] = true
			if b[j] != idx {
				t.Fatalf("key %q: rebuild changed order %v vs %v", key, a, b)
			}
		}
	}
}

// TestRingSpreadsKeys: with virtual nodes, no instance owns a wildly
// disproportionate share of random keys.
func TestRingSpreadsKeys(t *testing.T) {
	const instances, keys = 4, 4000
	r := newRing(ringMembers(instances), 64)
	owners := make([]int, instances)
	for i := 0; i < keys; i++ {
		owners[r.order(hash32([]byte(fmt.Sprintf("k-%d", i))))[0]]++
	}
	for idx, n := range owners {
		// Perfect balance is 1000 each; 64 vnodes keeps every instance
		// within a loose 2.5x band. The assertion guards against gross
		// placement bugs (all keys on one instance), not statistics.
		if n < keys/instances/4 || n > keys*5/instances/2 {
			t.Fatalf("instance %d owns %d of %d keys: %v", idx, n, keys, owners)
		}
	}
}

// TestRingFailoverSpreads: when an instance dies, its keys must not
// all dump onto one successor — virtual nodes scatter each dead
// instance's keyspace across the survivors, which is the property that
// keeps a one-instance kill from cascading into a two-instance
// overload.
func TestRingFailoverSpreads(t *testing.T) {
	const instances, keys = 4, 4000
	r := newRing(ringMembers(instances), 64)
	const down = 2
	successors := make([]int, instances)
	orphans := 0
	for i := 0; i < keys; i++ {
		order := r.order(hash32([]byte(fmt.Sprintf("k-%d", i))))
		if order[0] != down {
			continue
		}
		orphans++
		successors[order[1]]++
	}
	if orphans < keys/instances/4 {
		t.Fatalf("instance %d owned only %d keys; spread test has no power", down, orphans)
	}
	for idx, n := range successors {
		if idx == down {
			continue
		}
		if n == 0 {
			t.Fatalf("survivor %d inherited none of instance %d's %d keys: %v",
				idx, down, orphans, successors)
		}
		if n > orphans*3/4 {
			t.Fatalf("survivor %d inherited %d of %d orphaned keys — failover is not spreading: %v",
				idx, n, orphans, successors)
		}
	}
}

// TestRingJoinMovesOnlyNewcomersKeys is the membership-math property
// behind live joins: growing an N-instance ring by one moves a key iff
// the newcomer wins it, so at most ~K/(N+1) keys rehash (bounded with
// statistical slack) and every moved key moves TO the new instance —
// survivors never shuffle keys among themselves, which is what keeps
// their diagram caches warm through a scale-up.
func TestRingJoinMovesOnlyNewcomersKeys(t *testing.T) {
	const keys = 20000
	for _, n := range []int{1, 2, 3, 4, 8} {
		base := ringMembers(n)
		grown := append(append([]string{}, base...), "http://10.0.9.99:8080")
		r1, r2 := newRing(base, 64), newRing(grown, 64)
		moved := 0
		for i := 0; i < keys; i++ {
			key := fmt.Sprintf("pattern-%d", i)
			before := base[r1.order(hash32([]byte(key)))[0]]
			after := grown[r2.order(hash32([]byte(key)))[0]]
			if before == after {
				continue
			}
			moved++
			if after != grown[n] {
				t.Fatalf("n=%d key %q moved %s -> %s, not to the joining instance",
					n, key, before, after)
			}
		}
		// Expected movement is keys/(n+1); vnode placement noise stays
		// well inside 1.5x of that with 64 vnodes. Also require movement
		// happened at all: a ring that never rehashes is not balancing.
		bound := keys*3/(2*(n+1)) + keys/100
		if moved == 0 || moved > bound {
			t.Fatalf("n=%d: join moved %d of %d keys, want (0, %d]", n, moved, keys, bound)
		}
		t.Logf("n=%d: join moved %d/%d keys (ideal %d, bound %d)", n, moved, keys, keys/(n+1), bound)
	}
}

// TestRingRemovalMovesOnlyDepartedKeys: shrinking the ring moves a key
// iff the departed instance owned it — the removal mirror of the join
// property.
func TestRingRemovalMovesOnlyDepartedKeys(t *testing.T) {
	const keys, n = 20000, 5
	members := ringMembers(n)
	const gone = 2
	shrunk := append(append([]string{}, members[:gone]...), members[gone+1:]...)
	r1, r2 := newRing(members, 64), newRing(shrunk, 64)
	moved, owned := 0, 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("pattern-%d", i)
		before := members[r1.order(hash32([]byte(key)))[0]]
		after := shrunk[r2.order(hash32([]byte(key)))[0]]
		if before == members[gone] {
			owned++
			continue // orphaned keys must move somewhere; any survivor is fine
		}
		if before != after {
			moved++
			t.Errorf("key %q moved %s -> %s though its owner survived", key, before, after)
		}
	}
	if owned < keys/n/2 {
		t.Fatalf("departed instance owned only %d keys; test has no power", owned)
	}
	if moved > 0 {
		t.Fatalf("%d surviving-owner keys moved on an unrelated removal", moved)
	}
}
