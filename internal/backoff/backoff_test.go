package backoff

import (
	"math/rand"
	"testing"
	"time"
)

// callers pins each user's ladder: its base and cap, and the ladder the
// old per-package code produced from them.
var callers = []struct {
	name      string
	base, max time.Duration
	ladder    []time.Duration // Delay(1), Delay(2), … and Next from zero
}{
	{"client defaults", 50 * time.Millisecond, 2 * time.Second, []time.Duration{
		50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, 1600 * time.Millisecond, 2 * time.Second, 2 * time.Second}},
	{"router instance client", 25 * time.Millisecond, 250 * time.Millisecond, []time.Duration{
		25 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond,
		250 * time.Millisecond, 250 * time.Millisecond}},
	{"workerpool respawn", 100 * time.Millisecond, 5 * time.Second, []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond, 800 * time.Millisecond,
		1600 * time.Millisecond, 3200 * time.Millisecond, 5 * time.Second, 5 * time.Second}},
	{"fleet respawn", 200 * time.Millisecond, 5 * time.Second, []time.Duration{
		200 * time.Millisecond, 400 * time.Millisecond, 800 * time.Millisecond, 1600 * time.Millisecond,
		3200 * time.Millisecond, 5 * time.Second, 5 * time.Second}},
}

func TestCallerLadders(t *testing.T) {
	for _, c := range callers {
		p := Policy{Base: c.base, Max: c.max}
		cur := time.Duration(0)
		for i, want := range c.ladder {
			if got := p.Delay(i + 1); got != want {
				t.Errorf("%s: Delay(%d) = %v, want %v", c.name, i+1, got, want)
			}
			cur = p.Next(cur)
			if cur != want {
				t.Errorf("%s: step %d of Next = %v, want %v", c.name, i+1, cur, want)
			}
		}
		if got := p.Delay(200); got != c.max {
			t.Errorf("%s: Delay(200) = %v, want the cap %v", c.name, got, c.max)
		}
	}
}

// TestJitterDraw: every draw lies in [d/2, d], and a seeded Rand draws
// exactly what the callers' own seeded sources drew before (half plus
// Int63n(half+1)), so seeded schedules replay unchanged.
func TestJitterDraw(t *testing.T) {
	const seed = 7
	r := NewRand(seed)
	old := rand.New(rand.NewSource(seed))
	for _, c := range callers {
		for _, d := range c.ladder {
			for i := 0; i < 50; i++ {
				got := r.Jitter(d)
				if want := d/2 + time.Duration(old.Int63n(int64(d/2)+1)); got != want {
					t.Fatalf("%s: seeded Jitter(%v) = %v, the old draw was %v", c.name, d, got, want)
				}
				if g := Jitter(d); g < d/2 || g > d {
					t.Fatalf("%s: Jitter(%v) = %v outside [%v, %v]", c.name, d, g, d/2, d)
				}
			}
		}
	}
	if got := r.Jitter(0); got != 0 {
		t.Fatalf("Jitter(0) = %v, want 0", got)
	}
}
