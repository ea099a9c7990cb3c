// Package faults is a deterministic fault-injection harness for the
// SQL → TRC → logic-tree → diagram pipeline. The facade registers one
// injection point per pipeline stage (see Stages); a test selects which
// points misbehave — and how — by building a Plan from a seed and
// attaching it to the request context. Production requests carry no plan,
// so Fire is a single context-value lookup returning nil.
//
// Plans are pure functions of their seed: the same seed always injects
// the same faults at the same stages, which is what makes a chaos-test
// failure reproducible from its logged seed alone.
package faults

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"
)

// Stage names one pipeline injection point.
type Stage string

const (
	StageParse   Stage = "parse"
	StageResolve Stage = "resolve"
	StageConvert Stage = "convert"
	StageTree    Stage = "logictree"
	StageBuild   Stage = "build"
	StageVerify  Stage = "verify"
	StageRender  Stage = "render"
)

// Stages lists every injection point in pipeline order.
var Stages = []Stage{
	StageParse, StageResolve, StageConvert, StageTree, StageBuild,
	StageVerify, StageRender,
}

// Action is what an injection point does when fired.
type Action int

const (
	// ActNone leaves the stage untouched.
	ActNone Action = iota
	// ActError makes the stage fail with an error wrapping ErrInjected.
	ActError
	// ActPanic makes the stage panic, exercising the facade's recovery
	// boundary.
	ActPanic
	// ActDelay stalls the stage, exercising deadline and cancellation
	// handling. The stall honors context cancellation, modeling a slow but
	// cooperative stage.
	ActDelay
)

func (a Action) String() string {
	switch a {
	case ActNone:
		return "none"
	case ActError:
		return "error"
	case ActPanic:
		return "panic"
	case ActDelay:
		return "delay"
	}
	return "unknown"
}

// ErrInjected is the sentinel wrapped by every injected error.
var ErrInjected = errors.New("injected fault")

// Fault is one injection point's behavior.
type Fault struct {
	Action Action
	Delay  time.Duration // only meaningful for ActDelay
	// OnCall, when positive, restricts the fault to the n-th Fire call for
	// its stage within one plan: earlier and later calls stay healthy. The
	// degradation ladder re-fires stages it re-runs, so OnCall lets a test
	// fail, say, only the ladder's rebuild (call 2) while the pipeline's
	// original build (call 1) succeeds. 0 (the default, and what NewPlan
	// generates) fires on every call.
	OnCall int
}

// Plan assigns a Fault to each pipeline stage. The zero value injects
// nothing. A plan may be fired from one request flow at a time; the
// per-stage call counters behind OnCall are guarded for safety but the
// sequence of Fire calls must be deterministic for reproducibility.
type Plan struct {
	Seed   int64
	Faults map[Stage]Fault

	mu    sync.Mutex
	calls map[Stage]int
	fired []Stage
}

// fire returns the stage's fault if it applies to this call, counting the
// call either way.
func (p *Plan) fire(s Stage) (Fault, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.calls == nil {
		p.calls = make(map[Stage]int)
	}
	p.calls[s]++
	p.fired = append(p.fired, s)
	f, ok := p.Faults[s]
	if !ok || (f.OnCall > 0 && p.calls[s] != f.OnCall) {
		return Fault{}, false
	}
	return f, true
}

// Fired returns the stages this plan was fired at, in call order. Since
// OnCall counts calls per stage, this sequence is what a seeded outcome
// depends on: a moved or added Fire changes it.
func (p *Plan) Fired() []Stage {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Stage(nil), p.fired...)
}

// NewPlan derives a plan deterministically from seed. Roughly 70% of
// stages are left alone; the rest split between errors, panics, and
// cancellation-respecting delays of 5–45ms.
func NewPlan(seed int64) *Plan {
	rng := rand.New(rand.NewSource(seed))
	p := &Plan{Seed: seed, Faults: make(map[Stage]Fault, len(Stages))}
	for _, s := range Stages {
		switch v := rng.Float64(); {
		case v < 0.70:
			// healthy stage
		case v < 0.82:
			p.Faults[s] = Fault{Action: ActError}
		case v < 0.91:
			p.Faults[s] = Fault{Action: ActPanic}
		default:
			p.Faults[s] = Fault{
				Action: ActDelay,
				Delay:  5*time.Millisecond + time.Duration(rng.Intn(41))*time.Millisecond,
			}
		}
	}
	return p
}

// Describe renders the plan's non-trivial faults in stage order, e.g.
// "parse:panic build:delay(12ms)".
func (p *Plan) Describe() string {
	var parts []string
	for _, s := range Stages {
		f, ok := p.Faults[s]
		if !ok || f.Action == ActNone {
			continue
		}
		if f.Action == ActDelay {
			parts = append(parts, fmt.Sprintf("%s:delay(%s)", s, f.Delay))
			continue
		}
		parts = append(parts, fmt.Sprintf("%s:%s", s, f.Action))
	}
	sort.Strings(parts)
	if len(parts) == 0 {
		return "healthy"
	}
	return strings.Join(parts, " ")
}

// WorkerFault names a fault injected at the process-isolation layer —
// the supervisor/worker IPC boundary of internal/workerpool — rather
// than inside a pipeline stage. Pipeline faults exercise the facade's
// containment; worker faults exercise the supervisor's: a worker that
// dies, stops answering, or corrupts its pipe must cost one respawn and
// at most one transparently retried request, never the daemon.
type WorkerFault string

const (
	// WorkerFaultCrash makes the worker exit mid-request without
	// replying, modeling a SIGKILL, an OOM kill, or a runtime fatal error
	// (stack exhaustion) inside the compilation.
	WorkerFaultCrash WorkerFault = "crash"
	// WorkerFaultWedge makes the worker hold the request forever without
	// replying, modeling a livelocked or deadlocked child. The supervisor
	// must detect it via the dispatch deadline and SIGKILL it.
	WorkerFaultWedge WorkerFault = "wedge"
	// WorkerFaultGarbage makes the worker write bytes that are not a
	// valid protocol frame before dying, modeling pipe corruption or a
	// child that prints to stdout.
	WorkerFaultGarbage WorkerFault = "garbage"
)

// HeaderWorkerFault is the request header that carries a WorkerFault
// into the worker child. It is honored only when both the server
// (Config.AllowFaultInjection) and the worker loop
// (RunOptions.AllowFaultHeaders) opt in — chaos tests only.
const HeaderWorkerFault = "X-Worker-Fault"

// ParseWorkerFault validates a header value.
func ParseWorkerFault(s string) (WorkerFault, bool) {
	switch WorkerFault(s) {
	case WorkerFaultCrash, WorkerFaultWedge, WorkerFaultGarbage:
		return WorkerFault(s), true
	}
	return "", false
}

// WorkerFaultForSeed deterministically maps a seed to a worker fault or,
// most of the time, to none — the storm helper for kill-storm tests.
// Roughly 85% of seeds are healthy; the rest split evenly across the
// three kinds.
func WorkerFaultForSeed(seed int64) (WorkerFault, bool) {
	rng := rand.New(rand.NewSource(seed))
	switch v := rng.Float64(); {
	case v < 0.85:
		return "", false
	case v < 0.90:
		return WorkerFaultCrash, true
	case v < 0.95:
		return WorkerFaultWedge, true
	default:
		return WorkerFaultGarbage, true
	}
}

type planKey struct{}

// WithPlan attaches a fault plan to the context. Passing nil returns ctx
// unchanged.
func WithPlan(ctx context.Context, p *Plan) context.Context {
	if p == nil {
		return ctx
	}
	return context.WithValue(ctx, planKey{}, p)
}

// FromContext returns the plan attached to ctx, or nil.
func FromContext(ctx context.Context) *Plan {
	p, _ := ctx.Value(planKey{}).(*Plan)
	return p
}

// Fire triggers the injection point for stage s according to the plan on
// ctx. Without a plan (the production path) it returns nil immediately.
// With one it returns an injected error, panics, or stalls until the
// delay elapses or the context is done — whichever the plan dictates.
func Fire(ctx context.Context, s Stage) error {
	p := FromContext(ctx)
	if p == nil {
		return nil
	}
	f, ok := p.fire(s)
	if !ok {
		return nil
	}
	switch f.Action {
	case ActError:
		return fmt.Errorf("%w at stage %s (seed %d)", ErrInjected, s, p.Seed)
	case ActPanic:
		panic(fmt.Sprintf("faults: injected panic at stage %s (seed %d)", s, p.Seed))
	case ActDelay:
		t := time.NewTimer(f.Delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}
