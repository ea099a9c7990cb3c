package workerpool_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/leak"
	"repro/internal/workerpool"
)

func TestPoolServesRequests(t *testing.T) {
	t.Cleanup(leak.CheckChildren(t))
	t.Cleanup(leak.Check(t))
	p := newPool(t, workerpool.Config{Workers: 2})
	ctx := context.Background()

	resp, err := doDiagram(ctx, p, qSome, "")
	if err != nil {
		t.Fatalf("diagram via pool: %v", err)
	}
	if resp.Status != 200 {
		t.Fatalf("status %d, outcome %+v", resp.Status, resp)
	}
	if body := resp.Diagram; body == nil || body.Format != "dot" || !strings.Contains(body.Diagram, "digraph") {
		t.Fatalf("unexpected diagram payload: %+v", body)
	}

	// The other endpoint rides the same protocol.
	iresp, err := do(ctx, p, workerpool.Request{Job: job(qSome, true, nil)})
	if err != nil || iresp.Status != 200 || iresp.Interpret == nil || iresp.Interpret.TRC == "" {
		t.Fatalf("interpret via pool: err %v outcome %+v", err, iresp)
	}

	// Pipeline errors are outcomes, not worker failures: a parse error
	// comes back as the worker's categorized 422, costing no worker.
	presp, err := doDiagram(ctx, p, "SELEKT nope", "")
	if err != nil {
		t.Fatalf("parse-error request: %v", err)
	}
	if presp.Status != 422 || presp.Error == nil || presp.Error.Category != "parse" {
		t.Fatalf("want categorized 422, got %d %+v", presp.Status, presp.Error)
	}
	if st := p.State(); st.Exits["crash"] != 0 {
		t.Fatalf("serving errors must not kill workers: %+v", st)
	}
}

func TestCrashFaultRetriedOnceThenSurfaced(t *testing.T) {
	t.Cleanup(leak.CheckChildren(t))
	t.Cleanup(leak.Check(t))
	p := newPool(t, workerpool.Config{Workers: 2})
	ctx := context.Background()

	// The crash header is deterministic, so the transparent retry lands
	// on a fresh worker that crashes identically: two attempts, then the
	// typed error.
	_, err := doDiagram(ctx, p, qSome, faults.WorkerFaultCrash)
	var we *workerpool.WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("want *WorkerError, got %v", err)
	}
	if we.Kind != workerpool.KindCrash || we.Attempts != 2 {
		t.Fatalf("want crash after 2 attempts, got kind=%s attempts=%d", we.Kind, we.Attempts)
	}
	st := p.State()
	if st.Retries != 1 || st.Exits["crash"] != 2 {
		t.Fatalf("want retries=1 crash-exits=2, got %+v", st)
	}

	// The pool recovers: a healthy request succeeds on respawned workers.
	resp, err := doDiagram(ctx, p, qSome, "")
	if err != nil || resp.Status != 200 {
		t.Fatalf("after crash recovery: err %v status %d", err, resp.Status)
	}
}

func TestWedgedWorkerKilledByDeadline(t *testing.T) {
	t.Cleanup(leak.CheckChildren(t))
	t.Cleanup(leak.Check(t))
	p := newPool(t, workerpool.Config{Workers: 2, RequestTimeout: 300 * time.Millisecond})

	start := time.Now()
	_, err := doDiagram(context.Background(), p, qSome, faults.WorkerFaultWedge)
	var we *workerpool.WorkerError
	if !errors.As(err, &we) || we.Kind != workerpool.KindTimeout {
		t.Fatalf("want KindTimeout, got %v", err)
	}
	// Two attempts, each bounded by the 300ms deadline — a wedged worker
	// must never hold a request hostage.
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("wedge dispatch took %v, deadline not enforced", elapsed)
	}
	if st := p.State(); st.Exits["timeout"] != 2 {
		t.Fatalf("want 2 timeout exits, got %+v", st)
	}
}

func TestGarbageOnPipeClassifiedProtocol(t *testing.T) {
	t.Cleanup(leak.CheckChildren(t))
	t.Cleanup(leak.Check(t))
	p := newPool(t, workerpool.Config{Workers: 2})

	_, err := doDiagram(context.Background(), p, qSome, faults.WorkerFaultGarbage)
	var we *workerpool.WorkerError
	if !errors.As(err, &we) || we.Kind != workerpool.KindProtocol {
		t.Fatalf("want KindProtocol, got %v", err)
	}
	if st := p.State(); st.Exits["protocol"] != 2 {
		t.Fatalf("want 2 protocol exits, got %+v", st)
	}
}

func TestRecyclingUsesCrashPath(t *testing.T) {
	t.Cleanup(leak.CheckChildren(t))
	t.Cleanup(leak.Check(t))
	p := newPool(t, workerpool.Config{Workers: 1, MaxRequestsPerWorker: 3})
	ctx := context.Background()

	for i := 0; i < 7; i++ {
		resp, err := doDiagram(ctx, p, qSome, "")
		if err != nil || resp.Status != 200 {
			t.Fatalf("request %d across recycles: err %v status %d", i, err, resp.Status)
		}
	}
	st := p.State()
	if st.Exits["recycled"] < 2 {
		t.Fatalf("want >=2 recycled exits after 7 requests at 3/worker, got %+v", st)
	}
	if st.Spawns < 3 {
		t.Fatalf("want >=3 spawns, got %+v", st)
	}
}

func TestClientCancellationKillsWorker(t *testing.T) {
	t.Cleanup(leak.CheckChildren(t))
	t.Cleanup(leak.Check(t))
	p := newPool(t, workerpool.Config{Workers: 1})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	_, err := doDiagram(ctx, p, qSome, faults.WorkerFaultWedge)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The wedged worker's pipe state is unknowable after abandonment: it
	// must have been killed, not returned to the idle set.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := p.State(); st.Exits["canceled"] == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("abandoned worker never retired: %+v", p.State())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestDrainWaitsForInflight(t *testing.T) {
	t.Cleanup(leak.CheckChildren(t))
	t.Cleanup(leak.Check(t))
	// Find a fault seed whose plan delays the parse stage: the request
	// is genuinely in flight inside the worker when the drain begins.
	delaySeed := int64(-1)
	for seed := int64(1); seed < 1_000_000; seed++ {
		if f := faults.NewPlan(seed).Faults[faults.StageParse]; f.Action == faults.ActDelay && f.Delay >= 30*time.Millisecond {
			delaySeed = seed
			break
		}
	}
	if delaySeed < 0 {
		t.Fatal("no delay seed found")
	}

	p := newPool(t, workerpool.Config{Workers: 1})

	// Warm up so the slow request below hits a live worker immediately
	// rather than spending its delay budget on spawn latency.
	if resp, err := doDiagram(context.Background(), p, qSome, ""); err != nil || resp.Status != 200 {
		t.Fatalf("warm-up: err %v resp %+v", err, resp)
	}

	type outcome struct {
		resp *reply
		err  error
	}
	slow := make(chan outcome, 1)
	go func() {
		resp, err := do(context.Background(), p, workerpool.Request{Job: job(qSome, false, &delaySeed)})
		slow <- outcome{resp, err}
	}()
	time.Sleep(10 * time.Millisecond) // let the dispatch reach the worker

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Close(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	out := <-slow
	if out.err != nil || out.resp.Status != 200 {
		t.Fatalf("in-flight request during drain: err %v resp %+v", out.err, out.resp)
	}
	// After the drain, new work is refused with the typed sentinel.
	if _, err := doDiagram(context.Background(), p, qSome, ""); !errors.Is(err, workerpool.ErrPoolClosed) {
		t.Fatalf("want ErrPoolClosed after drain, got %v", err)
	}
}

// lapsedCtx reports a deadline that has already passed while Err is
// still nil: the window between a context's deadline and its timer
// firing.
type lapsedCtx struct{ context.Context }

func (lapsedCtx) Deadline() (time.Time, bool) { return time.Now().Add(-time.Millisecond), true }

// TestLapsedDeadlineIsDeadlineExceeded: a dispatch whose deadline has
// passed before its context noticed must fail with
// context.DeadlineExceeded (the server answers 504), never (nil, nil).
// No frame is written, so the worker goes back idle instead of dying.
func TestLapsedDeadlineIsDeadlineExceeded(t *testing.T) {
	t.Cleanup(leak.CheckChildren(t))
	t.Cleanup(leak.Check(t))
	p := newPool(t, workerpool.Config{Workers: 1})
	ctx := context.Background()

	// Warm up so the lapsed dispatch finds an idle worker.
	if resp, err := doDiagram(ctx, p, qSome, ""); err != nil || resp.Status != 200 {
		t.Fatalf("warm-up: err %v resp %+v", err, resp)
	}
	resp, err := doDiagram(lapsedCtx{ctx}, p, qSome, "")
	if !errors.Is(err, context.DeadlineExceeded) || resp != nil {
		t.Fatalf("lapsed deadline: resp=%v err=%v, want nil and context.DeadlineExceeded", resp, err)
	}
	if st := p.State(); st.Spawns != 1 || st.Idle != 1 || len(st.Exits) != 0 {
		t.Fatalf("lapsed dispatch cost a worker: %+v", st)
	}
	if resp, err := doDiagram(ctx, p, qSome, ""); err != nil || resp.Status != 200 {
		t.Fatalf("after lapsed dispatch: err %v resp %+v", err, resp)
	}
}

// wellFormed checks one dispatch outcome and returns a diagnostic when
// the outcome is neither a correct response for its request nor a typed
// worker error. wantOK says whether the request's SQL was valid.
func wellFormed(resp *reply, err error, wantOK bool) string {
	if err != nil {
		var we *workerpool.WorkerError
		if !errors.As(err, &we) {
			return fmt.Sprintf("untyped dispatch error: %v", err)
		}
		if we.Kind == "" || we.Attempts < 1 {
			return fmt.Sprintf("malformed WorkerError: %+v", we)
		}
		return ""
	}
	if resp == nil {
		return "nil response with nil error"
	}
	if wantOK {
		if resp.Status != 200 || resp.Diagram == nil || !strings.Contains(resp.Diagram.Diagram, "digraph") {
			return fmt.Sprintf("valid SQL answered status %d outcome %+v", resp.Status, resp)
		}
		return ""
	}
	if resp.Status != 422 || resp.Error == nil || resp.Error.Category != "parse" {
		return fmt.Sprintf("invalid SQL answered status %d outcome %+v", resp.Status, resp)
	}
	return ""
}

// TestSaturatedCallersGetOwnAnswers saturates one worker with 96
// concurrent dispatches that alternate valid and invalid SQL: every
// caller must receive exactly the answer to its own request, so a
// crossed wire delivers a 200 to a caller expecting a parse error or
// vice versa.
func TestSaturatedCallersGetOwnAnswers(t *testing.T) {
	t.Cleanup(leak.CheckChildren(t))
	t.Cleanup(leak.Check(t))

	p := newPool(t, workerpool.Config{Workers: 1})
	ctx := context.Background()

	const n = 96
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sql, wantOK := qSome, true
			if i%3 == 0 {
				sql, wantOK = "SELEC garbage FROM nowhere", false
			}
			resp, err := doDiagram(ctx, p, sql, "")
			if err != nil {
				// No faults are injected here; nothing may fail at all.
				t.Errorf("request %d: %v", i, err)
				return
			}
			if msg := wellFormed(resp, err, wantOK); msg != "" {
				t.Errorf("request %d: %s", i, msg)
			}
		}(i)
	}
	wg.Wait()
	t.Logf("saturation: %+v", p.State())
}

// TestCrashUnderSaturation injects a deterministic crash into a
// minority of requests against a saturated one-worker pool, so poisoned
// and innocent requests queue for the same worker. Every caller must get
// exactly one well-formed outcome — its own 200 (after the transparent
// retry) or a typed WorkerError — and never a response meant for a
// neighbor.
func TestCrashUnderSaturation(t *testing.T) {
	t.Cleanup(leak.CheckChildren(t))
	t.Cleanup(leak.Check(t))

	p := newPool(t, workerpool.Config{Workers: 1})
	ctx := context.Background()

	const n = 48
	var (
		mu        sync.Mutex
		successes int
		typedErrs int
		crashErrs int
	)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var fault faults.WorkerFault
			if i%8 == 0 {
				fault = faults.WorkerFaultCrash
			}
			resp, err := doDiagram(ctx, p, qSome, fault)
			if msg := wellFormed(resp, err, true); msg != "" {
				t.Errorf("request %d: %s", i, msg)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				successes++
				return
			}
			typedErrs++
			var we *workerpool.WorkerError
			if errors.As(err, &we) && we.Kind == workerpool.KindCrash {
				crashErrs++
			}
		}(i)
	}
	wg.Wait()

	st := p.State()
	t.Logf("crash under saturation: %d ok, %d typed errors (%d crash), pool %+v",
		successes, typedErrs, crashErrs, st)
	if successes+typedErrs != n {
		t.Fatalf("accounted for %d of %d outcomes", successes+typedErrs, n)
	}
	// The poisoned requests crash their worker on both attempts, so the
	// crash kind must surface; most innocents must get their 200.
	if crashErrs == 0 {
		t.Fatal("no KindCrash surfaced despite poisoned requests")
	}
	if successes < n/2 {
		t.Fatalf("only %d/%d innocent requests ever succeeded", successes, n)
	}
	if st.Exits["crash"] == 0 {
		t.Fatalf("no crash exit recorded: %+v", st)
	}
	if st.Retries == 0 {
		t.Fatalf("crashes retried nobody: %+v", st)
	}

	// The pool converges back to healthy service.
	if resp, err := doDiagram(ctx, p, qSome, ""); err != nil || resp.Status != 200 {
		t.Fatalf("after crash storm: err %v resp %+v", err, resp)
	}
}
