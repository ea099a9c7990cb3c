// Test harness plumbing for the worker pool: the pool spawns real child
// processes, and the only binary a test reliably has on disk is itself —
// so TestMain diverts re-executions of the test binary into the worker
// loop before the testing framework takes over. The tests below
// therefore exercise genuine process isolation: real pipes, real
// SIGKILLs, real respawns, no fakes.
package workerpool_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime/debug"
	"strconv"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/server"
	"repro/internal/workerpool"
)

// Environment contract between the parent tests and their re-executed
// children. MAXSTACK and UNLIMITED exist for the crash-containment test:
// a worker with a tiny stack limit serving unlimited-depth queries dies
// of genuine stack exhaustion, not a simulated one.
const (
	envWorker    = "QUERYVIS_WORKERPOOL_TEST_WORKER"
	envMaxStack  = "QUERYVIS_WORKERPOOL_TEST_MAXSTACK"
	envUnlimited = "QUERYVIS_WORKERPOOL_TEST_UNLIMITED"
)

func TestMain(m *testing.M) {
	if os.Getenv(envWorker) == "1" {
		runTestWorker()
		return
	}
	os.Exit(m.Run())
}

func runTestWorker() {
	if v := os.Getenv(envMaxStack); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			debug.SetMaxStack(n)
		}
	}
	cfg := server.Config{Unlimited: os.Getenv(envUnlimited) == "1"}
	if err := workerpool.RunWorker(os.Stdin, os.Stdout, server.Worker(cfg), workerpool.RunOptions{
		AllowFaults: true,
	}); err != nil {
		os.Exit(1)
	}
	os.Exit(0)
}

// spawnSelf builds a pool spawn function that re-executes this test
// binary as a worker, with optional extra environment entries.
func spawnSelf(extraEnv ...string) func() (*exec.Cmd, error) {
	return func() (*exec.Cmd, error) {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), envWorker+"=1")
		cmd.Env = append(cmd.Env, extraEnv...)
		return cmd, nil
	}
}

// newPool builds a pool with test-friendly defaults (fast backoff, self
// re-exec spawn) and registers a drain on cleanup.
func newPool(t *testing.T, cfg workerpool.Config) *workerpool.Pool {
	t.Helper()
	if cfg.Spawn == nil {
		cfg.Spawn = spawnSelf()
	}
	if cfg.BackoffBase == 0 {
		cfg.BackoffBase = 20 * time.Millisecond
	}
	if cfg.BackoffMax == 0 {
		cfg.BackoffMax = 300 * time.Millisecond
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 5 * time.Second
	}
	p, err := workerpool.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := p.Close(ctx); err != nil {
			t.Errorf("pool close: %v", err)
		}
	})
	return p
}

// diagramBody renders the /v1/diagram request body for sql on the beers
// schema.
func diagramBody(sql string) []byte {
	b, _ := json.Marshal(map[string]any{"sql": sql, "schema": "beers"})
	return b
}

// job encodes a pipeline job for sql on the beers schema in the wire
// form server.Worker decodes: a DOT diagram, or the interpretation, with
// an optional injected fault plan.
func job(sql string, interpret bool, faultSeed *int64) []byte {
	j := map[string]any{
		"req":       map[string]any{"sql": sql, "schema": "beers", "format": "dot"},
		"interpret": interpret,
	}
	if faultSeed != nil {
		j["fault_seed"] = *faultSeed
	}
	b, _ := json.Marshal(j)
	return b
}

// reply is the part of a worker's outcome these tests read. Status is
// the outcome's HTTP status, 200 for a success.
type reply struct {
	Status  int `json:"status"`
	Diagram *struct {
		Format  string `json:"format"`
		Diagram string `json:"diagram"`
	} `json:"diagram"`
	Interpret *struct {
		TRC string `json:"trc"`
	} `json:"interpret"`
	Error *struct {
		Category string `json:"category"`
	} `json:"error"`
}

// do dispatches one request through the pool and decodes the outcome.
func do(ctx context.Context, p *workerpool.Pool, req workerpool.Request) (*reply, error) {
	resp, err := p.Do(ctx, req)
	if err != nil {
		return nil, err
	}
	var r reply
	if err := json.Unmarshal(resp.Outcome, &r); err != nil {
		return nil, fmt.Errorf("outcome %.120s: %w", resp.Outcome, err)
	}
	if r.Error == nil {
		r.Status = 200
	}
	return &r, nil
}

// doDiagram dispatches one diagram job through the pool, with an
// injected worker fault when fault is not empty.
func doDiagram(ctx context.Context, p *workerpool.Pool, sql string, fault faults.WorkerFault) (*reply, error) {
	return do(ctx, p, workerpool.Request{Job: job(sql, false, nil), Fault: string(fault)})
}

// qSome is a known-good paper query (Fig. 3a).
const qSome = `SELECT F.person FROM Frequents F, Likes L, Serves S
WHERE F.person = L.person AND F.bar = S.bar AND L.drink = S.drink`

// deepQuery nests NOT EXISTS blocks depth levels — within the parser's
// hard cap but deep enough to exhaust a worker whose stack was pinned
// small by the crash-containment test.
func deepQuery(depth int) string {
	sql := "SELECT L0.drinker FROM Likes L0 WHERE "
	for i := 1; i <= depth; i++ {
		sql += fmt.Sprintf("NOT EXISTS (SELECT * FROM Likes L%d WHERE L%d.drinker = L%d.drinker AND ", i, i, i-1)
	}
	sql += fmt.Sprintf("L%d.beer = L%d.beer", depth, depth)
	for i := 0; i < depth; i++ {
		sql += ")"
	}
	return sql
}
