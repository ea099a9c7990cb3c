// Harness plumbing: the router chaos tests need real queryvisd-shaped
// instances they can SIGKILL — separate processes with their own
// listeners, not httptest handlers — and the only binary a test
// reliably has on disk is itself. TestMain diverts re-executions of the
// test binary into a small instance loop: listen on an ephemeral port,
// print the address, serve the hardened handler until killed.
package router_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

const envInstance = "QUERYVIS_ROUTER_TEST_INSTANCE"

func TestMain(m *testing.M) {
	if os.Getenv(envInstance) == "1" {
		runTestInstance()
		return
	}
	os.Exit(m.Run())
}

func runTestInstance() {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// The parent scrapes this line for the ephemeral address.
	fmt.Printf("addr=%s\n", ln.Addr())
	h := server.New(server.Config{
		RequestTimeout:      5 * time.Second,
		MaxConcurrent:       64,
		CacheEntries:        256,
		AllowFaultInjection: true,
	})
	if err := http.Serve(ln, h); err != nil {
		os.Exit(1)
	}
}

// testInstance is one spawned child instance the test can kill.
type testInstance struct {
	URL  string
	cmd  *exec.Cmd
	done chan struct{}
}

// Kill SIGKILLs the instance — the chaos move — and reaps it.
func (ti *testInstance) Kill() {
	_ = ti.cmd.Process.Kill()
	<-ti.done
}

// startInstance re-executes the test binary as a live instance and
// waits for its address line.
func startInstance(t *testing.T) *testInstance {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), envInstance+"=1")
	cmd.Stderr = io.Discard
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	ti := &testInstance{cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(ti.done)
	}()
	t.Cleanup(ti.Kill)

	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "addr="); ok {
				addrc <- a
				break
			}
		}
		// Keep draining so the child never blocks on a full pipe.
		_, _ = io.Copy(io.Discard, stdout)
	}()
	select {
	case addr := <-addrc:
		ti.URL = "http://" + addr
	case <-time.After(10 * time.Second):
		t.Fatal("instance never printed its address")
	case <-ti.done:
		t.Fatal("instance died before printing its address")
	}
	return ti
}

// diagramReq builds a /v1/diagram request body for sql on the beers
// schema.
func diagramReq(sql string) map[string]any {
	return map[string]any{"sql": sql, "schema": "beers"}
}

// qSome is a known-good paper query (Fig. 3a).
const qSome = `SELECT F.person FROM Frequents F, Likes L, Serves S
WHERE F.person = L.person AND F.bar = S.bar AND L.drink = S.drink`

// postJSON is a plain one-shot POST (no retries — tests that measure
// router behavior must not have a client-side retry loop hiding it).
func postJSON(t testing.TB, url string, v any) (int, http.Header, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequestWithContext(context.Background(),
		http.MethodPost, url, strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, raw
}
