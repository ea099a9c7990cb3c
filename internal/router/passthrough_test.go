// Regression: an instance-originated 429 must survive the failover
// path unchanged. The router deliberately retries a shed request onto
// the ring — the shedding instance's neighbors may have capacity — but
// when every other candidate fails at the transport level, the honest
// answer is the instance's own 429 with its better-informed Retry-After,
// not a router-minted 503 that masks the fleet's backpressure and
// misprices the client's retry.
package router_test

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/leak"
	"repro/internal/router"
	"repro/internal/telemetry"
)

// deadBackendURL returns a URL whose port was just released: connecting
// to it fails fast with ECONNREFUSED — a pure transport failure.
func deadBackendURL(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()
	_ = ln.Close()
	return url
}

func TestShedRetryAfterSurvivesFailover(t *testing.T) {
	t.Cleanup(leak.Check(t))

	// One saturated instance that always sheds with a distinctive
	// Retry-After, plus two dead members whose transport failures force
	// the failover schedule to run dry.
	shedder := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":{"category":"overloaded","message":"all workers busy; retry later"}}`)
	}))
	t.Cleanup(shedder.Close)

	rt, err := router.New(router.Config{
		Backends:       []string{shedder.URL, deadBackendURL(t), deadBackendURL(t)},
		HealthInterval: time.Hour, // no probes mid-test
		ProbeDownAfter: 100,       // nor do forwarded failures take a member down
		Metrics:        telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)

	// Distinct bodies land on distinct ring orders, so across the batch
	// the shedder occupies first, middle, and last failover positions —
	// the pass-through must hold in all of them.
	for i := 0; i < 8; i++ {
		body := diagramReq(fmt.Sprintf("%s AND F.person = 'p%d'", qSome, i))
		st, hdr, raw := postJSON(t, front.URL+"/v1/diagram", body)
		if st != http.StatusTooManyRequests {
			t.Fatalf("body %d: status = %d, want the instance's 429 passed through\n%s", i, st, raw)
		}
		if got := hdr.Get("Retry-After"); got != "7" {
			t.Fatalf("body %d: Retry-After = %q, want the instance's %q", i, got, "7")
		}
	}
}
