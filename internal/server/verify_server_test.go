package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	queryvis "repro"
	"repro/internal/corpus"
	"repro/internal/faults"
	"repro/internal/quarantine"
)

// postFull is post plus response headers, for the X-QueryVis-* checks.
func postFull(t *testing.T, client *http.Client, url string, body any, hdr map[string]string) (int, http.Header, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatalf("encode: %v", err)
	}
	req, err := http.NewRequest(http.MethodPost, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, raw
}

// wideBeersSQL fans out sibling NOT EXISTS boxes to inflate the inverse
// search past small budgets without tripping any pipeline limit.
func wideBeersSQL(boxes int) string {
	var b strings.Builder
	b.WriteString("SELECT L0.drinker FROM Likes L0 WHERE ")
	for i := 1; i <= boxes; i++ {
		if i > 1 {
			b.WriteString(" AND ")
		}
		fmt.Fprintf(&b,
			"NOT EXISTS (SELECT * FROM Likes L%d WHERE L%d.drinker = L0.drinker AND L%d.beer = 'b%d')",
			i, i, i, i)
	}
	return b.String()
}

func diagramReq(sql, verify string) map[string]any {
	return map[string]any{"sql": sql, "schema": "beers", "verify": verify}
}

// TestVerifyRequestOption: the per-request verify field works end to
// end — verified responses carry the status in body and header, off
// keeps the historical wire shape, and junk is a 400.
func TestVerifyRequestOption(t *testing.T) {
	ts := newTestServer(t, Config{})

	st, hdr, raw := postFull(t, ts.Client(), ts.URL+"/v1/diagram",
		diagramReq(corpus.Fig1UniqueSet, "strict"), nil)
	if st != http.StatusOK {
		t.Fatalf("strict status = %d\n%s", st, raw)
	}
	var dr diagramResponse
	if err := json.Unmarshal(raw, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.VerifyStatus != queryvis.VerifyStatusVerified || dr.Degraded != "" {
		t.Fatalf("verify_status = %q degraded = %q, want verified/\"\"", dr.VerifyStatus, dr.Degraded)
	}
	if got := hdr.Get("X-QueryVis-Verify-Status"); got != queryvis.VerifyStatusVerified {
		t.Fatalf("header = %q, want verified", got)
	}
	if hdr.Get("X-QueryVis-Degraded") != "" {
		t.Fatal("healthy response carries a degraded header")
	}

	st, hdr, raw = postFull(t, ts.Client(), ts.URL+"/v1/diagram",
		diagramReq(corpus.Fig1UniqueSet, "off"), nil)
	if st != http.StatusOK {
		t.Fatalf("off status = %d\n%s", st, raw)
	}
	if strings.Contains(string(raw), "verify_status") || hdr.Get("X-QueryVis-Verify-Status") != "" {
		t.Fatalf("verify=off leaked a status:\n%s", raw)
	}

	st, _, raw = postFull(t, ts.Client(), ts.URL+"/v1/diagram",
		diagramReq(corpus.Fig1UniqueSet, "paranoid"), nil)
	if st != http.StatusBadRequest {
		t.Fatalf("bad mode status = %d\n%s", st, raw)
	}
	wantError(t, raw, CatBadRequest)
}

// verifyOnlySeed finds a fault plan that breaks exactly the verify
// stage, leaving the pipeline and the ladder healthy.
func verifyOnlySeed(t *testing.T) int64 {
	return findSeed(t, func(p *faults.Plan) bool {
		if p.Faults[faults.StageVerify].Action != faults.ActError {
			return false
		}
		for s, f := range p.Faults {
			if s != faults.StageVerify && f.Action != faults.ActNone {
				return false
			}
		}
		return true
	})
}

// TestVerifyDegradedOverHTTP: a verification fault in degrade mode
// serves the simplified rung with honest markers in body and headers.
func TestVerifyDegradedOverHTTP(t *testing.T) {
	ts := newTestServer(t, Config{})
	seed := verifyOnlySeed(t)

	st, hdr, raw := postFull(t, ts.Client(), ts.URL+"/v1/diagram",
		diagramReq(corpus.Fig1UniqueSet, "degrade"),
		map[string]string{"X-Fault-Seed": fmt.Sprint(seed)})
	if st != http.StatusOK {
		t.Fatalf("status = %d\n%s", st, raw)
	}
	var dr diagramResponse
	if err := json.Unmarshal(raw, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.VerifyStatus != queryvis.VerifyStatusError || dr.Degraded != queryvis.RungSimplified {
		t.Fatalf("verify_status=%q degraded=%q, want error/simplified", dr.VerifyStatus, dr.Degraded)
	}
	if dr.Diagram == "" || dr.Tables == 0 {
		t.Fatal("degraded diagram response is empty")
	}
	if hdr.Get("X-QueryVis-Degraded") != queryvis.RungSimplified {
		t.Fatalf("degraded header = %q", hdr.Get("X-QueryVis-Degraded"))
	}
}

// TestTRCRungOverHTTP: when diagram construction is persistently broken
// the response bottoms out at the calculus text, format "trc".
func TestTRCRungOverHTTP(t *testing.T) {
	ts := newTestServer(t, Config{})
	seed := findSeed(t, func(p *faults.Plan) bool {
		if p.Faults[faults.StageBuild].Action != faults.ActError {
			return false
		}
		for s, f := range p.Faults {
			if s != faults.StageBuild && f.Action != faults.ActNone {
				return false
			}
		}
		return true
	})

	st, _, raw := postFull(t, ts.Client(), ts.URL+"/v1/diagram",
		diagramReq(corpus.Fig1UniqueSet, "degrade"),
		map[string]string{"X-Fault-Seed": fmt.Sprint(seed)})
	if st != http.StatusOK {
		t.Fatalf("status = %d\n%s", st, raw)
	}
	var dr diagramResponse
	if err := json.Unmarshal(raw, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Format != "trc" || dr.Degraded != queryvis.RungTRC {
		t.Fatalf("format=%q degraded=%q, want trc/trc", dr.Format, dr.Degraded)
	}
	if dr.Diagram == "" || dr.Tables != 0 || len(dr.ReadingOrder) != 0 {
		t.Fatalf("trc response shape wrong: %+v", dr)
	}

	// /v1/interpret survives the same rung: calculus text, no tree.
	st, _, raw = postFull(t, ts.Client(), ts.URL+"/v1/interpret",
		diagramReq(corpus.Fig1UniqueSet, "degrade"),
		map[string]string{"X-Fault-Seed": fmt.Sprint(seed)})
	if st != http.StatusOK {
		t.Fatalf("interpret status = %d\n%s", st, raw)
	}
	var ir interpretResponse
	if err := json.Unmarshal(raw, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.TRC == "" || ir.Tree != "" || ir.Degraded != queryvis.RungTRC {
		t.Fatalf("interpret shape wrong: %+v", ir)
	}
}

// TestVerifyStrictFailureCategory: strict verification failures get
// their own error category, not a user-facing semantic 422.
func TestVerifyStrictFailureCategory(t *testing.T) {
	ts := newTestServer(t, Config{})
	seed := verifyOnlySeed(t)

	st, _, raw := postFull(t, ts.Client(), ts.URL+"/v1/diagram",
		diagramReq(corpus.Fig1UniqueSet, "strict"),
		map[string]string{"X-Fault-Seed": fmt.Sprint(seed)})
	if st != http.StatusInternalServerError {
		t.Fatalf("status = %d\n%s", st, raw)
	}
	ae := wantError(t, raw, CatVerifyFailed)
	if ae.Stage != queryvis.StageVerify {
		t.Fatalf("stage = %q", ae.Stage)
	}
}

// TestWideQueriesVerifiedOverHTTP: wide sibling queries up to the 127
// tables DefaultLimits admits are served verified with no degraded rung
// in degrade mode, and a run of them leaves the next ordinary query
// verified too: nothing in the server skips verification. healthz
// carries no breaker state.
func TestWideQueriesVerifiedOverHTTP(t *testing.T) {
	ts := newTestServer(t, Config{})
	post := func(sql string, id string) diagramResponse {
		t.Helper()
		st, hdr, raw := postFull(t, ts.Client(), ts.URL+"/v1/diagram", diagramReq(sql, "degrade"),
			map[string]string{"X-Request-ID": id})
		if st != http.StatusOK {
			t.Fatalf("status = %d\n%s", st, raw)
		}
		var dr diagramResponse
		if err := json.Unmarshal(raw, &dr); err != nil {
			t.Fatal(err)
		}
		if dr.VerifyStatus != queryvis.VerifyStatusVerified || dr.Degraded != "" || hdr.Get("X-QueryVis-Degraded") != "" {
			t.Fatalf("verify_status %q, degraded %q; want verified, none", dr.VerifyStatus, dr.Degraded)
		}
		return dr
	}
	for _, boxes := range []int{7, 12, 32, 126} {
		id := fmt.Sprintf("wide-%d", boxes)
		if dr := post(wideBeersSQL(boxes), id); dr.Tables != boxes+2 {
			t.Fatalf("%d boxes: %d diagram tables, want %d", boxes, dr.Tables, boxes+2)
		}
		_, tr := getTraces(t, ts, "?request_id="+id)
		nodes := ""
		for _, item := range tr.Traces {
			for _, sp := range item.Spans {
				if sp.Name == queryvis.StageVerify {
					nodes = sp.Attr("budget_spent")
				}
			}
		}
		if want := fmt.Sprint(boxes + 1); nodes != want {
			t.Fatalf("%d boxes: verify visited %q search nodes, want %s", boxes, nodes, want)
		}
		t.Logf("%d boxes: verified, %s search nodes", boxes, nodes)
	}
	for i := 0; i < 5; i++ {
		post(wideBeersSQL(7), "again")
	}
	post(corpus.Fig1UniqueSet, "ordinary")

	resp, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz map[string]any
	err = json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for k := range hz {
		if strings.HasPrefix(k, "breaker") {
			t.Errorf("healthz carries %q", k)
		}
	}
}

// disconnectedSQL violates Property 5.2: its subquery shares no
// predicate with the outer block, so its diagram admits no logic tree
// and degrade mode serves it flagged ambiguous.
const disconnectedSQL = `SELECT F.person FROM Frequents F
	WHERE NOT EXISTS (SELECT * FROM Serves S WHERE S.bar = 'Owl')`

// TestQuarantineOverHTTP: failing inputs land in the corpus exactly
// once however often they recur, healthz reports the store, and the
// persisted entry replays to the recorded status.
func TestQuarantineOverHTTP(t *testing.T) {
	store, err := quarantine.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Config{Quarantine: store})

	for i := 0; i < 3; i++ {
		st, _, raw := postFull(t, ts.Client(), ts.URL+"/v1/diagram", diagramReq(disconnectedSQL, "degrade"), nil)
		if st != http.StatusOK {
			t.Fatalf("status = %d\n%s", st, raw)
		}
	}
	stats, err := store.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Entries != 1 || stats.Deduped != 2 {
		t.Fatalf("stats = %+v, want exactly 1 entry, 2 deduped", stats)
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz healthzResponse
	err = json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if hz.Quarantine == nil || hz.Quarantine.Entries != 1 {
		t.Fatalf("healthz quarantine = %+v, want 1 entry", hz.Quarantine)
	}

	entries, err := store.Load()
	if err != nil || len(entries) != 1 {
		t.Fatalf("load: %v (%d entries)", err, len(entries))
	}
	e := entries[0]
	if e.Status != queryvis.VerifyStatusAmbiguous || e.Budget != 0 {
		t.Fatalf("entry = %+v, want recorded ambiguous with no budget", e)
	}
	if strings.Contains(e.SQL, "'Owl'") {
		t.Fatal("entry retains raw literals — scrubbing failed")
	}
	out := quarantine.Replay(context.Background(), e)
	if !out.Reproduced {
		t.Fatalf("replay = %+v, want faithful reproduction", out)
	}
}

// TestQuarantinePanicEntry: a contained panic files a "panic" entry
// with its fault seed, replayable deterministically.
func TestQuarantinePanicEntry(t *testing.T) {
	store, err := quarantine.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Config{Quarantine: store})
	seed := findSeed(t, func(p *faults.Plan) bool {
		if p.Faults[faults.StageBuild].Action != faults.ActPanic {
			return false
		}
		for s, f := range p.Faults {
			if s != faults.StageBuild && f.Action != faults.ActNone {
				return false
			}
		}
		return true
	})

	// verify=off: the panic boundary, not the ladder, handles this one.
	st, _, raw := postFull(t, ts.Client(), ts.URL+"/v1/diagram",
		diagramReq(corpus.Fig1UniqueSet, "off"),
		map[string]string{"X-Fault-Seed": fmt.Sprint(seed)})
	if st != http.StatusInternalServerError {
		t.Fatalf("status = %d\n%s", st, raw)
	}
	wantError(t, raw, CatInternal)

	entries, err := store.Load()
	if err != nil || len(entries) != 1 {
		t.Fatalf("load: %v (%d entries)", err, len(entries))
	}
	e := entries[0]
	if e.Stage != "panic" || e.FaultSeed != seed {
		t.Fatalf("entry = %+v, want panic stage with seed %d", e, seed)
	}
	// The recorded seed reconstructs the plan; replay in degrade mode
	// walks the ladder past the panicking build to the TRC text.
	out := quarantine.Replay(context.Background(), e)
	if out.Status != queryvis.VerifyStatusError || out.Rung != queryvis.RungTRC {
		t.Fatalf("replay = %+v, want error status served at trc rung", out)
	}
}
