package quarantine

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	queryvis "repro"
	"repro/internal/corpus"
	"repro/internal/faults"
)

func TestScrubSQL(t *testing.T) {
	cases := []struct{ in, want string }{
		{
			"SELECT * FROM T WHERE x = 'secret'",
			"SELECT * FROM T WHERE x = 's1'",
		},
		{
			// Equality preserved: repeated literal gets one name, distinct
			// literals distinct names.
			"WHERE a = 'p' AND b = 'p' AND c = 'q'",
			"WHERE a = 's1' AND b = 's1' AND c = 's2'",
		},
		{
			// Doubled-quote escape stays inside one literal.
			"WHERE a = 'it''s' AND b = 'x'",
			"WHERE a = 's1' AND b = 's2'",
		},
		{
			// Unterminated literal is kept verbatim, not mangled.
			"WHERE a = 'oops",
			"WHERE a = 'oops",
		},
		{
			"SELECT x FROM T", // no literals: unchanged
			"SELECT x FROM T",
		},
	}
	for _, tc := range cases {
		if got := ScrubSQL(tc.in); got != tc.want {
			t.Errorf("ScrubSQL(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
	// Scrubbing is idempotent on its own output.
	out := ScrubSQL("WHERE a = 'x' AND b = 'y'")
	if again := ScrubSQL(out); again != out {
		t.Errorf("not idempotent: %q -> %q", out, again)
	}
}

func testEntry(stage, sql string) Entry {
	return Entry{
		Stage:  stage,
		Schema: "beers",
		SQL:    ScrubSQL(sql),
		Status: stage,
		Detail: "test entry",
	}
}

func TestStoreDedup(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry("mismatch", corpus.Fig1UniqueSet)
	k1, added, err := s.Add(e)
	if err != nil || !added {
		t.Fatalf("first add: key %s added %v err %v", k1, added, err)
	}
	// Same pattern, different literal spellings: still one entry.
	e2 := e
	e2.Detail = "later occurrence"
	k2, added, err := s.Add(e2)
	if err != nil {
		t.Fatal(err)
	}
	if added || k2 != k1 {
		t.Fatalf("duplicate added (key %s vs %s)", k2, k1)
	}
	// A different stage is a different entry.
	e3 := e
	e3.Stage = "budget_exhausted"
	if _, added, _ := s.Add(e3); !added {
		t.Fatal("distinct stage deduped")
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 2 || st.Added != 2 || st.Deduped != 1 {
		t.Fatalf("stats = %+v, want 2 entries, 2 added, 1 deduped", st)
	}
	// No temp droppings.
	ents, _ := os.ReadDir(s.Dir())
	for _, de := range ents {
		if strings.HasPrefix(de.Name(), ".tmp-") {
			t.Fatalf("leftover temp file %s", de.Name())
		}
	}
}

func TestStoreEviction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 2048)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now().Add(-time.Hour)
	var keys []string
	for i := 0; i < 8; i++ {
		// Structurally distinct queries: scrubbing normalizes literals, so
		// dedup must be dodged via the shape, not the values.
		e := testEntry("mismatch", fmt.Sprintf(
			"SELECT L.drinker FROM Likes L WHERE L.col%d = 'b' AND L.pad = '%s'",
			i, strings.Repeat("x", 64)))
		e.Detail = strings.Repeat("d", 256) // make each file big enough to overflow
		k, added, err := s.Add(e)
		if err != nil || !added {
			t.Fatalf("add %d: %v added=%v", i, err, added)
		}
		keys = append(keys, k)
		// Deterministic age order regardless of filesystem timestamp
		// granularity.
		path := filepath.Join(dir, k+".json")
		when := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(path, when, when); err != nil {
			t.Fatal(err)
		}
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Bytes > 2048+600 { // newest entry is never evicted, slight overshoot ok
		t.Fatalf("store holds %d bytes, bound 2048", st.Bytes)
	}
	if st.Evicted == 0 {
		t.Fatal("nothing evicted")
	}
	// The newest entry must have survived.
	if _, err := os.Stat(filepath.Join(dir, keys[len(keys)-1]+".json")); err != nil {
		t.Fatalf("newest entry evicted: %v", err)
	}
	// The oldest must be gone.
	if _, err := os.Stat(filepath.Join(dir, keys[0]+".json")); !os.IsNotExist(err) {
		t.Fatalf("oldest entry still present (err %v)", err)
	}
}

func TestLoadSkipsTornFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Add(testEntry("mismatch", corpus.Fig1UniqueSet)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "torn-entry.json"), []byte(`{"stage":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("not an entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Schema != "beers" {
		t.Fatalf("Load = %+v, want the one valid entry", got)
	}
}

// wideSQL nests no blocks but fans out boxes sibling NOT EXISTS blocks.
func wideSQL(boxes int) string {
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

// disconnectedSQL violates Property 5.2: its subquery shares no
// predicate with the outer block, so its diagram admits no tree.
const disconnectedSQL = `SELECT F.person FROM Frequents F
	WHERE NOT EXISTS (SELECT * FROM Serves S WHERE S.bar = 'Owl')`

// TestReplayBudgetEntry: an entry an older server filed as a
// budget blowout, with the budget it ran under, still loads and replays.
// The budget is ignored — the search has one fixed bound — and the wide
// query now verifies, so the outcome is Verified, not divergent.
func TestReplayBudgetEntry(t *testing.T) {
	dir := t.TempDir()
	raw := `{"stage":"budget_exhausted","schema":"beers","sql":` + strconv.Quote(ScrubSQL(wideSQL(7))) +
		`,"status":"budget_exhausted","rung":"exists_form","budget":5000,"time":"2026-01-02T03:04:05Z"}`
	if err := os.WriteFile(filepath.Join(dir, "budget_exhausted-0000000000000000.json"), []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := Load(dir)
	if err != nil || len(entries) != 1 || entries[0].Budget != 5000 {
		t.Fatalf("Load = %+v, %v; want the one entry with its budget", entries, err)
	}
	out := Replay(context.Background(), entries[0])
	if !out.Verified || out.Status != queryvis.VerifyStatusVerified || out.Divergent() {
		t.Fatalf("replay = %+v, want verified", out)
	}
}

// TestReplayFaultSeedDeterministic: an entry recorded under an injected
// fault plan replays to the identical status every time, because plans
// are pure functions of their seed.
func TestReplayFaultSeedDeterministic(t *testing.T) {
	// Find a seed whose derived plan is disruptive but fast (no delays).
	var seed int64
	for s := int64(1); ; s++ {
		p := faults.NewPlan(s)
		bad, slow := 0, false
		for _, f := range p.Faults {
			switch f.Action {
			case faults.ActError, faults.ActPanic:
				bad++
			case faults.ActDelay:
				slow = true
			}
		}
		if bad > 0 && !slow {
			seed = s
			break
		}
	}
	// First run records the ground-truth status for this seed.
	first := Replay(context.Background(), Entry{
		Schema:    "beers",
		SQL:       ScrubSQL(corpus.Fig1UniqueSet),
		FaultSeed: seed,
	})
	e := Entry{
		Stage:     first.Status,
		Schema:    "beers",
		SQL:       ScrubSQL(corpus.Fig1UniqueSet),
		Status:    first.Status,
		Rung:      first.Rung,
		FaultSeed: seed,
	}
	for i := 0; i < 3; i++ {
		out := Replay(context.Background(), e)
		if !out.Reproduced {
			t.Fatalf("run %d: status %q (rung %q, err %v), recorded %q",
				i, out.Status, out.Rung, out.Err, e.Status)
		}
		if out.Rung != e.Rung {
			t.Fatalf("run %d: rung %q, recorded %q", i, out.Rung, e.Rung)
		}
	}
}

// TestReplayDirRoundTrip: entries written by a Store replay through
// ReplayDir with no divergence.
func TestReplayDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	ambiguous := Entry{
		Stage:  queryvis.VerifyStatusAmbiguous,
		Schema: "beers",
		SQL:    ScrubSQL(disconnectedSQL),
		Status: queryvis.VerifyStatusAmbiguous,
	}
	if _, added, err := s.Add(ambiguous); err != nil || !added {
		t.Fatalf("add: %v added=%v", err, added)
	}
	// A healthy query filed as a mismatch models a since-fixed bug: the
	// replay must report Verified, which -replay treats as success.
	healed := Entry{
		Stage:  queryvis.VerifyStatusMismatch,
		Schema: "beers",
		SQL:    ScrubSQL(corpus.Fig3QOnly),
		Status: queryvis.VerifyStatusMismatch,
	}
	if _, added, err := s.Add(healed); err != nil || !added {
		t.Fatalf("add: %v added=%v", err, added)
	}
	outs, err := ReplayDir(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("replayed %d entries, want 2", len(outs))
	}
	for _, o := range outs {
		if o.Divergent() {
			t.Fatalf("divergent outcome: %+v", o)
		}
	}
}

// TestCrashConsistency simulates every artifact a crash can leave in the
// store — a writer killed between CreateTemp and Rename (empty, partial,
// and complete orphaned temp files) and a committed file whose contents
// never reached disk (torn or empty .json) — and asserts the corpus
// always reloads to exactly its valid committed prefix, that crash
// leftovers are swept on reopen, and that a torn committed file does not
// satisfy dedup forever.
func TestCrashConsistency(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Commit a prefix of valid entries.
	const committed = 5
	keys := map[string]bool{}
	for i := 0; i < committed; i++ {
		e := testEntry("mismatch", fmt.Sprintf("SELECT x FROM T%d WHERE a = 'v%d'", i, i))
		k, added, err := s.Add(e)
		if err != nil || !added {
			t.Fatalf("add %d: key %s added %v err %v", i, k, added, err)
		}
		keys[k] = true
	}

	// Crash shapes 1-3: a writer died before its rename. The temp file
	// may be empty, half-written, or even complete — none of them were
	// committed, so none may surface as entries.
	writeRaw := func(name string, data []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	complete := testEntry("error", "SELECT z FROM U WHERE b = 'w'")
	completeJSON := fmt.Sprintf(
		`{"stage":%q,"schema":%q,"sql":%q,"status":%q,"time":"2026-08-06T00:00:00Z"}`,
		complete.Stage, complete.Schema, complete.SQL, complete.Status)
	writeRaw(".tmp-crash-empty", nil)
	writeRaw(".tmp-crash-partial", []byte(`{"stage":"mismatch","sql":"SELECT`))
	writeRaw(".tmp-crash-complete", []byte(completeJSON))

	// Crash shape 4: a committed name whose data never hit disk — the
	// state an unsynced rename leaves after a power cut.
	torn := testEntry("panic", "SELECT y FROM T WHERE c = 'u'")
	tornPath := torn.Key() + ".json"
	writeRaw(tornPath, nil)
	// Crash shape 5: a committed name with half its bytes.
	writeRaw("mismatch-deadbeefdeadbeef.json", []byte(`{"stage":"mis`))

	// The corpus must reload to exactly the valid prefix.
	assertPrefix := func(extra int) {
		t.Helper()
		got, err := Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != committed+extra {
			t.Fatalf("Load = %d entries, want %d", len(got), committed+extra)
		}
		for _, e := range got {
			if e.SQL == "" || e.Stage == "" {
				t.Fatalf("loaded a torn entry: %+v", e)
			}
		}
	}
	assertPrefix(0)

	// Reopening must not sweep a fresh temp file (it could belong to a
	// live cross-process writer)...
	if _, err := Open(dir, 0); err != nil {
		t.Fatal(err)
	}
	if m, _ := filepath.Glob(filepath.Join(dir, ".tmp-*")); len(m) != 3 {
		t.Fatalf("fresh temp files swept early: %v", m)
	}
	// ...but once they are older than any plausible in-flight write,
	// they are crash leftovers and reopening clears them.
	old := time.Now().Add(-2 * orphanAge)
	for _, name := range []string{".tmp-crash-empty", ".tmp-crash-partial", ".tmp-crash-complete"} {
		if err := os.Chtimes(filepath.Join(dir, name), old, old); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Open(dir, 0); err != nil {
		t.Fatal(err)
	}
	if m, _ := filepath.Glob(filepath.Join(dir, ".tmp-*")); len(m) != 0 {
		t.Fatalf("aged orphan temp files survived reopen: %v", m)
	}
	assertPrefix(0)

	// A torn committed file must not block its key: re-adding the same
	// failure replaces the garbage with a real entry.
	k, added, err := s.Add(torn)
	if err != nil || !added {
		t.Fatalf("re-add over torn file: key %s added %v err %v", k, added, err)
	}
	if k+".json" != tornPath {
		t.Fatalf("re-add key %s, want %s", k+".json", tornPath)
	}
	assertPrefix(1)
	// And ordinary dedup still holds on the now-valid file.
	if _, added, _ := s.Add(torn); added {
		t.Fatal("dedup failed on repaired entry")
	}
	assertPrefix(1)
}
