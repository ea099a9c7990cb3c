package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	queryvis "repro"
	"repro/internal/corpus"
	"repro/internal/quarantine"
)

// TestReplayCheckedInCorpus: the corpus shipped with the repo must
// replay clean — this is the same invariant the CI smoke enforces.
func TestReplayCheckedInCorpus(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "quarantine")
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("checked-in corpus missing: %v", err)
	}
	code, out := capture(t, []string{"-replay", dir, "-timeout", "30s"})
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "0 divergent") {
		t.Fatalf("unexpected report:\n%s", out)
	}
}

// TestReplayDivergenceExitsNonzero: an entry whose recorded status no
// longer matches reality (and which does not verify either) must fail
// the run.
func TestReplayDivergenceExitsNonzero(t *testing.T) {
	dir := t.TempDir()
	st, err := quarantine.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 3's flat query verifies today; recording it as a mismatch is
	// "fixed", not divergence — so first confirm the benign direction...
	if _, _, err := st.Add(quarantine.Entry{
		Stage:  queryvis.VerifyStatusMismatch,
		Schema: "beers",
		SQL:    quarantine.ScrubSQL(corpus.Fig3QSome),
		Status: queryvis.VerifyStatusMismatch,
	}); err != nil {
		t.Fatal(err)
	}
	code, out := capture(t, []string{"-replay", dir})
	if code != 0 || !strings.Contains(out, "1 fixed") {
		t.Fatalf("fixed entry: exit %d\n%s", code, out)
	}

	// ...then the divergent one: a degenerate query, whose diagram admits
	// no tree, recorded as a mismatch replays ambiguous — it neither
	// reproduces nor verifies.
	if _, _, err := st.Add(quarantine.Entry{
		Stage:  queryvis.VerifyStatusMismatch,
		Schema: "beers",
		SQL:    quarantine.ScrubSQL(`SELECT F.person FROM Frequents F WHERE NOT EXISTS (SELECT * FROM Serves S WHERE S.bar = 'Owl')`),
		Status: queryvis.VerifyStatusMismatch,
	}); err != nil {
		t.Fatal(err)
	}
	code, out = capture(t, []string{"-replay", dir})
	if code != 1 || !strings.Contains(out, "DIVERGENT") {
		t.Fatalf("divergent entry: exit %d\n%s", code, out)
	}
}

// TestReplayMissingDir: unreadable corpus is a usage error (2), not a
// divergence.
func TestReplayMissingDir(t *testing.T) {
	if code, _ := capture(t, []string{"-replay", filepath.Join(t.TempDir(), "nope")}); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}
