package queryvis

import (
	"context"
	"flag"
	"path/filepath"
	"testing"

	"repro/internal/corpus"
	"repro/internal/faults"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkLadderGolden compares got against testdata/ladder/<name>.golden,
// rewriting the file under -update (the repo-wide golden convention).
func checkLadderGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("ladder", name+".golden")
	if want := readGolden(t, path, got); got != want {
		t.Errorf("testdata/%s: output differs from golden file (re-run with -update if the change is intended)\ngot:\n%s", path, got)
	}
}

// TestLadderGolden pins the exact artifact each degradation rung serves
// for two paper queries: the simplified-diagram rung and the ∄-form rung
// as DOT, the TRC rung as calculus text. Each rung is forced with the
// same deterministic fault plans the ladder unit tests use, so the
// goldens document precisely what a client receives at every level of
// graceful degradation.
func TestLadderGolden(t *testing.T) {
	s := beersSchema(t)
	queries := []struct{ name, sql string }{
		{"fig1_unique_set", corpus.Fig1UniqueSet},
		{"fig3_qonly", corpus.Fig3QOnly},
	}
	rungs := []struct {
		rung   string
		faults map[faults.Stage]faults.Fault
	}{
		// Verification of the primary diagram fails; the rebuilt
		// simplified diagram serves.
		{RungSimplified, map[faults.Stage]faults.Fault{
			faults.StageVerify: {Action: faults.ActError},
		}},
		// The ladder's re-simplify fails too; the unsimplified ∄-form
		// diagram serves.
		{RungExistsForm, map[faults.Stage]faults.Fault{
			faults.StageVerify: {Action: faults.ActError},
			faults.StageTree:   {Action: faults.ActError, OnCall: 2},
		}},
		// Diagram building fails persistently; the calculus text serves.
		{RungTRC, map[faults.Stage]faults.Fault{
			faults.StageBuild: {Action: faults.ActError},
		}},
	}
	for _, q := range queries {
		for _, r := range rungs {
			t.Run(q.name+"_"+r.rung, func(t *testing.T) {
				res, err := FromSQLContext(plan(r.faults), q.sql, s,
					Options{Verify: VerifyDegrade, Simplify: true})
				if err != nil {
					t.Fatalf("degrade mode errored: %v", err)
				}
				if res.Degraded != r.rung {
					t.Fatalf("rung = %q (status %q, %s), want %q",
						res.Degraded, res.VerifyStatus, res.VerifyDetail, r.rung)
				}
				var artifact string
				if r.rung == RungTRC {
					artifact = res.TRCText
				} else {
					artifact, err = res.DOTContext(context.Background(), DOTOptions{})
					if err != nil {
						t.Fatalf("render rung %q: %v", r.rung, err)
					}
				}
				checkLadderGolden(t, q.name+"_"+r.rung, artifact)
			})
		}
	}
}
