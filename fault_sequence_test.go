package queryvis

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/faults"
)

// faultSeqQuery is one paper query the fault-sequence golden runs.
type faultSeqQuery struct {
	name, sql string
	schema    *Schema
}

// faultSeqCorpus is the paper corpus: the Fig. 1 and Fig. 3 queries, the
// three Fig. 24 spellings and the nine Appendix G pattern queries.
func faultSeqCorpus(t *testing.T) []faultSeqQuery {
	beers := beersSchema(t)
	sailors, _ := SchemaByName("sailors")
	qs := []faultSeqQuery{
		{"fig1", corpus.Fig1UniqueSet, beers},
		{"fig3some", corpus.Fig3QSome, beers},
		{"fig3only", corpus.Fig3QOnly, beers},
	}
	for i, sql := range corpus.Fig24Variants() {
		qs = append(qs, faultSeqQuery{fmt.Sprintf("fig24.%d", i), sql, sailors})
	}
	for _, g := range corpus.AppendixG() {
		qs = append(qs, faultSeqQuery{"g." + g.Schema.Name + "." + g.Pattern.String(), g.SQL, g.Schema})
	}
	return qs
}

// faultSeqOptions is the option grid: verify off/degrade/strict ×
// simplify × KeepExistsBlocks.
func faultSeqOptions() []Options {
	var out []Options
	for _, mode := range []VerifyMode{VerifyOff, VerifyDegrade, VerifyStrict} {
		for _, simplify := range []bool{false, true} {
			for _, keep := range []bool{false, true} {
				out = append(out, Options{Verify: mode, Simplify: simplify, KeepExistsBlocks: keep})
			}
		}
	}
	return out
}

func optionsLabel(o Options) string {
	flag := func(on bool, c string) string {
		if on {
			return c
		}
		return "-"
	}
	return o.Verify.String() + " " + flag(o.Simplify, "S") + flag(o.KeepExistsBlocks, "K")
}

// faultSeqRequest runs one request the way the service does — the
// pipeline, then every render format of a result that has a diagram —
// under p, and describes the ordered Fire calls and the outcome.
func faultSeqRequest(p *faults.Plan, q faultSeqQuery, opts Options) string {
	ctx := faults.WithPlan(context.Background(), p)
	res, err := FromSQLContext(ctx, q.sql, q.schema, opts)
	outcome := describeOutcome(err)
	if err == nil {
		outcome = fmt.Sprintf("status=%s rung=%s", res.VerifyStatus, res.Degraded)
		if res.Diagram != nil {
			_, rerr := BuildEntryContext(ctx, res)
			outcome += " render=" + describeOutcome(rerr)
		}
	}
	fired := p.Fired()
	names := make([]string, len(fired))
	for i, s := range fired {
		names[i] = string(s)
	}
	return fmt.Sprintf("%s %s: %s -> %s", q.name, optionsLabel(opts), strings.Join(names, " "), outcome)
}

// describeOutcome names an error by its type and stage, never by its
// message (which carries seeds and stacks).
func describeOutcome(err error) string {
	var ve *VerifyError
	var ie *InternalError
	var le *LimitError
	var se *StageError
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &ve):
		return "verify:" + ve.Status
	case errors.As(err, &ie):
		return "internal:" + ie.Stage
	case errors.As(err, &le):
		return "limit:" + le.Limit
	case errors.As(err, &se):
		return "stage:" + se.Stage
	}
	return "error"
}

// zeroDelays returns NewPlan(seed) with every delay cut to zero: without
// a deadline a delay changes no outcome, only the wall time.
func zeroDelays(seed int64) *faults.Plan {
	p := faults.NewPlan(seed)
	for s, f := range p.Faults {
		if f.Action == faults.ActDelay {
			f.Delay = 0
			p.Faults[s] = f
		}
	}
	return p
}

// TestFaultSequenceGolden pins the ordered faults.Fire calls of every
// request, with the outcome they lead to. faults.Plan counts calls per
// stage (Fault.OnCall), so a Fire moved, dropped or added anywhere in the
// pipeline, the ladder or the renderers silently changes what a seeded
// chaos plan does; this test names the request it changed. The golden
// holds three parts: healthy requests over the corpus × option grid, one
// forced rung of the degradation ladder per line, and one SHA-256 per
// NewPlan seed over that seed's lines for the whole grid.
func TestFaultSequenceGolden(t *testing.T) {
	qs := faultSeqCorpus(t)
	grid := faultSeqOptions()
	var b strings.Builder

	b.WriteString("# healthy\n")
	for _, q := range qs {
		for _, o := range grid {
			b.WriteString(faultSeqRequest(&faults.Plan{}, q, o) + "\n")
		}
	}

	b.WriteString("# forced rungs\n")
	rungs := []map[faults.Stage]faults.Fault{
		// Verification fails; the top reachable rung serves.
		{faults.StageVerify: {Action: faults.ActError}},
		// The ladder's re-simplify fails too; the ∄-form rung serves.
		{faults.StageVerify: {Action: faults.ActError}, faults.StageTree: {Action: faults.ActError, OnCall: 2}},
		// Every diagram build fails; the TRC rung serves.
		{faults.StageBuild: {Action: faults.ActError}},
		// The forward tree panics, so no tree is left to rebuild.
		{faults.StageTree: {Action: faults.ActPanic}, faults.StageBuild: {Action: faults.ActError, OnCall: 2}},
	}
	for i, fs := range rungs {
		for _, q := range qs[:3] {
			for _, o := range grid {
				if o.Verify == VerifyOff {
					continue
				}
				fmt.Fprintf(&b, "rung%d %s\n", i, faultSeqRequest(&faults.Plan{Faults: fs}, q, o))
			}
		}
	}

	b.WriteString("# seeds\n")
	seedLines := map[int64][]string{}
	for seed := int64(1); seed <= 50; seed++ {
		h := sha256.New()
		for _, q := range qs {
			for _, o := range grid {
				line := faultSeqRequest(zeroDelays(seed), q, o)
				seedLines[seed] = append(seedLines[seed], line)
				fmt.Fprintln(h, line)
			}
		}
		fmt.Fprintf(&b, "seed %d %x\n", seed, h.Sum(nil))
	}

	got := b.String()
	want := readGolden(t, "fault_sequence.golden", got)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] == wl[i] {
			continue
		}
		t.Errorf("fault sequence differs from testdata/fault_sequence.golden at line %d:\ngot:  %s\nwant: %s", i+1, gl[i], wl[i])
		var seed int64
		if _, err := fmt.Sscanf(gl[i], "seed %d", &seed); err == nil {
			t.Logf("seed %d now fires:\n%s", seed, strings.Join(seedLines[seed], "\n"))
		}
		return
	}
	t.Errorf("fault sequence has %d lines, golden %d", len(gl), len(wl))
}

// readGolden returns testdata/<name>, first rewriting it with got under
// -update.
func readGolden(t *testing.T, name, got string) string {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return got
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -update to create golden files)", err)
	}
	return string(want)
}
