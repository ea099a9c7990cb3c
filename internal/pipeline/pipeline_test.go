package pipeline

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/logictree"
	"repro/internal/schema"
	"repro/internal/trc"
)

// recorder is a hook that records the stages it is handed.
func recorder(seen *[]string) Hook {
	return func(stage string, run func() error) error {
		*seen = append(*seen, stage)
		return run()
	}
}

// TestRunStopsAtLast: Run enters the stages in order and none after last.
func TestRunStopsAtLast(t *testing.T) {
	var seen []string
	var a Artifacts
	if err := Run(context.Background(), &a, corpus.Fig1UniqueSet, schema.Beers(), Options{}, Tree, recorder(&seen)); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(seen, " "); got != "parse resolve convert logictree" {
		t.Fatalf("stages entered: %q", got)
	}
	if a.Tree == nil || a.Tree != a.RawTree || a.Diagram != nil {
		t.Fatalf("after Tree: Tree %v RawTree %v Diagram %v", a.Tree, a.RawTree, a.Diagram)
	}
	if err := Run(context.Background(), &a, corpus.Fig1UniqueSet, schema.Beers(), Options{}, Build, recorder(&seen)); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(seen, " "); got != "parse resolve convert logictree build" {
		t.Fatalf("stages entered after resuming: %q", got)
	}
	if a.Diagram == nil || a.Interpretation == "" {
		t.Fatal("build left no diagram or interpretation")
	}
}

// TestRunKeepsPrefixOnError: a failing stage leaves the artifacts of
// the stages before it and returns the hook's error.
func TestRunKeepsPrefixOnError(t *testing.T) {
	var seen []string
	var a Artifacts
	err := Run(context.Background(), &a, "SELECT X.a FROM Nowhere X", schema.Beers(), Options{}, Build, recorder(&seen))
	if err == nil {
		t.Fatal("unknown table resolved")
	}
	if got := strings.Join(seen, " "); got != "parse resolve" {
		t.Fatalf("stages entered: %q", got)
	}
	if a.Query == nil || a.TRC != nil {
		t.Fatalf("prefix: Query %v TRC %v", a.Query, a.TRC)
	}
	sentinel := errors.New("hook refused")
	err = Run(context.Background(), &Artifacts{}, corpus.Fig1UniqueSet, schema.Beers(), Options{}, Build,
		func(stage string, run func() error) error {
			if stage == Convert {
				return sentinel
			}
			return run()
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the hook's", err)
	}
}

// TestRunResumesFromRawTree: given a RawTree, the Tree stage derives
// only Tree from it, which is how the degradation ladder rebuilds.
func TestRunResumesFromRawTree(t *testing.T) {
	var fwd Artifacts
	if err := Run(context.Background(), &fwd, corpus.Fig1UniqueSet, schema.Beers(), Options{}, Tree, nil); err != nil {
		t.Fatal(err)
	}
	var seen []string
	a := Artifacts{Query: fwd.Query, TRC: fwd.TRC, RawTree: fwd.RawTree}
	if err := Run(context.Background(), &a, "", nil, Options{Simplify: true}, Build, recorder(&seen)); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(seen, " "); got != "logictree build" {
		t.Fatalf("stages entered: %q", got)
	}
	if a.RawTree != fwd.RawTree || a.Tree == fwd.RawTree {
		t.Fatal("the given RawTree was replaced, or Tree was not simplified from it")
	}
	if !strings.Contains(a.Tree.String(), "∀") {
		t.Fatalf("Fig. 1 simplified has no ∀ block: %s", a.Tree)
	}
}

// TestTreeKeyIgnoresGroupByOrder: the key compares GROUP BY as a set and
// leaves the tree it reads untouched.
func TestTreeKeyIgnoresGroupByOrder(t *testing.T) {
	x, y := trc.Attr{Var: "L", Column: "drinker"}, trc.Attr{Var: "L", Column: "beer"}
	a := &logictree.LT{GroupBy: []trc.Attr{x, y}, Root: &logictree.Node{}}
	b := &logictree.LT{GroupBy: []trc.Attr{y, x}, Root: &logictree.Node{}}
	if TreeKey(a) != TreeKey(b) {
		t.Fatalf("keys differ: %q vs %q", TreeKey(a), TreeKey(b))
	}
	if a.GroupBy[0] != x {
		t.Fatal("TreeKey reordered the tree's own GROUP BY")
	}
}
