package inverse

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/logictree"
	"repro/internal/schema"
	"repro/internal/sqlparse"
	"repro/internal/trc"
)

// wideQuery builds a query with `boxes` sibling NOT EXISTS blocks, each
// linked to the root. Every block is one table group: the reference
// enumerator tries boxes^boxes parent assignments, and the arrows leave
// each block one.
func wideQuery(boxes int) string {
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

func wideDiagram(t testing.TB, boxes int) (*core.Diagram, *logictree.LT) {
	t.Helper()
	s := schema.Beers()
	q, err := sqlparse.Parse(wideQuery(boxes))
	if err != nil {
		t.Fatal(err)
	}
	r, err := sqlparse.Resolve(q, s)
	if err != nil {
		t.Fatal(err)
	}
	e, err := trc.Convert(q, r)
	if err != nil {
		t.Fatal(err)
	}
	lt := logictree.FromTRC(e).Flatten()
	d, err := core.Build(lt)
	if err != nil {
		t.Fatal(err)
	}
	return d, lt
}

// TestRecoverContextBudgetExhaustion: a search that outgrows an
// explicit budget stops with a *BudgetError naming it, not run on.
func TestRecoverContextBudgetExhaustion(t *testing.T) {
	d, _ := wideDiagram(t, 7) // 8 groups: 8 search nodes
	_, nodes, err := RecoverContextStats(context.Background(), d, 3)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetError", err)
	}
	if be.Budget != 3 || be.Nodes <= be.Budget || nodes != be.Nodes {
		t.Fatalf("BudgetError = %+v (nodes %d), want Nodes > Budget = 3", be, nodes)
	}
}

// TestRecoverContextWithinBudget: a paper-sized diagram recovers to its
// tree under the default bound.
func TestRecoverContextWithinBudget(t *testing.T) {
	d, lt := wideDiagram(t, 4)
	rec, _, err := RecoverContextStats(context.Background(), d, 0)
	if err != nil {
		t.Fatalf("RecoverContextStats: %v", err)
	}
	if rec.Canonical() != lt.Canonical() {
		t.Fatalf("recovered tree differs:\n%s\n%s", rec.Canonical(), lt.Canonical())
	}
}

// TestRecoverContextUnboundedMatchesRecover: budget < 0 disables the
// bound; the result must equal Recover's.
func TestRecoverContextUnboundedMatchesRecover(t *testing.T) {
	d, _ := wideDiagram(t, 5)
	a, errA := Recover(d)
	b, _, errB := RecoverContextStats(context.Background(), d, -1)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("errors differ: %v vs %v", errA, errB)
	}
	if errA == nil && a.Canonical() != b.Canonical() {
		t.Fatal("unbounded RecoverContextStats disagrees with Recover")
	}
}

// TestRecoverWideSiblingsFollowTheArrows: every sibling block carries an
// arrow from the root, so each has one candidate parent and the search
// visits one node per group however wide the query is — where the
// enumerate-then-check search tried n^n assignments.
func TestRecoverWideSiblingsFollowTheArrows(t *testing.T) {
	for _, boxes := range []int{4, 7, 12, 32, 126} {
		d, lt := wideDiagram(t, boxes)
		rec, nodes, err := RecoverContextStats(context.Background(), d, 0)
		if err != nil {
			t.Fatalf("%d boxes: %v", boxes, err)
		}
		if rec.Canonical() != lt.Canonical() {
			t.Fatalf("%d boxes: recovered tree differs", boxes)
		}
		if nodes != boxes+1 {
			t.Errorf("%d boxes: %d search nodes, want %d", boxes, nodes, boxes+1)
		}
	}
}

// TestRecoverContextCancellation: a canceled context stops the search
// with the context's error.
func TestRecoverContextCancellation(t *testing.T) {
	d, _ := wideDiagram(t, 7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := RecoverContextStats(ctx, d, -1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
