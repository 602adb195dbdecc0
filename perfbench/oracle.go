package main

import (
	"context"
	"fmt"
	"sort"

	"xivm/internal/algebra"
	"xivm/internal/server"
	"xivm/internal/xpath"
)

// checkServed compares what the service serves at its final epoch with
// recomputation from scratch over that epoch's document: every view
// against algebra.Materialize, and every distinct XPath query the run
// issued against the interpreted xpath.Eval — IDs, labels and values, not
// just counts.
func checkServed(ctx context.Context, b *bench) {
	sh, err := b.reg.Get(b.tenant)
	if err != nil {
		b.failf("final epoch: %v", err)
		return
	}
	snap := sh.Epoch()
	doc := snap.Doc()
	for i := range snap.Views {
		vs := &snap.Views[i]
		got, err := b.db.View(ctx, vs.Name)
		if err != nil {
			b.failf("view %s: %v", vs.Name, err)
			continue
		}
		if got.Version != snap.Version {
			b.failf("view %s served at version %d, final epoch is %d", vs.Name, got.Version, snap.Version)
		}
		want := algebra.Materialize(doc, vs.Pattern)
		if err := sameRows(got.Rows, want, func(idx int) string { return vs.Pattern.Nodes[idx].Label }); err != nil {
			b.failf("view %s differs from recomputation: %v", vs.Name, err)
		}
	}
	queries := make([]string, 0, len(b.queries))
	for q := range b.queries {
		queries = append(queries, q)
	}
	sort.Strings(queries)
	for i, q := range queries {
		got, err := b.db.XPath(ctx, q)
		if err != nil {
			b.failf("xpath %s: %v", q, err)
			continue
		}
		p, err := xpath.Parse(q)
		if err != nil {
			b.failf("xpath %s: %v", q, err)
			continue
		}
		nodes := xpath.Eval(doc, p)
		want := make([]server.MatchJSON, 0, len(nodes))
		for _, n := range nodes {
			want = append(want, server.MatchJSON{ID: n.ID.String(), Label: n.Label, Value: n.StringValue()})
		}
		if b.cfg.corruptOracle && i == 0 {
			want = append(want, server.MatchJSON{ID: "0", Label: "corrupt"})
		}
		if err := sameMatches(got.Matches, want); err != nil {
			b.failf("xpath %s differs from the interpreted evaluator: %v", q, err)
		}
	}
}

func sameRows(got []server.RowJSON, want []algebra.Row, label func(int) string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Count != w.Count || len(g.Entries) != len(w.Entries) {
			return fmt.Errorf("row %d: count %d/%d entries, want %d/%d", i, g.Count, len(g.Entries), w.Count, len(w.Entries))
		}
		for j, e := range w.Entries {
			ge := g.Entries[j]
			if ge.Label != label(e.NodeIdx) || ge.ID != e.ID.String() || ge.Val != e.Val || ge.Cont != e.Cont {
				return fmt.Errorf("row %d entry %d: got %+v, want %s %s val=%q cont=%q",
					i, j, ge, label(e.NodeIdx), e.ID, e.Val, e.Cont)
			}
		}
	}
	return nil
}

func sameMatches(got, want []server.MatchJSON) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d matches, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("match %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

// checkInserted is burst's count check: every acked insert left exactly
// one <c/> under its wave parent (a replace swaps one <c/> for another).
func checkInserted(b *bench) {
	sh, err := b.reg.Get(b.tenant)
	if err != nil {
		b.failf("final epoch: %v", err)
		return
	}
	got := len(xpath.Eval(sh.Epoch().Doc(), xpath.MustParse(`/site/people/*/c`)))
	if got != b.ackedInserts {
		b.failf("%d <c/> nodes in the final document, %d inserts acked", got, b.ackedInserts)
	}
}
