package core

import (
	"strings"

	"xivm/internal/algebra"
	"xivm/internal/dewey"
	"xivm/internal/pattern"
	"xivm/internal/qvm"
	"xivm/internal/store"
	"xivm/internal/update"
	"xivm/internal/xmltree"
)

// Section 3.5 closes with the observation that snowcap materialization can
// be optimized "in a more global fashion: in a context where several views
// are materialized and some snowcaps may be shared, it makes sense to ...
// pick a set of snowcaps sufficient for maintaining all the views". Pool
// implements that sharing: snowcap sub-patterns are deduplicated across
// views by structural signature, each shared sub-pattern is materialized
// once, and maintained once per statement instead of once per view.
//
// Enabled with Options.SharedSnowcaps; each view's lattice then resolves
// its chain masks through the engine's pool, remapping the canonical
// columns back to its own pattern-node indexes.

type poolEntry struct {
	sub    *pattern.Pattern // canonical sub-pattern (indexes 0..k-1)
	mat    *store.Mat
	refs   int
	labels []string // distinct node labels (qvm.RequiredLabels)
}

// Pool shares materialized snowcaps between views.
type Pool struct {
	store   *store.Store
	join    algebra.JoinFunc
	entries map[string]*poolEntry
}

// NewPool creates an empty pool over the engine's store.
func NewPool(st *store.Store, join algebra.JoinFunc) *Pool {
	return &Pool{store: st, join: join, entries: map[string]*poolEntry{}}
}

// Signature canonicalizes a sub-pattern: structure, labels, edges and value
// predicates — everything that determines its extent (stored attributes are
// irrelevant to ID-only materializations).
func Signature(sub *pattern.Pattern) string {
	var b strings.Builder
	var walk func(n *pattern.Node)
	walk = func(n *pattern.Node) {
		if n.Desc {
			b.WriteString("//")
		} else {
			b.WriteString("/")
		}
		b.WriteString(n.Label)
		if n.HasPred {
			b.WriteString("[=")
			b.WriteString(n.PredVal)
			b.WriteString("]")
		}
		b.WriteString("(")
		for _, c := range n.Children {
			walk(c)
		}
		b.WriteString(")")
	}
	walk(sub.Root)
	return b.String()
}

// Register materializes (or references) the shared snowcap for the given
// sub-pattern, returning its signature for later lookups.
func (pl *Pool) Register(sub *pattern.Pattern) string {
	sig := Signature(sub)
	if e, ok := pl.entries[sig]; ok {
		e.refs++
		return sig
	}
	m := store.NewMat(sub, sub.FullMask())
	m.FillFromBlock(algebra.EvalSubPattern(sub, sub.FullMask(), pl.store.Inputs(sub), pl.join))
	pl.entries[sig] = &poolEntry{sub: sub, mat: m, refs: 1, labels: qvm.RequiredLabels(sub)}
	return sig
}

// Block returns the shared materialization's tuples with columns remapped
// to the caller's pattern-node indexes (orig[i] = caller index of canonical
// node i).
func (pl *Pool) Block(sig string, orig []int) (algebra.Block, bool) {
	e, ok := pl.entries[sig]
	if !ok {
		return algebra.Block{}, false
	}
	b := e.mat.Block()
	cols := make([]int, len(b.Cols))
	for i, c := range b.Cols {
		cols[i] = orig[c]
	}
	b.Cols = cols
	return b, true
}

// Entries returns the number of distinct shared snowcaps.
func (pl *Pool) Entries() int { return len(pl.entries) }

// SharedRefs returns the total reference count across entries (how many
// view-chain slots the pool serves).
func (pl *Pool) SharedRefs() int {
	total := 0
	for _, e := range pl.entries {
		total += e.refs
	}
	return total
}

// ApplyInsert maintains every shared snowcap once for a statement's
// insertions: each entry's additions are its own insertion terms, with ∆
// tables extracted per entry (signatures embed the σ predicates, so the
// filtered inputs are identical for every sharing view).
// The per-statement presence scan makes maintenance O(one walk + affected
// entries) instead of O(entries × walk): every insertion term joins at
// least one ∆ table (InsertTerms excludes the all-relational mask), so an
// entry none of whose node labels occur in the inserted forest has all its
// ∆ tables empty and every term empty — it can be skipped before the
// per-entry delta extraction walk.
func (pl *Pool) ApplyInsert(inserted []*xmltree.Node) {
	pr := pl.scanPresence(inserted)
	for _, e := range pl.entries {
		if !pr.hasAny(e.labels) {
			continue
		}
		deltaIn := deltaInputsFor(e.sub, inserted, pl.store.Doc())
		rIn := pl.store.Inputs(e.sub)
		full := e.sub.FullMask()
		var additions []algebra.Block
		for _, rmask := range InsertTerms(e.sub) {
			dmask := full &^ rmask
			empty := false
			for _, i := range pattern.MaskIndexes(dmask) {
				if len(deltaIn[i]) == 0 {
					empty = true
					break
				}
			}
			if empty {
				continue
			}
			var blk algebra.Block
			if rmask == 0 {
				blk = algebra.EvalSubPattern(e.sub, full, deltaIn, pl.join)
			} else {
				blk = algebra.EvalSubPattern(e.sub, rmask, rIn, pl.join)
				forest, roots := algebra.EvalForest(e.sub, dmask, deltaIn, pl.join)
				blk = algebra.AttachForest(e.sub, blk, forest, roots, pl.join)
			}
			if len(blk.Tuples) > 0 {
				additions = append(additions, blk)
			}
		}
		for _, blk := range additions {
			e.mat.AddBlock(blk)
		}
	}
}

// ApplyDelete drops tuples bound inside deleted subtrees from every shared
// snowcap, once per statement.
func (pl *Pool) ApplyDelete(deleted []*xmltree.Node) {
	if len(deleted) == 0 {
		return
	}
	cover := coverOf(deleted)
	for _, e := range pl.entries {
		e.mat.RemoveUnderAny(cover)
	}
}

// insertPresence summarizes one statement's inserted forest for the label
// gate: which node labels occur, whether any element occurs (for "*"
// pattern nodes), and which registered word labels have a matching token.
type insertPresence struct {
	anyElement bool
	labels     map[string]bool // element labels, "@name", "#text"
	words      map[string]bool // "~w" labels with a witness text node
}

// scanPresence walks the inserted roots once, testing only the word labels
// some entry actually uses.
func (pl *Pool) scanPresence(inserted []*xmltree.Node) insertPresence {
	var words []string
	seenWord := map[string]bool{}
	for _, e := range pl.entries {
		for _, l := range e.labels {
			if strings.HasPrefix(l, "~") && !seenWord[l] {
				seenWord[l] = true
				words = append(words, l)
			}
		}
	}
	pr := insertPresence{labels: map[string]bool{}, words: map[string]bool{}}
	for _, r := range inserted {
		xmltree.Walk(r, func(n *xmltree.Node) bool {
			if n.Kind == xmltree.Element {
				pr.anyElement = true
			}
			pr.labels[n.Label] = true
			for _, w := range words {
				if !pr.words[w] && n.MatchesWord(w[1:]) {
					pr.words[w] = true
				}
			}
			return true
		})
	}
	return pr
}

// hasAny reports whether any of the entry's labels occurs in the forest.
func (pr *insertPresence) hasAny(labels []string) bool {
	for _, l := range labels {
		switch {
		case l == "*":
			if pr.anyElement {
				return true
			}
		case strings.HasPrefix(l, "~"):
			if pr.words[l] {
				return true
			}
		default:
			if pr.labels[l] {
				return true
			}
		}
	}
	return false
}

func coverOf(deleted []*xmltree.Node) *dewey.Cover {
	ids := make([]dewey.ID, len(deleted))
	for i, n := range deleted {
		ids[i] = n.ID
	}
	return dewey.NewCover(ids)
}

// deltaInputsFor mirrors Engine.deltaInputs for a standalone sub-pattern.
func deltaInputsFor(sub *pattern.Pattern, roots []*xmltree.Node, doc *xmltree.Document) algebra.Inputs {
	labels := make([]string, 0, sub.Size())
	for _, n := range sub.Nodes {
		labels = append(labels, n.Label)
	}
	tables := update.DeltaTables(roots, labels)
	in := make(algebra.Inputs, sub.Size())
	for i, n := range sub.Nodes {
		in[i] = algebra.Filter(tables[n.Label], n, doc)
	}
	in[0] = algebra.FilterRootAnchor(sub, in[0])
	return in
}
