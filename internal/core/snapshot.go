package core

import (
	"sync"

	"xivm/internal/algebra"
	"xivm/internal/pattern"
	"xivm/internal/xmltree"
)

// Snapshot is an immutable, self-contained image of the engine at one
// version: every view's rows (store.View.Replace copies a row's entries
// before refreshing them, so later refreshes of the live view cannot reach
// the ones captured here), an independent copy of the document, and the
// version counter identifying the state. A Snapshot is safe for
// unlimited concurrent readers and never changes after Engine.Snapshot
// returns — the epoch-published read path (internal/server) swaps an
// atomic pointer to the latest one after each applied statement, so
// readers serve consistent states without ever locking the writer.
type Snapshot struct {
	// Version is Engine.Version() at capture time.
	Version uint64
	// Tenant names the database this snapshot serves. The engine does not
	// know its tenant; the serving layer stamps the name once, between
	// capture and publication, so every reader of a published epoch can
	// report which tenant and which epoch its response reflects. Empty
	// outside multi-tenant serving.
	Tenant string
	// Views holds one immutable row set per managed view, in registration
	// order.
	Views []ViewSnapshot

	// doc is an ID-preserving deep copy of the document (not a serialized
	// reparse: reparsing would compact Dewey IDs assigned by the mutation
	// history, making XPath results disagree with the view rows captured
	// in the same snapshot).
	doc *xmltree.Document

	xmlOnce sync.Once
	xml     string
}

// ViewSnapshot is one view's immutable image inside a Snapshot.
type ViewSnapshot struct {
	Name    string
	Pattern *pattern.Pattern
	// Rows are the view's rows in canonical (document) order. The slice is
	// private; every row's Entries is shared with the live view until
	// store.View.Replace copies it on write.
	Rows []algebra.Row
}

// Snapshot captures the engine's current state. It must be called from the
// thread that owns the engine (the single writer), between mutations —
// exactly where internal/server's apply loop calls it. The returned value
// is immutable and may be shared with any number of concurrent readers.
// Capture cost is O(|document| + Σ|view rows|) per call.
func (e *Engine) Snapshot() *Snapshot {
	s := &Snapshot{
		Version: e.Version(),
		Views:   make([]ViewSnapshot, 0, len(e.Views)),
		doc:     e.Doc.Snapshot(),
	}
	for _, mv := range e.Views {
		s.Views = append(s.Views, ViewSnapshot{
			Name:    mv.Name,
			Pattern: mv.Pattern,
			Rows:    mv.View.Rows(),
		})
	}
	return s
}

// View returns the snapshot of the named view, or nil if no such view was
// managed at capture time.
func (s *Snapshot) View(name string) *ViewSnapshot {
	for i := range s.Views {
		if s.Views[i].Name == name {
			return &s.Views[i]
		}
	}
	return nil
}

// Doc returns the snapshot's document copy. Its nodes carry the IDs the
// live tree had at capture time, so rows in the same snapshot resolve
// against it. Shared by all readers of this snapshot; treat as read-only.
func (s *Snapshot) Doc() *xmltree.Document { return s.doc }

// DocXML serializes the snapshot document, building the string at most
// once no matter how many readers ask.
func (s *Snapshot) DocXML() string {
	s.xmlOnce.Do(func() { s.xml = s.doc.String() })
	return s.xml
}

// RepairAllViews rebuilds every managed view (rows and lattice) from the
// current document, the heavy-handed recovery a long-lived writer loop
// reaches for after a panic escaped a single statement's apply path. It is
// best-effort: if the panic interrupted the document mutation itself the
// document may not reflect the full statement, but views are at least
// consistent with whatever document state remains.
func (e *Engine) RepairAllViews() {
	for _, mv := range e.Views {
		e.recomputeFallback(mv)
	}
}
