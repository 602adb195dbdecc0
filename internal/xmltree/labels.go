package xmltree

// The label index backs the compiled query engine's descendant steps: a
// query-shaped `//x` wants "every node labeled x in document order", which a
// tree walk answers in O(document) while this index answers it in
// O(matches). Snapshot fills it during its clone walk, so the immutable
// epochs the serving path evaluates against carry it from publish on and
// share it among every reader. Live and parsed documents build it lazily on
// first use — documents that never serve such a query pay nothing — and
// drop it wholesale on any structural mutation.

// labelIndex maps each label occurring in the document to its nodes in
// document order. Labels follow Node.Label conventions: plain element
// labels, "@name" attributes, "#text" text nodes.
type labelIndex map[string][]*Node

// Labeled returns the document-order list of nodes carrying the given
// label, building the index on first use if Snapshot did not store one.
// The returned slice is shared — callers must not modify it. Safe for
// concurrent use.
func (d *Document) Labeled(label string) []*Node {
	if li := d.labels.Load(); li != nil {
		return (*li)[label]
	}
	d.labelMu.Lock()
	defer d.labelMu.Unlock()
	if li := d.labels.Load(); li != nil {
		return (*li)[label]
	}
	li := make(labelIndex)
	Walk(d.Root, func(n *Node) bool {
		li[n.Label] = append(li[n.Label], n)
		return true
	})
	d.labels.Store(&li)
	return li[label]
}

// invalidateLabels drops the label index; every structural mutator calls it.
// Rebuilding from scratch on next use beats incremental maintenance here:
// mutations arrive in bursts on the write path, where the index is never
// consulted (reads go through snapshots).
func (d *Document) invalidateLabels() {
	d.labels.Store(nil)
}
