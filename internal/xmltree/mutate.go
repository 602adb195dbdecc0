package xmltree

import (
	"errors"

	"xivm/internal/dewey"
)

// ApplyInsert implements the paper's apply-insert(n, t) primitive: it copies
// the tree t into a fresh tree t', inserts t' as the new last child of n,
// assigns structural IDs to every copied node (as a side effect of the
// document update, exactly as the paper assumes), and returns t'. Existing
// node IDs are never modified.
func (d *Document) ApplyInsert(n *Node, t *Node) (*Node, error) {
	if n == nil || n.Kind != Element {
		return nil, errors.New("xmltree: insertion target must be an element")
	}
	cp := d.cloneAssign(t, n, dewey.Between(n.lastOrd(), nil))
	n.Children = append(n.Children, cp)
	d.invalidateLabels()
	return cp, nil
}

// ApplyInsertForest inserts each tree of the forest, in order, as new last
// children of n, returning the inserted copies.
func (d *Document) ApplyInsertForest(n *Node, forest []*Node) ([]*Node, error) {
	out := make([]*Node, 0, len(forest))
	for _, t := range forest {
		cp, err := d.ApplyInsert(n, t)
		if err != nil {
			return out, err
		}
		out = append(out, cp)
	}
	return out, nil
}

// cloneAssign copies the tree t under parent in a single walk, assigning
// each copy its structural ID (gap-spaced ordinals below the root copy) and
// counting it in the document size.
func (d *Document) cloneAssign(t *Node, parent *Node, ord dewey.Ord) *Node {
	c := &Node{Kind: t.Kind, Label: t.Label, Value: t.Value, Parent: parent}
	c.ID = parent.ID.Child(t.Label, ord)
	d.size++
	if len(t.Children) > 0 {
		c.Children = make([]*Node, len(t.Children))
		for i, ch := range t.Children {
			c.Children[i] = d.cloneAssign(ch, c, dewey.OrdAt(i))
		}
	}
	return c
}

// ApplyDelete implements apply-delete(n): it detaches the subtree rooted at
// n from the document. Per XQuery Update semantics all descendants of n
// leave the document with it. It returns the detached subtree (IDs intact,
// for delta extraction).
func (d *Document) ApplyDelete(n *Node) (*Node, error) {
	if n == nil {
		return nil, errors.New("xmltree: nil deletion target")
	}
	if n.Parent == nil {
		return nil, errors.New("xmltree: cannot delete the document root")
	}
	p := n.Parent
	idx := -1
	for i, c := range p.Children {
		if c == n {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, errors.New("xmltree: node not attached to its parent")
	}
	p.Children = append(p.Children[:idx], p.Children[idx+1:]...)
	n.Parent = nil
	d.size -= n.CountNodes()
	d.invalidateLabels()
	return n, nil
}

// ApplyDeleteBatch detaches many subtrees at once, filtering each touched
// parent's child list in a single pass — O(total children) instead of the
// quadratic cost of removing thousands of siblings one by one. The detached
// roots are returned in input order.
func (d *Document) ApplyDeleteBatch(nodes []*Node) ([]*Node, error) {
	victims := make(map[*Node]bool, len(nodes))
	parents := make(map[*Node]bool, len(nodes))
	for _, n := range nodes {
		if n == nil {
			return nil, errors.New("xmltree: nil deletion target")
		}
		if n.Parent == nil {
			return nil, errors.New("xmltree: cannot delete the document root")
		}
		victims[n] = true
		parents[n.Parent] = true
	}
	for p := range parents {
		kept := p.Children[:0]
		for _, c := range p.Children {
			if !victims[c] {
				kept = append(kept, c)
			}
		}
		p.Children = kept
	}
	out := make([]*Node, 0, len(nodes))
	for _, n := range nodes {
		if n.Parent == nil {
			continue // duplicate entry already detached
		}
		// Every victim is already filtered out of its parent, so a nested
		// victim is no longer counted under its detached ancestor.
		n.Parent = nil
		d.size -= n.CountNodes()
		out = append(out, n)
	}
	d.invalidateLabels()
	return out, nil
}
