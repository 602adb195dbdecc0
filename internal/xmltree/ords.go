package xmltree

import (
	"encoding/binary"
	"errors"

	"xivm/internal/dewey"
)

// Structural-ID durability. Serializing a document as XML loses its Dewey
// ordinals: parsing assigns dense sequential ordinals, while a live document
// that has seen updates carries fractional ones (dewey.Between). Node IDs
// are part of the observable state — view rows and XPath responses expose
// them — so a process restored from a serialized document would answer
// queries with different IDs than the live process it checkpointed, breaking
// the byte-identical convergence replication promises. The ordinal stream
// below rides alongside the XML: a preorder walk of every node's own sibling
// ordinal, enough to reconstruct the exact live ID space on top of a fresh
// parse (an ID is just the root-to-node label path zipped with these
// ordinals).

// EncodeOrds serializes the document's ordinal assignment: for each node in
// preorder, its own sibling ordinal as a uvarint component vector. Combined
// with the serialized XML (which fixes structure, labels and order) this
// reconstructs every node's exact structural ID.
func (d *Document) EncodeOrds() []byte {
	var out []byte
	var walk func(n *Node)
	walk = func(n *Node) {
		ord := n.ID.Step(n.ID.Level() - 1).Ord
		out = binary.AppendUvarint(out, uint64(len(ord)))
		for _, c := range ord {
			out = binary.AppendUvarint(out, c)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(d.Root)
	return out
}

// ApplyOrds reassigns every node's structural ID from an ordinal stream
// produced by EncodeOrds on a structurally identical document (same nodes,
// same order). The freshly parsed document's sequential ordinals are
// replaced by the recorded ones, so the restored ID space is byte-identical
// to the one the stream was taken from. Siblings must come out in strictly
// ascending ordinal order, the invariant NodeByID's search relies on; a
// stream that breaks it, disagrees on the root or does not cover exactly
// the document is rejected.
func (d *Document) ApplyOrds(data []byte) error {
	pos := 0
	next := func() (dewey.Ord, error) {
		m, k := binary.Uvarint(data[pos:])
		if k <= 0 {
			return nil, errors.New("xmltree: truncated ordinal length")
		}
		pos += k
		if m > uint64(len(data)-pos) {
			return nil, errors.New("xmltree: implausible ordinal length")
		}
		ord := make(dewey.Ord, 0, m)
		for j := uint64(0); j < m; j++ {
			c, k := binary.Uvarint(data[pos:])
			if k <= 0 {
				return nil, errors.New("xmltree: truncated ordinal component")
			}
			pos += k
			ord = append(ord, c)
		}
		return ord, nil
	}
	// Roots always carry the NewRoot ordinal; a stream that says otherwise
	// was not taken from a structurally identical document.
	root, err := next()
	if err != nil {
		return err
	}
	if !root.Equal(d.Root.ID.Step(0).Ord) {
		return errors.New("xmltree: ordinal stream disagrees on the root")
	}
	var walk func(n *Node) error
	walk = func(n *Node) error {
		var prev dewey.Ord
		for _, c := range n.Children {
			ord, err := next()
			if err != nil {
				return err
			}
			if prev != nil && ord.Compare(prev) <= 0 {
				return errors.New("xmltree: ordinal stream has non-ascending siblings")
			}
			prev = ord
			c.ID = n.ID.Child(c.Label, ord)
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(d.Root); err != nil {
		return err
	}
	if pos != len(data) {
		return errors.New("xmltree: ordinal stream longer than the document")
	}
	return nil
}
