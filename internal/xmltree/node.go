// Package xmltree implements the paper's document model: XML documents as
// ordered labeled trees of element, attribute and text nodes, each carrying
// a Compact Dynamic Dewey structural identifier. It provides parsing,
// serialization, string-value and content extraction, and the side-effecting
// subtree insertion/deletion primitives (apply-insert, apply-delete) that
// the update machinery builds on.
package xmltree

import (
	"strings"
	"sync"
	"sync/atomic"

	"xivm/internal/dewey"
)

// Kind distinguishes the three node kinds of the model.
type Kind uint8

const (
	// Element is an XML element node.
	Element Kind = iota
	// Attribute is an attribute node; its Label carries a leading '@'.
	Attribute
	// Text is a text node; Label is "#text".
	Text
)

// TextLabel is the label carried by text nodes.
const TextLabel = "#text"

func (k Kind) String() string {
	switch k {
	case Element:
		return "element"
	case Attribute:
		return "attribute"
	case Text:
		return "text"
	}
	return "invalid"
}

// Node is one node of an ordered labeled XML tree. Attribute nodes appear at
// the front of their owner's Children, before any element or text children,
// and carry labels of the form "@name" so that structural IDs encode them
// uniformly.
type Node struct {
	Kind     Kind
	Label    string // element label, "@name" for attributes, "#text" for text
	Value    string // text content for Text and Attribute nodes
	Parent   *Node
	Children []*Node
	ID       dewey.ID
}

// Document is a parsed XML document: a single root element whose nodes
// carry Compact Dynamic Dewey IDs. An ID encodes the root-to-node path and
// each step's sibling order, so the tree itself resolves ID-carrying view
// tuples back to nodes (needed by the tuple-modification algorithms
// PIMT/PDMT); no second structure has to be kept in sync with it.
type Document struct {
	Root *Node
	size int // node count, kept by every structural mutator

	// labels is the label index (see labels.go): stored by Snapshot,
	// otherwise built lazily; labelMu serializes the lazy construction so
	// concurrent readers build it once.
	labels  atomic.Pointer[labelIndex]
	labelMu sync.Mutex
}

// NewDocument wraps a root node built elsewhere.
func NewDocument(root *Node) *Document {
	return &Document{Root: root, size: root.CountNodes()}
}

// NodeByID resolves a structural ID to its node, or nil. It walks down from
// the root, binary-searching each level's children for the key prefix
// id.KeyAt(level). That is valid because siblings are always stored in
// ascending key order: parsing assigns OrdAt(i) in order, every insert
// appends Between(lastOrd, nil), and ApplyOrds rejects anything else. Keys
// of children extend their parent's key, so only the suffixes past it are
// compared. No allocation.
func (d *Document) NodeByID(id dewey.ID) *Node {
	if id.IsNull() || d.Root.ID.Key() != id.KeyAt(1) {
		return nil
	}
	n := d.Root
	for lvl := 2; lvl <= id.Level(); lvl++ {
		p := len(id.KeyAt(lvl - 1))
		want := id.KeyAt(lvl)[p:]
		kids := n.Children
		lo, hi := 0, len(kids)
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if kids[m].ID.Key()[p:] < want {
				lo = m + 1
			} else {
				hi = m
			}
		}
		if lo == len(kids) || kids[lo].ID.Key()[p:] != want {
			return nil
		}
		n = kids[lo]
	}
	return n
}

// Size returns the number of nodes in the document.
func (d *Document) Size() int { return d.size }

// Walk visits n and its descendants in document order, stopping early if f
// returns false for a node (its subtree is then skipped).
func Walk(n *Node, f func(*Node) bool) {
	if !f(n) {
		return
	}
	for _, c := range n.Children {
		Walk(c, f)
	}
}

// StringValue returns the node's string value: for text and attribute nodes
// the literal value; for elements the concatenation of all text descendants
// in document order, per the XPath data model.
func (n *Node) StringValue() string {
	switch n.Kind {
	case Text, Attribute:
		return n.Value
	}
	var b strings.Builder
	n.appendText(&b)
	return b.String()
}

func (n *Node) appendText(b *strings.Builder) {
	if n.Kind == Text {
		b.WriteString(n.Value)
		return
	}
	for _, c := range n.Children {
		if c.Kind == Attribute {
			continue
		}
		c.appendText(b)
	}
}

// Content returns the serialized image of the subtree rooted at n — the
// "cont" stored attribute of the paper's tree patterns.
func (n *Node) Content() string {
	var b strings.Builder
	serializeNode(&b, n)
	return b.String()
}

// ElementChildren returns the element children of n, skipping attributes
// and text.
func (n *Node) ElementChildren() []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Kind == Element {
			out = append(out, c)
		}
	}
	return out
}

// Attr returns the attribute child named name (without '@'), or nil.
func (n *Node) Attr(name string) *Node {
	want := "@" + name
	for _, c := range n.Children {
		if c.Kind != Attribute {
			// Attributes are stored first; stop at the first non-attribute.
			break
		}
		if c.Label == want {
			return c
		}
	}
	return nil
}

// lastOrd returns the ordinal of the last child of n, or nil when childless.
func (n *Node) lastOrd() dewey.Ord {
	if len(n.Children) == 0 {
		return nil
	}
	last := n.Children[len(n.Children)-1]
	return last.ID.Step(last.ID.Level() - 1).Ord
}

// Clone returns a deep copy of the subtree rooted at n, with nil Parent at
// the top and no IDs assigned (IDs belong to a document position).
func (n *Node) Clone() *Node {
	c := &Node{Kind: n.Kind, Label: n.Label, Value: n.Value}
	c.Children = make([]*Node, len(n.Children))
	for i, ch := range n.Children {
		cc := ch.Clone()
		cc.Parent = c
		c.Children[i] = cc
	}
	return c
}

// Snapshot returns an independent deep copy of the document: fresh Node
// structs with IDs preserved (unlike Node.Clone, which strips them for
// template reuse). The copy shares no mutable state with the original, so
// it can serve any number of concurrent readers while the original keeps
// mutating — the epoch-snapshot read path (core.Snapshot) relies on this,
// and on ID preservation so that view rows and XPath results from the same
// epoch agree on node identity. The clone walk is preorder, i.e. document
// order, so it also fills the copy's label index: readers of an epoch
// never build it lazily.
func (d *Document) Snapshot() *Document {
	li := make(labelIndex)
	c := &Document{size: d.size}
	c.Root = cloneKeepIDs(d.Root, nil, li)
	c.labels.Store(&li)
	return c
}

func cloneKeepIDs(n, parent *Node, li labelIndex) *Node {
	m := &Node{Kind: n.Kind, Label: n.Label, Value: n.Value, Parent: parent, ID: n.ID}
	li[m.Label] = append(li[m.Label], m)
	if len(n.Children) > 0 {
		m.Children = make([]*Node, len(n.Children))
		for i, ch := range n.Children {
			m.Children[i] = cloneKeepIDs(ch, m, li)
		}
	}
	return m
}

// CountNodes returns the number of nodes in the subtree rooted at n.
func (n *Node) CountNodes() int {
	total := 1
	for _, c := range n.Children {
		total += c.CountNodes()
	}
	return total
}

// WordLabel returns the pattern label denoting a word leaf: a pattern node
// labeled "~w" matches any text node whose whitespace-tokenized value
// contains the word w (the paper's word alphabet A_w for pattern leaves).
func WordLabel(word string) string { return "~" + word }

// MatchesWord reports whether the node is a text node containing the given
// word as a whitespace-delimited token.
func (n *Node) MatchesWord(word string) bool {
	if n.Kind != Text {
		return false
	}
	rest := n.Value
	for len(rest) > 0 {
		tok := rest
		if i := indexSpace(rest); i >= 0 {
			tok, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		if tok == word {
			return true
		}
	}
	return false
}

func indexSpace(s string) int {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '\n', '\r':
			return i
		}
	}
	return -1
}
