package xmltree

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"xivm/internal/dewey"
)

// randomDocSrc builds a random well-formed document string.
func randomDocSrc(rng *rand.Rand) string {
	labels := []string{"a", "b", "c", "d"}
	texts := []string{"", "x", "hello world", "5 < 6 & 7", `quote " here`}
	var build func(lvl int) string
	build = func(lvl int) string {
		l := labels[rng.Intn(len(labels))]
		s := "<" + l
		if rng.Intn(3) == 0 {
			s += fmt.Sprintf(` k="%d"`, rng.Intn(100))
		}
		s += ">"
		if txt := texts[rng.Intn(len(texts))]; txt != "" && rng.Intn(2) == 0 {
			s += escape(txt)
		}
		if lvl < 4 {
			for i := 0; i < rng.Intn(3); i++ {
				s += build(lvl + 1)
			}
		}
		return s + "</" + l + ">"
	}
	return "<root>" + build(1) + build(1) + "</root>"
}

func escape(s string) string {
	out := ""
	for _, r := range s {
		switch r {
		case '<':
			out += "&lt;"
		case '&':
			out += "&amp;"
		case '"':
			out += "&quot;"
		default:
			out += string(r)
		}
	}
	return out
}

// Serialization is a fixpoint after one round trip, and round-tripping
// preserves structure counts and string values.
func TestSerializeParseFixpoint(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := randomDocSrc(rng)
		d1, err := ParseString(src)
		if err != nil {
			return false
		}
		s1 := d1.String()
		d2, err := ParseString(s1)
		if err != nil {
			return false
		}
		if d2.String() != s1 {
			return false
		}
		return d1.Size() == d2.Size() && d1.Root.StringValue() == d2.Root.StringValue()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// mutateRandomly applies one random insert, delete or batch delete to d and
// returns the IDs of the nodes it detached. It reports false on a mutator
// error.
func mutateRandomly(rng *rand.Rand, d *Document) ([]dewey.ID, bool) {
	var elems []*Node
	Walk(d.Root, func(n *Node) bool {
		if n.Kind == Element {
			elems = append(elems, n)
		}
		return true
	})
	n := elems[rng.Intn(len(elems))]
	switch op := rng.Intn(3); {
	case op == 0 || n.Parent == nil:
		l := []string{"a", "b"}[rng.Intn(2)]
		forest, err := ParseForest("<" + l + "><x/>y</" + l + ">")
		if err != nil {
			return nil, false
		}
		_, err = d.ApplyInsert(n, forest[0])
		return nil, err == nil
	case op == 1:
		var gone []dewey.ID
		Walk(n, func(m *Node) bool { gone = append(gone, m.ID); return true })
		_, err := d.ApplyDelete(n)
		return gone, err == nil
	default:
		// A few non-root victims, possibly nested in one another or
		// repeated: the batch must count each detached node once.
		var victims []*Node
		var gone []dewey.ID
		for i := rng.Intn(3); i >= 0; i-- {
			v := elems[rng.Intn(len(elems))]
			if v.Parent == nil {
				continue
			}
			victims = append(victims, v)
			Walk(v, func(m *Node) bool { gone = append(gone, m.ID); return true })
		}
		if len(victims) == 0 {
			return nil, true
		}
		_, err := d.ApplyDeleteBatch(victims)
		return gone, err == nil
	}
}

// treeInvariantsHold checks what readers of d rely on: NodeByID returns every
// node itself, siblings are stored in ascending key order, preorder is
// strictly ascending in document order, Size counts the tree, and Labeled
// equals a filtered walk. IDs that name no node resolve to nil: the detached
// ones in gone, the null ID, IDs under another root label, and an ID one
// level below a leaf.
func treeInvariantsHold(d *Document, gone []dewey.ID) bool {
	ok := true
	var prev *Node
	byLabel := map[string][]*Node{}
	Walk(d.Root, func(m *Node) bool {
		if d.NodeByID(m.ID) != m {
			ok = false
		}
		if prev != nil && prev.ID.Compare(m.ID) >= 0 {
			ok = false
		}
		for i := 1; i < len(m.Children); i++ {
			if m.Children[i-1].ID.Key() >= m.Children[i].ID.Key() {
				ok = false
			}
		}
		if len(m.Children) == 0 && d.NodeByID(m.ID.Child("x", dewey.OrdAt(0))) != nil {
			ok = false
		}
		byLabel[m.Label] = append(byLabel[m.Label], m)
		prev = m
		return true
	})
	if !ok || d.Size() != d.Root.CountNodes() {
		return false
	}
	for l, want := range byLabel {
		got := d.Labeled(l)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
	}
	if len(d.Labeled("absent")) != 0 {
		return false
	}
	for _, id := range gone {
		if d.NodeByID(id) != nil {
			return false
		}
	}
	other := dewey.NewRoot("other")
	return d.NodeByID(dewey.ID{}) == nil && d.NodeByID(other) == nil &&
		d.NodeByID(other.Child("a", dewey.OrdAt(0))) == nil
}

// Random insert, delete and batch-delete sequences keep NodeByID exact,
// siblings ascending and the size and label index right, on the live
// document and on a snapshot taken after every step.
func TestMutationInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, err := ParseString(randomDocSrc(rng))
		if err != nil {
			return false
		}
		for step := 0; step < 10; step++ {
			gone, ok := mutateRandomly(rng, d)
			if !ok || !treeInvariantsHold(d, gone) || !treeInvariantsHold(d.Snapshot(), gone) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// ApplyDeleteBatch equals one-by-one deletion.
func TestApplyDeleteBatchMatchesSingles(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := randomDocSrc(rng)
		d1, _ := ParseString(src)
		d2, _ := ParseString(src)

		// Pick disjoint victims (no ancestor pairs), identical in both docs.
		var keys []string
		var chosen []*Node
		Walk(d1.Root, func(n *Node) bool {
			if n.Parent == nil || n.Kind != Element {
				return true
			}
			for _, c := range chosen {
				if c.ID.IsAncestorOrSelf(n.ID) {
					return true
				}
			}
			if rng.Intn(4) == 0 {
				chosen = append(chosen, n)
				keys = append(keys, n.ID.Key())
			}
			return true
		})
		if len(chosen) == 0 {
			return true
		}
		if _, err := d1.ApplyDeleteBatch(chosen); err != nil {
			return false
		}
		for _, k := range keys {
			var n2 *Node
			Walk(d2.Root, func(n *Node) bool {
				if n.ID.Key() == k {
					n2 = n
				}
				return true
			})
			if n2 == nil {
				return false
			}
			if _, err := d2.ApplyDelete(n2); err != nil {
				return false
			}
		}
		return d1.String() == d2.String() && d1.Size() == d2.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyDeleteBatchErrors(t *testing.T) {
	d, _ := ParseString(`<r><a/></r>`)
	if _, err := d.ApplyDeleteBatch([]*Node{nil}); err == nil {
		t.Fatal("nil target accepted")
	}
	if _, err := d.ApplyDeleteBatch([]*Node{d.Root}); err == nil {
		t.Fatal("root deletion accepted")
	}
	a := d.Root.ElementChildren()[0]
	got, err := d.ApplyDeleteBatch([]*Node{a, a})
	if err != nil || len(got) != 1 {
		t.Fatalf("duplicate handling: %v %v", got, err)
	}
}
