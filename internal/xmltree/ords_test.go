package xmltree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"xivm/internal/dewey"
)

// encodeOrds builds an ordinal stream by hand, one ordinal per node in
// preorder, in EncodeOrds' format.
func encodeOrds(ords ...dewey.Ord) []byte {
	var out []byte
	for _, o := range ords {
		out = binary.AppendUvarint(out, uint64(len(o)))
		for _, c := range o {
			out = binary.AppendUvarint(out, c)
		}
	}
	return out
}

// A document that has seen inserts and deletes carries fractional and
// gapped ordinals; a fresh parse of its XML plus its ordinal stream must
// restore the exact ID space.
func TestApplyOrdsRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		live, err := ParseString(randomDocSrc(rng))
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 20; step++ {
			if _, ok := mutateRandomly(rng, live); !ok {
				t.Fatalf("seed %d: mutation failed", seed)
			}
		}
		ords := live.EncodeOrds()
		restored, err := ParseString(live.String())
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.ApplyOrds(ords); err != nil {
			t.Fatalf("seed %d: ApplyOrds: %v", seed, err)
		}
		if !bytes.Equal(restored.EncodeOrds(), ords) {
			t.Fatalf("seed %d: restored ordinal stream differs", seed)
		}
		if restored.Size() != live.Size() {
			t.Fatalf("seed %d: size %d, want %d", seed, restored.Size(), live.Size())
		}
		var want []*Node
		Walk(live.Root, func(n *Node) bool { want = append(want, n); return true })
		i := 0
		Walk(restored.Root, func(n *Node) bool {
			if !n.ID.Equal(want[i].ID) {
				t.Fatalf("seed %d: node %d has ID %s, want %s", seed, i, n.ID, want[i].ID)
			}
			if restored.NodeByID(want[i].ID) != n {
				t.Fatalf("seed %d: NodeByID(%s) does not resolve to the restored node", seed, n.ID)
			}
			i++
			return true
		})
	}
}

func TestApplyOrdsRejectsBadStreams(t *testing.T) {
	const src = `<r><a><c/></a><b/></r>`
	root, a, c, b := dewey.Ord{dewey.Gap}, dewey.OrdAt(0), dewey.OrdAt(0), dewey.OrdAt(1)
	good := encodeOrds(root, a, c, b)
	d := mustParse(t, src)
	if err := d.ApplyOrds(good); err != nil {
		t.Fatalf("well-formed stream rejected: %v", err)
	}
	if !bytes.Equal(d.EncodeOrds(), good) {
		t.Fatal("hand-built stream does not match EncodeOrds")
	}

	bad := map[string][]byte{
		"over-long":                  append(append([]byte(nil), good...), encodeOrds(dewey.OrdAt(2))...),
		"root mismatch":              encodeOrds(dewey.OrdAt(1), a, c, b),
		"repeated sibling ordinal":   encodeOrds(root, a, c, a),
		"descending sibling ordinal": encodeOrds(root, b, c, a),
		"prefix after extension":     encodeOrds(root, dewey.Ord{dewey.Gap, 1}, c, dewey.Ord{dewey.Gap}),
		"implausible ordinal length": append(encodeOrds(root, a, c), 0x7f, 0x01),
	}
	for cut := 0; cut < len(good); cut++ {
		bad[fmt.Sprintf("truncated to %d bytes", cut)] = good[:cut]
	}
	for name, stream := range bad {
		if err := mustParse(t, src).ApplyOrds(stream); err == nil {
			t.Errorf("%s: stream %x accepted", name, stream)
		}
	}
}
