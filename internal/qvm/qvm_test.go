package qvm

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"xivm/internal/pattern"
	"xivm/internal/xmltree"
	"xivm/internal/xpath"
)

const auctionDoc = `<site>
  <people>
    <person id="person0"><name>Ann</name><phone>123</phone><profile income="40k"><age>30</age></profile></person>
    <person id="person1"><name>Bob</name><homepage>http://b</homepage></person>
    <person id="person2"><name>Cy</name></person>
  </people>
  <regions>
    <namerica><item><name>i0</name><description>d0</description></item></namerica>
    <europe><item><name>i1</name></item></europe>
  </regions>
  <open_auctions>
    <open_auction><bidder><increase>4.50</increase></bidder><reserve>10</reserve></open_auction>
    <open_auction><privacy>Yes</privacy><bidder><increase>7.00</increase></bidder><bidder><increase>9.00</increase></bidder></open_auction>
  </open_auctions>
</site>`

// queryCorpus spans the full widened grammar; reused as fuzz seeds.
var queryCorpus = []string{
	"/site/people/person",
	"//person",
	"/site//item",
	"/site/regions/*/item",
	"//name/text()",
	"/site/people/person/@id",
	"/site/people/person[phone or homepage]",
	"/site/people/person[@id=\"person1\"]",
	"//open_auction[bidder/increase=\"4.50\"]",
	"//person[profile/@income]",
	"//item[description][name]",
	"//open_auction[reserve and (bidder or privacy)]",
	"/site/people/following-sibling::regions",
	"/site/open_auctions/preceding-sibling::*[1]",
	"//bidder/following-sibling::reserve",
	"//reserve/preceding-sibling::bidder",
	"/site/people/person[2]",
	"/site/people/person[last()]",
	"//person[homepage][1]",
	"//open_auction[count(bidder)>=2]",
	"//person[count(profile/age)<1]",
	"//person[contains(name,'n')]",
	"//person[starts-with(@id,'person')]",
	"//open_auction/bidder[last()]/increase",
	"//*[count(*)>2]",
}

func mustDoc(t testing.TB, src string) *xmltree.Document {
	t.Helper()
	d, err := xmltree.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func sameNodes(a, b []*xmltree.Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCompiledMatchesInterpretedOnCorpus(t *testing.T) {
	d := mustDoc(t, auctionDoc)
	for _, q := range queryCorpus {
		p, err := xpath.Parse(q)
		if err != nil {
			t.Fatalf("Parse(%q): %v", q, err)
		}
		prog, err := Compile(p)
		if err != nil {
			t.Fatalf("Compile(%q): %v", q, err)
		}
		got := prog.Eval(d)
		want := xpath.Eval(d, p)
		if !sameNodes(got, want) {
			t.Errorf("%s: compiled %d nodes, interpreted %d nodes\n%s", q, len(got), len(want), prog.Disasm())
		}
	}
}

func TestCompiledMatchesInterpretedRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 2000; trial++ {
		d := mustDoc(t, xpath.RandomDoc(rng))
		q := xpath.RandomQuery(rng)
		p, err := xpath.Parse(q)
		if err != nil {
			t.Fatalf("Parse(%q): %v", q, err)
		}
		prog, err := Compile(p)
		if err != nil {
			t.Fatalf("Compile(%q): %v", q, err)
		}
		got := prog.Eval(d)
		want := xpath.Eval(d, p)
		if !sameNodes(got, want) {
			t.Fatalf("trial %d: %s: compiled %d vs interpreted %d nodes", trial, q, len(got), len(want))
		}
	}
}

func TestCompileRelative(t *testing.T) {
	d := mustDoc(t, auctionDoc)
	person := xpath.Eval(d, xpath.MustParse("/site/people/person[1]"))[0]
	rel, err := xpath.ParseRelative("profile/age")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := CompileRelative(rel)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine()
	got := prog.EvalFrom(m, person, nil)
	if len(got) != 1 || got[0].StringValue() != "30" {
		t.Fatalf("relative compiled eval = %v", got)
	}
}

func TestCompileRejectsEmptyPath(t *testing.T) {
	if _, err := Compile(xpath.Path{}); err == nil {
		t.Fatal("empty path must not compile")
	}
}

func TestEvalIntoReusesMachine(t *testing.T) {
	d := mustDoc(t, auctionDoc)
	prog, err := CompileString("//open_auction[count(bidder)>=1]/bidder/increase")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine()
	warm := prog.EvalInto(m, d, nil)
	if len(warm) != 3 {
		t.Fatalf("warmup = %d nodes", len(warm))
	}
	allocs := testing.AllocsPerRun(50, func() {
		buf := prog.EvalInto(m, d, make([]*xmltree.Node, 0, 8))
		if len(buf) != 3 {
			t.Fatal("wrong result")
		}
	})
	// One allocation per run is the result buffer we make in the closure;
	// the evaluation itself must not allocate in steady state.
	if allocs > 1 {
		t.Fatalf("EvalInto allocates %v times per run", allocs)
	}
}

func TestRequiredLabels(t *testing.T) {
	pt, err := pattern.Parse("//person[//phone]//name")
	if err != nil {
		t.Fatal(err)
	}
	labels := RequiredLabels(pt)
	want := map[string]bool{"person": true, "phone": true, "name": true}
	if len(labels) != len(want) {
		t.Fatalf("labels = %v", labels)
	}
	for _, l := range labels {
		if !want[l] {
			t.Fatalf("unexpected label %q", l)
		}
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	pa, _ := CompileString("/a")
	pb, _ := CompileString("/b")
	pc2, _ := CompileString("/c")
	if evicted := c.Add("/a", pa); evicted {
		t.Fatal("no eviction expected")
	}
	c.Add("/b", pb)
	// Touch /a so /b becomes the LRU victim.
	if _, ok := c.Get("/a"); !ok {
		t.Fatal("expected hit for /a")
	}
	if evicted := c.Add("/c", pc2); !evicted {
		t.Fatal("expected eviction adding /c")
	}
	if _, ok := c.Get("/b"); ok {
		t.Fatal("/b should have been evicted")
	}
	if _, ok := c.Get("/a"); !ok {
		t.Fatal("/a should have survived")
	}
	if _, ok := c.Get("/c"); !ok {
		t.Fatal("/c should be cached")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	// Re-adding an existing key updates in place without eviction.
	if evicted := c.Add("/a", pa); evicted {
		t.Fatal("re-add must not evict")
	}
}

// FuzzCompiledVsInterpreted is the differential fuzz target over the
// widened grammar: any parsable query must produce byte-identical results
// from the compiled program and the interpreted oracle, on a document
// derived from the fuzz input.
func FuzzCompiledVsInterpreted(f *testing.F) {
	for _, q := range queryCorpus {
		f.Add(q, int64(1))
	}
	f.Fuzz(func(t *testing.T, query string, seed int64) {
		p, err := xpath.Parse(query)
		if err != nil {
			return
		}
		prog, err := Compile(p)
		if err != nil {
			t.Fatalf("parsed query %q fails to compile: %v", query, err)
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 3; i++ {
			d, err := xmltree.ParseString(xpath.RandomDoc(rng))
			if err != nil {
				t.Fatal(err)
			}
			got := prog.Eval(d)
			want := xpath.Eval(d, p)
			if !sameNodes(got, want) {
				t.Fatalf("%q: compiled %d nodes, interpreted %d", query, len(got), len(want))
			}
		}
	})
}

// TestCompiledEvalSeesMutations guards against a stale label index: the
// leading-descendant fast path answers from Document.Labeled, which every
// structural mutator must invalidate. Evaluate, mutate, evaluate again —
// the compiled result must track the document exactly like the interpreter.
func TestCompiledEvalSeesMutations(t *testing.T) {
	d, err := xmltree.ParseString(`<r><a><b/></a><b/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := CompileString("//b")
	if err != nil {
		t.Fatal(err)
	}
	if n := prog.Eval(d); len(n) != 2 {
		t.Fatalf("initial: %d matches, want 2", len(n))
	}

	tmpl, err := xmltree.ParseString(`<b><b/></b>`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyInsert(d.Root, tmpl.Root.Clone()); err != nil {
		t.Fatal(err)
	}
	if n := prog.Eval(d); len(n) != 4 {
		t.Fatalf("after insert: %d matches, want 4", len(n))
	}

	targets := prog.Eval(d)
	if _, err := d.ApplyDeleteBatch(targets[:1]); err != nil {
		t.Fatal(err)
	}
	p, err := xpath.Parse("//b")
	if err != nil {
		t.Fatal(err)
	}
	got := prog.Eval(d)
	want := xpath.Eval(d, p)
	if len(got) != len(want) {
		t.Fatalf("after delete: compiled %d matches, interpreted %d", len(got), len(want))
	}
}

// TestHeldMachineDoesNotPinDocument: a machine kept across evaluations
// (pooled machines live as long as the process) must not keep the last
// document it walked reachable. Every node reaches its whole tree through
// Parent/Children, so one stale pointer in a reused node buffer, or a
// leftover document reference, pins an entire old epoch.
//
// The finalizer sits on a sentinel hung under the root with no Parent
// link: every tree node is on a Parent/Children cycle, and the runtime
// never finalizes an object that can reach itself, but the sentinel is
// reachable exactly when some node of the tree is.
func TestHeldMachineDoesNotPinDocument(t *testing.T) {
	abs, err := CompileString("/site/people/person/name")
	if err != nil {
		t.Fatal(err)
	}
	relPath, err := xpath.ParseRelative("people/person/name")
	if err != nil {
		t.Fatal(err)
	}
	rel, err := CompileRelative(relPath)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		run  func(m *Machine, d *xmltree.Document) []*xmltree.Node
	}{
		{"EvalInto", func(m *Machine, d *xmltree.Document) []*xmltree.Node { return abs.EvalInto(m, d, nil) }},
		{"EvalFrom", func(m *Machine, d *xmltree.Document) []*xmltree.Node { return rel.EvalFrom(m, d.Root, nil) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMachine()
			collected := make(chan struct{})
			func() {
				d := mustDoc(t, auctionDoc)
				sentinel := &xmltree.Node{Kind: xmltree.Element, Label: "sentinel"}
				d.Root.Children = append(d.Root.Children, sentinel)
				runtime.SetFinalizer(sentinel, func(*xmltree.Node) { close(collected) })
				if got := tc.run(m, d); len(got) != 3 {
					t.Fatalf("matches = %d, want 3", len(got))
				}
			}()
			defer runtime.KeepAlive(m)
			for i := 0; i < 20; i++ {
				runtime.GC()
				select {
				case <-collected:
					return
				case <-time.After(10 * time.Millisecond):
				}
			}
			t.Fatal("document still reachable from the machine after its evaluation")
		})
	}
}
