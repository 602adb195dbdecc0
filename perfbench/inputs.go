package main

import (
	"fmt"
	"math/rand/v2"

	"xivm/internal/server"
	"xivm/internal/xmark"
)

// viewSpecs is every workload's view set: the paper's Q1, Q2, Q6 and Q17
// plus the ID-complete R1–R5 library xivmload registers, which lets the
// XPath read mix exercise all three rewrite plan shapes.
func viewSpecs() []server.ViewSpec {
	var out []server.ViewSpec
	for _, name := range []string{"Q1", "Q2", "Q6", "Q17"} {
		out = append(out, server.ViewSpec{Name: name, Pattern: xmark.View(name).String()})
	}
	return append(out,
		server.ViewSpec{Name: "R1", Pattern: `/site{ID}/people{ID}/person{ID}/name{ID,val}`},
		server.ViewSpec{Name: "R2", Pattern: `//open_auction{ID}//bidder{ID}`},
		server.ViewSpec{Name: "R3", Pattern: `//bidder{ID}//increase{ID,val}`},
		server.ViewSpec{Name: "R4", Pattern: `//open_auction{ID}//initial{ID,val}`},
		server.ViewSpec{Name: "R5", Pattern: `//open_auction{ID}//increase{ID,val}`},
	)
}

// fixedQueries are the ten XPath shapes of xivmload's read mix: child
// spines, descendant scans, predicates, positional steps, sibling axes,
// and two queries the rewrite planner serves by stitch and intersection.
var fixedQueries = []string{
	`/site/people/person/name`,
	`/site/open_auctions/open_auction/bidder/increase`,
	`//open_auction//increase`,
	`//person[profile][homepage]/name`,
	`//open_auction[count(bidder)>=2]/initial`,
	`/site/open_auctions/open_auction/bidder[1]/increase`,
	`//bidder/following-sibling::current`,
	`//person[starts-with(@id,'person1')]`,
	`//open_auction//bidder//increase`,
	`//open_auction[bidder]//initial`,
}

// docShape counts the generator's entities, so statements can address
// existing persons and auctions by their @id.
type docShape struct{ persons, auctions int }

// newRand is the run's seeded source; stream separates the independent
// input streams of one run.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

var firstNames = []string{"Ann", "Bob", "Carla", "Dinesh", "Elena", "Farid", "Grace", "Hugo"}

// bulkUpdates are the Appendix A insertions the ingest mix runs, each with
// the delete that removes exactly what it inserted (the payload's nested
// element marks the inserted copies), so the document stays level.
var bulkUpdates = []struct{ name, cleanup string }{
	{"A6_A", `delete /site/people/person/name[name]`},
	{"B7_LB", `delete /site/people/person/name[name]`},
	{"X3_A", `delete /site/open_auctions/open_auction/bidder/increase[increase]`},
	{"B3_LB", `delete /site/open_auctions/open_auction/bidder/increase[increase]`},
}

// ingestMix generates the ingest writer's statements: mostly single-entity
// inserts and deletes of persons and bidders, each insert later deleted,
// plus every bulkEvery-th statement an Appendix A bulk insert or its
// cleanup. The live set stays small, so the document size stays level.
type ingestMix struct {
	r         *rand.Rand
	shape     docShape
	n         int
	livePers  []int
	liveBids  []int
	bulkNext  int
	bulkOpen  string // cleanup owed by the last bulk insert
	bulkEvery int
}

func newIngestMix(seed uint64, shape docShape) *ingestMix {
	r := newRand(seed, 1)
	return &ingestMix{r: r, shape: shape, bulkNext: r.IntN(len(bulkUpdates)), bulkEvery: 25}
}

func (g *ingestMix) next() string {
	g.n++
	if g.n%g.bulkEvery == 0 {
		if g.bulkOpen != "" {
			s := g.bulkOpen
			g.bulkOpen = ""
			return s
		}
		u := bulkUpdates[g.bulkNext%len(bulkUpdates)]
		g.bulkNext++
		g.bulkOpen = u.cleanup
		return xmark.UpdateByName(u.name).InsertStatement().Source
	}
	if g.r.IntN(2) == 0 {
		return g.personOp()
	}
	return g.bidderOp()
}

// insertNext decides insert or delete for a live set: insert below 4 live
// entities, delete above 12, otherwise a coin flip.
func (g *ingestMix) insertNext(live []int) bool {
	switch {
	case len(live) < 4:
		return true
	case len(live) > 12:
		return false
	}
	return g.r.IntN(2) == 0
}

func (g *ingestMix) personOp() string {
	if g.insertNext(g.livePers) {
		id := g.n
		g.livePers = append(g.livePers, id)
		home := ""
		if g.r.IntN(2) == 0 {
			home = fmt.Sprintf("<homepage>http://example.net/~w%d</homepage>", id)
		}
		return fmt.Sprintf(`insert <person id="w%d"><name>%s W%d</name><emailaddress>mailto:w%d@example.net</emailaddress>%s</person> into /site/people`,
			id, firstNames[g.r.IntN(len(firstNames))], id, id, home)
	}
	i := g.r.IntN(len(g.livePers))
	id := g.livePers[i]
	g.livePers = append(g.livePers[:i], g.livePers[i+1:]...)
	return fmt.Sprintf(`delete /site/people/person[@id="w%d"]`, id)
}

func (g *ingestMix) bidderOp() string {
	if g.insertNext(g.liveBids) {
		id := g.n
		g.liveBids = append(g.liveBids, id)
		return fmt.Sprintf(`insert <bidder id="b%d"><date>01/02/2011</date><personref person="person%d"/><increase>%d.50</increase></bidder> into /site/open_auctions/open_auction[@id="open_auction%d"]`,
			id, g.r.IntN(g.shape.persons), 1+g.r.IntN(20), g.r.IntN(g.shape.auctions))
	}
	i := g.r.IntN(len(g.liveBids))
	id := g.liveBids[i]
	g.liveBids = append(g.liveBids[:i], g.liveBids[i+1:]...)
	return fmt.Sprintf(`delete /site/open_auctions/open_auction/bidder[@id="b%d"]`, id)
}

// readMix is the ingest and burst open-loop reader: the ten fixed shapes
// and every view, two XPath reads per view read, from a seeded offset.
type readMix struct {
	i     int
	views []string
}

func newReadMix(seed uint64) *readMix {
	m := &readMix{i: newRand(seed, 2).IntN(len(fixedQueries) * 3)}
	for _, v := range viewSpecs() {
		m.views = append(m.views, v.Name)
	}
	return m
}

// next returns an XPath query, or a view name when view is true.
func (m *readMix) next() (q string, view bool) {
	m.i++
	if m.i%3 == 2 {
		return m.views[(m.i/3)%len(m.views)], true
	}
	return fixedQueries[(m.i-m.i/3)%len(fixedQueries)], false
}

// lookups draws serve's Zipf-distributed person @id point lookups over a
// seeded permutation of the document's persons.
type lookups struct {
	z     *rand.Zipf
	perm  []int
	alias map[int]bool // persons currently carrying serve's alias name
}

// lookupUniverse caps the persons a lookup can name; it still exceeds the
// 128-entry result cache and the 256-entry program cache.
const lookupUniverse = 2000

// newLookups draws from stream; every stream shares one permutation, so
// the reader and the writer favour the same persons.
func newLookups(seed uint64, persons int, stream uint64) *lookups {
	n := min(persons, lookupUniverse)
	return &lookups{
		z:     rand.NewZipf(newRand(seed, stream), 1.1, 1, uint64(n-1)),
		perm:  newRand(seed, 3).Perm(persons)[:n],
		alias: map[int]bool{},
	}
}

func (l *lookups) person() int { return l.perm[l.z.Uint64()] }

func lookupQuery(p int) string { return fmt.Sprintf(`/site/people/person[@id="person%d"]/name`, p) }

// write is serve's point update to a looked-up person: add an alias name,
// or remove the one it carries, so the lookup's answer changes and the
// document stays level.
func (l *lookups) write() string {
	p := l.person()
	if l.alias[p] {
		delete(l.alias, p)
		return fmt.Sprintf(`delete /site/people/person[@id="person%d"]/name[2]`, p)
	}
	l.alias[p] = true
	return fmt.Sprintf(`insert <name>Alias %d</name> into /site/people/person[@id="person%d"]`, p, p)
}
