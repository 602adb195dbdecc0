package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"sync"
	"testing"
	"time"

	"xivm/internal/core"
	"xivm/internal/obs"
	"xivm/internal/update"
	"xivm/internal/xpath"
)

// xpathCorpus is the differential corpus for the /xpath serving path.
// cached marks the queries the bridge turns into a tree pattern: only
// those may enter the result cache; the rest are walked on every request.
var xpathCorpus = []struct {
	query  string
	cached bool
}{
	{`/site/people/person/name`, true},
	{`//open_auction//increase`, true},
	{`//open_auction//bidder//increase`, true},
	{`//open_auction[bidder]//initial`, true},
	{`//person[profile][homepage]/name`, true},
	{`//open_auction/bidder/increase`, true},
	{`/site/regions//item`, true},
	{`/site/people/person[1]/name`, false},        // positional
	{`//item//name/text()`, false},                // text()
	{`//person[count(profile)>=1]`, false},        // count()
	{`//person/following-sibling::person`, false}, // sibling axis
}

func newXPathRegistry(t *testing.T, m *obs.Metrics) (*Registry, *Shard) {
	t.Helper()
	if m == nil {
		m = obs.New()
	}
	reg, err := NewRegistry(RegistryConfig{
		Shard:      Config{Metrics: m},
		DefaultDoc: xpathTestDoc(),
		DefaultViews: []ViewSpec{
			{Name: "V1", Pattern: `//person{ID}//name{ID,val}`},
			{Name: "V2", Pattern: `//open_auction{ID}//increase{ID,val}`},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create(DefaultTenant, "", nil); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = reg.Shutdown(ctx)
	})
	sh, err := reg.Get(DefaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	return reg, sh
}

// xpathTestDoc guarantees auctions with bidders/initial and persons with
// profile+homepage so every corpus query has matches.
func xpathTestDoc() string {
	return `<site><people>` +
		`<person id="p0"><name>Ann</name><profile><age>30</age></profile><homepage>h0</homepage></person>` +
		`<person id="p1"><name>Bob</name><profile><age>41</age></profile></person>` +
		`<person id="p2"><name>Cyd</name><homepage>h2</homepage></person>` +
		`</people><open_auctions>` +
		`<open_auction id="a0"><initial>5</initial><bidder><increase>3</increase></bidder><bidder><increase>7</increase></bidder></open_auction>` +
		`<open_auction id="a1"><initial>9</initial><bidder><increase>3</increase></bidder></open_auction>` +
		`<open_auction id="a2"><initial>2</initial></open_auction>` +
		`</open_auctions><regions><item id="i0"><name>lamp</name></item></regions></site>`
}

// respBody fetches one xpath response body as raw bytes.
func respBody(t *testing.T, base, q string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/db/default/xpath?q=" + url.QueryEscape(q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", q, resp.StatusCode, b)
	}
	return b
}

// oracleMatches answers q with the interpreted evaluator over the
// snapshot's document: the reference every served answer, cached or
// walked, must equal by ID, label and value, in document order.
func oracleMatches(snap *core.Snapshot, q string) []MatchJSON {
	nodes := xpath.Eval(snap.Doc(), xpath.MustParse(q))
	out := make([]MatchJSON, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, MatchJSON{ID: n.ID.String(), Label: n.Label, Value: n.StringValue()})
	}
	return out
}

// TestXPathResultCacheCorpusDifferential is the content-level harness: for
// every corpus query, the cold (walked) and the repeated (cached when
// bridgeable) HTTP bodies must be byte-identical and equal the interpreted
// evaluator at the same epoch.
func TestXPathResultCacheCorpusDifferential(t *testing.T) {
	m := obs.New()
	reg, sh := newXPathRegistry(t, m)
	ts := httptest.NewServer(reg.Handler())
	t.Cleanup(ts.Close)
	cacheHits := m.Counter("server.xpath.rewrite.cache_hit")

	for _, c := range xpathCorpus {
		before := cacheHits.Value()
		cold := respBody(t, ts.URL, c.query)
		warm := respBody(t, ts.URL, c.query)
		if string(cold) != string(warm) {
			t.Fatalf("%s: repeated body differs\ncold: %s\nwarm: %s", c.query, cold, warm)
		}
		wantHits := int64(0)
		if c.cached {
			wantHits = 1
		}
		if hits := cacheHits.Value() - before; hits != wantHits {
			t.Fatalf("%s: %d cache hits over two requests, cached=%v", c.query, hits, c.cached)
		}
		var xr XPathResponse
		if err := json.Unmarshal(warm, &xr); err != nil {
			t.Fatal(err)
		}
		if len(xr.Matches) == 0 {
			t.Fatalf("%s: corpus query matched nothing", c.query)
		}
		if want := oracleMatches(sh.Epoch(), c.query); !slices.Equal(xr.Matches, want) {
			t.Fatalf("%s: served %+v, interpreted evaluator %+v", c.query, xr.Matches, want)
		}
	}
}

// TestXPathResultCacheInvalidation pins the delta-invalidation contract:
// repeats hit the cache; an affecting write drops the entry; an
// independent write leaves it serving at the NEW epoch.
func TestXPathResultCacheInvalidation(t *testing.T) {
	m := obs.New()
	reg, sh := newXPathRegistry(t, m)
	const q = `/site/people/person/name`
	ctx := context.Background()

	cacheHits := m.Counter("server.xpath.rewrite.cache_hit")
	ask := func() XPathResponse {
		t.Helper()
		snap := sh.Epoch()
		resp, err := reg.xpathResponse(sh, snap, q)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleMatches(snap, q); !slices.Equal(resp.Matches, want) {
			t.Fatalf("at version %d: served %+v, interpreted evaluator %+v", snap.Version, resp.Matches, want)
		}
		return resp
	}

	ask()
	if cacheHits.Value() != 0 {
		t.Fatal("cold query hit the cache")
	}
	second := ask()
	if cacheHits.Value() != 1 {
		t.Fatalf("repeat did not hit the cache (hits=%d)", cacheHits.Value())
	}

	// An independent write (labels disjoint from site/people/person/name,
	// and no sensitive label at or above its target) must NOT invalidate:
	// the entry keeps serving at the advanced epoch.
	if _, _, err := sh.Apply(ctx, update.MustParse(`insert <spectator/> into /site/regions/item`)); err != nil {
		t.Fatal(err)
	}
	afterIndep := ask()
	if cacheHits.Value() != 2 {
		t.Fatalf("independent write evicted the entry (hits=%d)", cacheHits.Value())
	}
	if afterIndep.Version <= second.Version {
		t.Fatalf("epoch did not advance (%d -> %d)", second.Version, afterIndep.Version)
	}

	// An affecting write must drop the entry; the recomputed answer must
	// reflect it.
	if _, _, err := sh.Apply(ctx, update.MustParse(`insert <person id="p9"><name>Zed</name></person> into /site/people`)); err != nil {
		t.Fatal(err)
	}
	if m.Counter("server.xpath.rewrite.cache_invalidate").Value() == 0 {
		t.Fatal("affecting write did not invalidate")
	}
	afterWrite := ask()
	if cacheHits.Value() != 2 {
		t.Fatal("invalidated entry still served from cache")
	}
	if len(afterWrite.Matches) != len(second.Matches)+1 {
		t.Fatalf("answer missed the insert: %d matches, want %d", len(afterWrite.Matches), len(second.Matches)+1)
	}
}

// TestXPathResultCacheStressUnderMutation: readers pin a snapshot and
// demand every answer, cached or walked, equal the interpreted evaluator
// at that exact epoch while writers churn the document. Run under -race
// in CI.
func TestXPathResultCacheStressUnderMutation(t *testing.T) {
	m := obs.New()
	reg, sh := newXPathRegistry(t, m)
	ctx := context.Background()

	writerStmts := []string{
		`insert <person><name>Churn</name><profile><age>1</age></profile><homepage>h9</homepage></person> into /site/people`,
		`for $x in /site/open_auctions/open_auction insert <bidder><increase>4</increase></bidder>`,
		`delete /site/people/person/homepage`,
		`delete /site/open_auctions/open_auction/bidder`,
		`insert <open_auction><initial>7</initial><bidder><increase>2</increase></bidder></open_auction> into /site/open_auctions`,
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				st := update.MustParse(writerStmts[(seed+i)%len(writerStmts)])
				if _, _, err := sh.Apply(ctx, st); err != nil {
					t.Errorf("writer: %v", err)
					return
				}
			}
		}(w)
	}
	var readers sync.WaitGroup
	for rd := 0; rd < 4; rd++ {
		readers.Add(1)
		go func(seed int) {
			defer readers.Done()
			for i := 0; i < 200; i++ {
				q := xpathCorpus[(seed+i)%len(xpathCorpus)].query
				snap := sh.Epoch()
				resp, err := reg.xpathResponse(sh, snap, q)
				if err != nil {
					t.Errorf("%s: %v", q, err)
					return
				}
				if want := oracleMatches(snap, q); !slices.Equal(resp.Matches, want) {
					t.Errorf("%s at version %d: served %+v, interpreted evaluator %+v", q, snap.Version, resp.Matches, want)
					return
				}
			}
		}(rd)
	}
	readers.Wait()
	close(stop)
	wg.Wait()
	if m.Counter("server.xpath.rewrite.cache_hit").Value() == 0 {
		t.Fatal("no reader was served from the result cache")
	}
}
