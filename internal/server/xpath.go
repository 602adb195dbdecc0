package server

import (
	"xivm/internal/core"
	"xivm/internal/pattern"
	"xivm/internal/qvm"
	"xivm/internal/xpath"
)

// This file is the serving path for /v1/db/{name}/xpath: the shard's
// delta-invalidated result cache, then the compiled tree walk over the
// epoch's document. The bridge to a tree pattern runs only to decide
// whether a walked result may be cached: the pattern is what the cache
// vets each applied write against (independence.Check), so queries the
// bridge refuses are always walked.

// xpathResponse computes the full response for q against one snapshot.
// It is the handler's core, split out so tests can pin answers to one
// epoch.
func (r *Registry) xpathResponse(sh *Shard, snap *core.Snapshot, q string) (XPathResponse, error) {
	resp := XPathResponse{Tenant: snap.Tenant, Version: snap.Version, Query: q}
	if e, ok := sh.qcache.get(q, snap.Version); ok {
		r.m.qcacheHits.Inc()
		resp.Matches = e.matches
		return resp, nil
	}
	matches, err := r.treeWalkMatches(snap, q)
	if err != nil {
		return resp, err
	}
	resp.Matches = matches
	if pat, err := bridgeQuery(q); err == nil {
		sh.qcache.put(&cachedResult{query: q, pat: pat, matches: matches, version: snap.Version})
	}
	return resp, nil
}

// bridgeQuery parses q and converts it to a tree pattern, or reports why
// it has none.
func bridgeQuery(q string) (*pattern.Pattern, error) {
	p, err := xpath.Parse(q)
	if err != nil {
		return nil, err
	}
	return xpath.ToPattern(p)
}

// treeWalkMatches evaluates q against the snapshot document with a
// compiled program (registry-wide LRU keyed by the query string).
func (r *Registry) treeWalkMatches(snap *core.Snapshot, q string) ([]MatchJSON, error) {
	prog, ok := r.progs.Get(q)
	if ok {
		r.m.xpathCacheHits.Inc()
	} else {
		r.m.xpathCacheMisses.Inc()
		var err error
		prog, err = qvm.CompileString(q)
		if err != nil {
			return nil, err
		}
		if r.progs.Add(q, prog) {
			r.m.xpathCacheEvicts.Inc()
		}
	}
	nodes := prog.Eval(snap.Doc())
	matches := make([]MatchJSON, 0, len(nodes))
	for _, n := range nodes {
		matches = append(matches, MatchJSON{ID: n.ID.String(), Label: n.Label, Value: n.StringValue()})
	}
	return matches, nil
}
