package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"xivm/internal/obs"
)

// span is one recorded interval. Spans of one request share Req; the
// server-side handler span and the engine spans of a write name the
// client span as their parent.
type span struct {
	ID      uint64 `json:"id"`
	Req     uint64 `json:"req"`
	Parent  uint64 `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// maxSpans bounds the in-memory trace; later spans are counted, not kept.
const maxSpans = 400_000

// spanStore keeps a traced run's spans in memory until the run ends.
type spanStore struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	dropped int
}

func newSpanStore() *spanStore { return &spanStore{t0: time.Now()} }

// add records s over [start, start+d). Safe on a nil store (untraced run).
func (s *spanStore) add(sp span, start time.Time, d time.Duration) {
	if s == nil {
		return
	}
	sp.StartNS = start.Sub(s.t0).Nanoseconds()
	sp.DurNS = d.Nanoseconds()
	s.mu.Lock()
	if len(s.spans) < maxSpans {
		s.spans = append(s.spans, sp)
	} else {
		s.dropped++
	}
	s.mu.Unlock()
}

// engineTracer collects the engine's own spans through core.WithTracer,
// attributing them to the write being applied.
type engineTracer struct{ b *bench }

type engineSpan struct {
	t   engineTracer
	sp  span
	at  time.Time
	off bool
}

func (t engineTracer) StartSpan(name string) obs.Span {
	if !t.b.tracing() {
		return engineSpan{off: true}
	}
	req := t.b.curWrite.Load()
	return engineSpan{t: t, at: time.Now(), sp: span{ID: t.b.ids.Add(1), Req: req, Parent: req, Name: "engine." + name}}
}

func (s engineSpan) End() {
	if s.off {
		return
	}
	s.t.b.spans.add(s.sp, s.at, time.Since(s.at))
}

// writeSpans writes the traced run's spans as JSON lines under dir.
func (b *bench) writeSpans(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", b.w.name, b.cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	b.spans.mu.Lock()
	for i := range b.spans.spans {
		if err := enc.Encode(&b.spans.spans[i]); err != nil {
			b.spans.mu.Unlock()
			f.Close()
			return err
		}
	}
	n, dropped := len(b.spans.spans), b.spans.dropped
	b.spans.mu.Unlock()
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(b.cfg.stderr, "perfbench: %d spans (%d dropped) written to %s\n", n, dropped, path)
	return nil
}

// delta is the change of the program's counters and histograms over one
// phase.
type delta struct {
	c map[string]int64
	h map[string][2]int64 // count, sum ns
}

func diff(before, after obs.Snapshot) delta {
	d := delta{c: map[string]int64{}, h: map[string][2]int64{}}
	for _, c := range after.Counters {
		d.c[c.Name] += c.Value
	}
	for _, c := range before.Counters {
		d.c[c.Name] -= c.Value
	}
	for _, h := range after.Histograms {
		v := d.h[h.Name]
		d.h[h.Name] = [2]int64{v[0] + h.Count, v[1] + h.SumNS}
	}
	for _, h := range before.Histograms {
		v := d.h[h.Name]
		d.h[h.Name] = [2]int64{v[0] - h.Count, v[1] - h.SumNS}
	}
	return d
}

// meanMS is a histogram's mean observation over the phase.
func (d delta) meanMS(name string) float64 {
	h := d.h[name]
	if h[0] == 0 {
		return 0
	}
	return float64(h[1]) / float64(h[0]) / 1e6
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// result assembles the printed metrics: the end-to-end set on untraced
// runs, the per-layer set on traced runs.
func (b *bench) result() *result {
	res := &result{Correct: true, Attempted: b.attempted.Load(), Failed: b.failed.Load(), Metrics: map[string]metric{}}
	if b.cfg.trace {
		for _, s := range perLayer {
			res.Metrics[s.name] = metric{Value: b.layerValue(s.name), Unit: s.unit}
		}
		return res
	}
	w, r := sorted(b.writes.lat), sorted(b.reads.lat)
	v := map[string]float64{
		"setup_s":      median(b.setupTimes).Seconds(),
		"write_p50_ms": pct(w, 0.50),
		"write_p99_ms": pct(w, 0.99),
		"write_ops_s":  b.writes.rate(b.loadStart),
		"read_p50_ms":  pct(r, 0.50),
		"read_p99_ms":  pct(r, 0.99),
		"read_ops_s":   b.reads.rate(b.loadStart),
		"rss_peak_mb":  b.rssPeak,
	}
	for _, s := range endToEnd {
		res.Metrics[s.name] = metric{Value: v[s.name], Unit: s.unit}
	}
	return res
}

// layerValue computes one per-layer metric from the load phase's counter
// and histogram deltas, the benchmark's own timings, and runtime.MemStats.
func (b *bench) layerValue(name string) float64 {
	d := diff(b.loadSnap[0], b.loadSnap[1])
	setup := diff(b.setupSnap[0], b.setupSnap[1])
	stmts := float64(d.c["server.apply.count"])
	writes := float64(len(b.writes.lat))
	reads := float64(len(b.reads.lat))
	// Residuals start from the round trip: the rest of an open-loop op's
	// latency is the sender's own delay, reported as loadgen.late_ms.
	wMean, rMean := ratio(ms(b.writes.rt), writes), ratio(ms(b.reads.rt), reads)
	overhead := func(c *class) float64 {
		if c.hN.Load() == 0 || len(c.lat) == 0 {
			return 0
		}
		return ms(c.rt)/float64(len(c.lat)) - float64(c.hSum.Load())/float64(c.hN.Load())/1e6
	}
	writeOverhead, readOverhead := overhead(&b.writes), overhead(&b.reads)
	apply, publish := d.meanMS("server.apply.latency"), d.meanMS("snapshot.publish")
	readServer := ratio(float64(d.h["server.xpath.latency"][1]+d.h["server.query.latency"][1])/1e6,
		float64(d.h["server.xpath.latency"][0]+d.h["server.query.latency"][0]))
	switch name {
	case "server.publish_ms":
		return publish
	case "server.epoch_doc_nodes":
		return ratio(float64(d.c["snapshot.doc.nodes"]), float64(d.c["snapshot.epochs"]))
	case "server.epoch_rows":
		return ratio(float64(d.c["snapshot.rows"]), float64(d.c["snapshot.epochs"]))
	case "server.apply_ms":
		return apply
	case "server.queue_plan_ms", "write.unaccounted_ms":
		// The program has no histogram for queue wait and batch planning,
		// so this layer is the residual of the write path: both names
		// report it until the program times it itself.
		if writes == 0 {
			return 0
		}
		return wMean - writeOverhead - apply - publish
	case "server.batch_share":
		return ratio(float64(d.c["server.batch.statements"]), stmts)
	case "server.batch_size":
		return ratio(float64(d.c["server.batch.statements"]), float64(d.c["server.batch.count"]))
	case "server.batch_fallbacks":
		return float64(d.c["server.batch.fallbacks"])
	case "server.xpath_ms":
		return d.meanMS("server.xpath.latency")
	case "server.view_ms":
		return d.meanMS("server.query.latency")
	case "server.qcache_hit_ratio":
		return ratio(float64(d.c["server.xpath.rewrite.cache_hit"]), float64(d.h["server.xpath.latency"][0]))
	case "server.qcache_invalidations":
		return float64(d.c["server.xpath.rewrite.cache_invalidate"])
	case "server.rewrite_hit_ratio":
		hit := float64(d.c["server.xpath.rewrite.hit"])
		return ratio(hit, hit+float64(d.c["server.xpath.rewrite.miss"]))
	case "server.progcache_hit_ratio":
		hit := float64(d.c["server.xpath.cache.hit"])
		return ratio(hit, hit+float64(d.c["server.xpath.cache.miss"]))
	case "server.rejected":
		return float64(d.c["server.reject.queue_full"] + d.c["server.reject.shutdown"])
	case "http.write_overhead_ms":
		return writeOverhead
	case "http.read_overhead_ms":
		return readOverhead
	case "http.read_bytes":
		return ratio(float64(b.reads.bytes), reads)
	case "wal.fsync_ms":
		return d.meanMS("wal.fsync.ns")
	case "wal.fsyncs_per_stmt":
		return ratio(float64(d.c["wal.fsync.count"]), stmts)
	case "wal.checkpoints":
		return float64(d.c["wal.checkpoint.count"])
	case "wal.checkpoint_mb":
		return float64(d.c["wal.checkpoint.bytes"]) / (1 << 20)
	case "wal.bytes_per_stmt":
		return ratio(float64(d.c["wal.append.bytes"]), float64(d.c["wal.append.count"]))
	case "wal.write_amp":
		return ratio(float64(d.c["wal.append.bytes"]+d.c["wal.checkpoint.bytes"]), float64(b.stmtBytes.Load()))
	case "wal.recover_stmt_ms":
		return ratio(ms(median(b.setupTimes)), float64(setup.c["wal.recover.replayed"])/float64(len(b.setupTimes)))
	case "wal.recover_replayed":
		return float64(setup.c["wal.recover.replayed"]) / float64(len(b.setupTimes))
	case "core.find_targets_ms":
		return d.meanMS("core.phase." + obs.PhaseFindTargets)
	case "core.compute_delta_ms":
		return d.meanMS("core.phase." + obs.PhaseComputeDelta)
	case "core.get_expression_ms":
		return d.meanMS("core.phase." + obs.PhaseGetExpression)
	case "core.execute_update_ms":
		return d.meanMS("core.phase." + obs.PhaseExecuteUpdate)
	case "core.update_lattice_ms":
		return d.meanMS("core.phase." + obs.PhaseUpdateLattice)
	case "core.targets_per_stmt":
		return ratio(float64(d.c["core.targets"]), stmts)
	case "core.delta_items_per_stmt":
		return ratio(float64(d.c["core.delta.items"]), stmts)
	case "core.terms_evaluated_per_stmt":
		return ratio(float64(d.c["core.terms.evaluated"]), stmts)
	case "core.rows_changed_per_stmt":
		return ratio(float64(d.c["core.rows.added"]+d.c["core.rows.removed"]+d.c["core.rows.modified"]), stmts)
	case "go.alloc_mb_per_write":
		return ratio(float64(b.mem[1].TotalAlloc-b.mem[0].TotalAlloc)/(1<<20), writes)
	case "go.gc_pause_ms":
		return float64(b.mem[1].PauseTotalNs-b.mem[0].PauseTotalNs) / 1e6
	case "go.gc_cycles":
		return float64(b.mem[1].NumGC - b.mem[0].NumGC)
	case "loadgen.late_ms":
		return pct(sorted(b.late), 0.99)
	case "trace.overhead":
		c := &b.reads
		if b.w.primaryWrite {
			c = &b.writes
		}
		return ratio(pct(sorted(c.split[1]), 0.5), pct(sorted(c.split[0]), 0.5))
	case "read.unaccounted_ms":
		if reads == 0 {
			return 0
		}
		return rMean - readOverhead - readServer
	case "fail_ratio":
		return ratio(float64(b.failed.Load()), float64(b.attempted.Load()))
	}
	panic("perfbench: no computation for per-layer metric " + name)
}
