// Package server is the concurrent, multi-tenant serving layer: a Registry
// hosts many independent databases (tenants) in one process, each served by
// its own shard — a maintenance engine (bare, or wrapped in the
// internal/wal durability layer) behind a single-writer apply loop that
// answers queries while updates stream in.
//
// The per-tenant concurrency model is single-writer / snapshot-isolated
// readers:
//
//   - All of a tenant's updates funnel through one bounded queue drained by
//     a single apply goroutine, which preserves the engine's single-threaded
//     mutation contract and rides the WAL's group commit when the backend
//     is a wal.DB. A full queue rejects immediately with ErrQueueFull
//     (surfaced as HTTP 429), which is the backpressure signal — and the
//     isolation boundary: a hot tenant saturates only its own queue and
//     writer, never another tenant's.
//
//   - The writer drains whatever is waiting, up to Config.MaxBatch
//     requests, and hands the run to pulopt.ApplyRun — the one apply path
//     the writer, replication followers and WAL recovery share. A lone
//     request is applied directly. A longer run is planned once into one
//     combined delta (Section 5's aggregation/reduction with the IO/LO/NLO
//     conflict rules as the safety gate) and propagated through the engine
//     once per same-kind run, amortizing FindTargets, propagation, and —
//     the dominant cost — the per-epoch snapshot over the whole batch. Any
//     gate rejection, conflict, or already-cancelled request falls the run
//     back to per-statement application, so batching is never worse than
//     the sequential path and never observable: every constituent
//     statement is journaled before the engine mutates, the engine version
//     advances by exactly the batch's statement count, and acks carry the
//     single epoch published for the batch (read-your-writes holds
//     unchanged).
//
//   - After every applied batch or statement the writer publishes a fresh
//     epoch: an immutable core.Snapshot (view rows that later refreshes
//     copy on write, plus an ID-preserving document copy that carries its
//     label index, stamped with the tenant name) swapped in with one
//     atomic pointer store. Any number of concurrent readers serve view
//     and XPath queries from the last published epoch without taking any
//     lock the writer can contend on. Readers therefore observe only
//     states that existed between whole statements — never a
//     half-propagated view.
//
//   - Shutdown closes the queue, lets the writer drain every accepted
//     request, then syncs the backend (forcing the WAL group-commit buffer
//     to disk) before reporting done.
//
// The Registry adds the tenant lifecycle on top (create, drop, list — all
// crash-safe, see internal/wal's tenant layout) and the HTTP surface: the
// data plane under /v1/db/{name}/… and the admin plane under /v1/db.
package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"xivm/internal/core"
	"xivm/internal/obs"
	"xivm/internal/pulopt"
	"xivm/internal/update"
)

// ErrQueueFull is returned when a tenant's apply queue is at capacity;
// callers should back off and retry (HTTP maps it to 429 Too Many
// Requests).
var ErrQueueFull = errors.New("server: apply queue full")

// ErrShuttingDown is returned for updates submitted after the shard began
// draining (HTTP maps it to 503 Service Unavailable).
var ErrShuttingDown = errors.New("server: shutting down")

// ErrReadOnly is returned for updates submitted to a replica shard — a
// follower serves reads at its applied LSN and never accepts writes (HTTP
// maps it to 403 Forbidden, code read_only, pointing at the leader).
var ErrReadOnly = errors.New("server: read-only follower")

// Backend is what the serving layer needs from the engine side: the wal.DB
// durability wrapper satisfies it directly, and EngineBackend adapts a bare
// engine. Every method is only ever called from the single writer goroutine
// (Engine also at construction time).
type Backend interface {
	pulopt.Backend
	// Sync forces buffered durability state (the WAL group-commit window)
	// to disk; a no-op for non-durable backends.
	Sync() error
}

// EngineBackend adapts a bare, non-durable engine to the Backend interface.
type EngineBackend = pulopt.EngineBackend

// Config tunes one shard (one tenant's serving loop). The zero value
// selects the defaults noted on each field.
type Config struct {
	// QueueDepth bounds the tenant's apply queue; submissions beyond it
	// fail fast with ErrQueueFull. Default 64.
	QueueDepth int
	// RequestTimeout is the per-request deadline applied to HTTP update
	// handlers (0 = 10s; negative = no deadline). A statement whose
	// deadline expires while still queued is abandoned by its client; the
	// writer then observes the cancelled context and skips it before
	// mutating anything.
	RequestTimeout time.Duration
	// MaxBatch caps how many waiting statements the writer drains into one
	// translated batch (0 = pulopt.DefaultMaxBatch; 1 disables batching
	// and restores strict per-statement application). Batching only
	// engages when more than one request is already queued, so an idle
	// tenant pays nothing.
	MaxBatch int
	// Metrics selects the registry for the server.* and snapshot.*
	// instruments (nil = obs.Default()).
	Metrics *obs.Metrics
}

func (c Config) queueDepth() int {
	if c.QueueDepth <= 0 {
		return 64
	}
	return c.QueueDepth
}

func (c Config) maxBatch() int {
	if c.MaxBatch <= 0 {
		return pulopt.DefaultMaxBatch
	}
	return c.MaxBatch
}

func (c Config) requestTimeout() time.Duration {
	if c.RequestTimeout == 0 {
		return 10 * time.Second
	}
	if c.RequestTimeout < 0 {
		return 0
	}
	return c.RequestTimeout
}

// Shard serves one tenant: snapshot-isolated reads over a single-writer
// apply loop. Create with NewShard (or through a Registry), stop with
// Close. A Shard has no HTTP surface of its own — the Registry routes
// /v1/db/{name}/… requests to it.
type Shard struct {
	name    string
	cfg     Config
	backend Backend
	eng     *core.Engine
	m       *serverMetrics
	tm      *tenantMetrics

	// closer releases the backend (closing the WAL for durable tenants)
	// after the writer has drained; nil for backends nobody owns.
	closer func() error

	// epoch is the last published snapshot; readers load it with one
	// atomic pointer read and never touch the live engine.
	epoch atomic.Pointer[core.Snapshot]

	// repl is the replication surface of a durable backend (wal.DB),
	// captured before any test wrapping; nil for in-memory tenants and for
	// replicas. The repl HTTP handlers stream from it.
	repl ReplSource

	// replica marks a read-only follower shard: no writer loop, epochs are
	// published externally (PublishReplica) by the replication tailer, and
	// every Apply rejects with ErrReadOnly. appliedLSN/leaderLast track the
	// follower's position for lag reporting.
	replica    bool
	appliedLSN atomic.Uint64
	leaderLast atomic.Uint64

	// qcache is the per-shard XPath result cache, invalidated by the
	// engine's applied-statement delta stream (core.Options.OnApplied); the
	// hook fires on the applying goroutine before publish, so readers at a
	// new epoch never see entries a write may have affected.
	qcache *queryCache

	queue chan *applyReq
	done  chan struct{} // closed when the writer loop has fully drained

	// mu guards closed against racing queue sends: Shutdown closes the
	// queue under the write lock, submissions send under the read lock.
	mu     sync.RWMutex
	closed bool
}

type applyReq struct {
	ctx  context.Context
	st   *update.Statement
	resp chan applyResult // buffered(1): the writer never blocks on it
}

type applyResult struct {
	rep     *core.Report
	version uint64 // epoch version at which the update's effects are readable
	err     error
}

// NewShard builds a tenant's shard over the backend, publishes the initial
// epoch, and starts the writer loop. The backend's engine must not be
// mutated by anyone else from this point on. closer, when non-nil, is
// called once after the writer drains (Close); use it to release a
// durable backend.
func NewShard(name string, b Backend, closer func() error, cfg Config) *Shard {
	s := &Shard{
		name:    name,
		cfg:     cfg,
		backend: b,
		eng:     b.Engine(),
		m:       newServerMetrics(cfg.Metrics),
		tm:      newTenantMetrics(cfg.Metrics, name),
		closer:  closer,
		queue:   make(chan *applyReq, cfg.queueDepth()),
		done:    make(chan struct{}),
	}
	s.initQueryCache()
	s.publish()
	go s.applyLoop()
	return s
}

// initQueryCache creates the result cache at the engine's current version
// and subscribes it to the applied-statement delta stream. Must run before
// the engine is shared with an applying goroutine.
func (s *Shard) initQueryCache() {
	s.qcache = newQueryCache(s.eng.Version())
	s.eng.SetOnApplied(func(sts []*update.Statement, version uint64) {
		if n := s.qcache.noteApplied(sts, version); n > 0 {
			s.m.qcacheInval.Add(int64(n))
		}
	})
}

// NewReplicaShard builds a read-only follower shard around an engine the
// replication tailer owns: no queue, no writer loop, the initial epoch
// published from the engine's current (just-restored) state. From here on
// only the tailer may mutate the engine, publishing each batch's state via
// PublishReplica; readers serve from the last published epoch exactly as on
// a leader shard.
func NewReplicaShard(name string, eng *core.Engine, appliedLSN, leaderLast uint64, cfg Config) *Shard {
	s := &Shard{
		name:    name,
		cfg:     cfg,
		backend: EngineBackend{Eng: eng},
		eng:     eng,
		m:       newServerMetrics(cfg.Metrics),
		tm:      newTenantMetrics(cfg.Metrics, name),
		replica: true,
		done:    make(chan struct{}),
	}
	s.appliedLSN.Store(appliedLSN)
	s.leaderLast.Store(leaderLast)
	s.initQueryCache()
	s.publish()
	close(s.done) // no writer loop to drain
	return s
}

// PublishReplica publishes snap as the follower's new epoch and records the
// replication position it reflects. Tailer-goroutine only, mirroring the
// writer-only contract of publish.
func (s *Shard) PublishReplica(snap *core.Snapshot, appliedLSN, leaderLast uint64) {
	snap.Tenant = s.name
	s.appliedLSN.Store(appliedLSN)
	s.leaderLast.Store(leaderLast)
	s.epoch.Store(snap)
	s.m.epochs.Inc()
	s.tm.epochs.Inc()
}

// Replica reports whether this shard is a read-only follower.
func (s *Shard) Replica() bool { return s.replica }

// SetLeaderLast updates a replica shard's view of the leader's log tip
// without publishing a new epoch — a caught-up poll that shipped no frames
// still learns the tip, and lag reporting should reflect it. No-op on
// non-replica shards.
func (s *Shard) SetLeaderLast(last uint64) {
	if s.replica {
		s.leaderLast.Store(last)
	}
}

// LSNs returns the shard's replication position: the LSN whose effects the
// serving epoch contains, and the last LSN known to exist (the local log
// tip on a leader, the leader's advertised tip on a follower). Both are 0
// for in-memory tenants.
func (s *Shard) LSNs() (applied, last uint64) {
	if s.replica {
		return s.appliedLSN.Load(), s.leaderLast.Load()
	}
	if s.repl != nil {
		st := s.repl.ReplStatusNow()
		// The leader's serving epoch always reflects its own log tip: the
		// writer journals and applies synchronously before publishing.
		return st.LastLSN, st.LastLSN
	}
	return 0, 0
}

// Name returns the tenant this shard serves.
func (s *Shard) Name() string { return s.name }

// Epoch returns the last published snapshot. It never returns nil and the
// result is immutable — hold it as long as needed.
func (s *Shard) Epoch() *core.Snapshot { return s.epoch.Load() }

// QueueLen reports how many accepted updates are waiting for the writer.
func (s *Shard) QueueLen() int { return len(s.queue) }

// QueueCap reports the tenant's queue-depth limit.
func (s *Shard) QueueCap() int { return cap(s.queue) }

// Apply submits one statement to the writer loop and waits for it to be
// applied and its epoch published, honoring ctx. It returns the engine
// report and the epoch version at which the update's effects are visible
// to readers (under batching, the report covers the whole batch the
// statement rode in). ErrQueueFull and ErrShuttingDown reject without
// queuing.
//
// Apply is at-most-once observable, not at-most-once: a ctx expiring while
// the request is queued abandons the WAIT, not necessarily the statement.
// If the writer reaches the request before starting to apply it, the
// statement is skipped with no effect; if the writer had already begun (or
// drained it into a batch), the statement is still applied, journaled, and
// published — the client just never sees the ack. Callers that time out
// must therefore treat the statement's fate as unknown; the
// server.abandoned_applied counter reports how often the applied-but-
// unacknowledged case actually happens.
func (s *Shard) Apply(ctx context.Context, st *update.Statement) (*core.Report, uint64, error) {
	wait, err := s.ApplyAsync(ctx, st)
	if err != nil {
		return nil, 0, err
	}
	return wait()
}

// ApplyAsync enqueues one statement and returns immediately with a wait
// function, under the same contract as Apply (which is ApplyAsync + wait).
// Split submission lets one goroutine enqueue several statements
// back-to-back — guaranteeing their FIFO order in the writer's queue, which
// a goroutine-per-Apply submission cannot — and collect the acks
// afterwards; the bursty stress tests use it to force deterministic
// multi-statement batches.
func (s *Shard) ApplyAsync(ctx context.Context, st *update.Statement) (func() (*core.Report, uint64, error), error) {
	if s.replica {
		return nil, ErrReadOnly
	}
	req := &applyReq{ctx: ctx, st: st, resp: make(chan applyResult, 1)}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		s.m.rejectedShutdown.Inc()
		return nil, ErrShuttingDown
	}
	select {
	case s.queue <- req:
		s.mu.RUnlock()
		s.m.enqueued.Inc()
	default:
		s.mu.RUnlock()
		s.m.rejectedFull.Inc()
		s.tm.rejected.Inc()
		return nil, ErrQueueFull
	}
	return func() (*core.Report, uint64, error) {
		select {
		case res := <-req.resp:
			return res.rep, res.version, res.err
		case <-ctx.Done():
			// The writer will observe the cancelled context; if it had
			// already started applying, the engine's cancellation contract
			// keeps every view consistent and the writer still publishes
			// any new state (see Apply's at-most-once-observable note).
			return nil, 0, ctx.Err()
		}
	}, nil
}

// Shutdown stops accepting updates, waits for the writer to drain every
// accepted request and sync the backend, and returns nil on a clean drain
// or ctx.Err() if the deadline expires first (the writer keeps draining in
// the background either way). Safe to call more than once.
func (s *Shard) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		if s.queue != nil {
			close(s.queue)
		}
	}
	s.mu.Unlock()
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close drains the shard (Shutdown) and then releases its backend. The
// backend is released only after a complete drain — if ctx expires first,
// Close returns the error and leaves the backend open so the still-running
// writer never touches closed files.
func (s *Shard) Close(ctx context.Context) error {
	if err := s.Shutdown(ctx); err != nil {
		return err
	}
	if s.closer == nil {
		return nil
	}
	return s.closer()
}

// draining reports whether Shutdown has begun.
func (s *Shard) draining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.closed
}

// applyLoop is the single writer: it drains the queue in FIFO order —
// adaptively batching when more than one request is waiting — and after the
// queue closes it syncs the backend so acknowledged updates are durable
// before done is signalled.
func (s *Shard) applyLoop() {
	for req := range s.queue {
		s.applyRun(s.drainBatch(req))
	}
	if err := s.backend.Sync(); err != nil {
		s.m.syncErrors.Inc()
	}
	close(s.done)
}

// drainBatch greedily collects whatever is already waiting behind first, up
// to the batch cap, without ever blocking: an idle tenant always takes the
// per-statement path.
func (s *Shard) drainBatch(first *applyReq) []*applyReq {
	batch := []*applyReq{first}
	for len(batch) < s.cfg.maxBatch() {
		select {
		case req, ok := <-s.queue:
			if !ok {
				return batch // queue closed: finish what was accepted
			}
			batch = append(batch, req)
		default:
			return batch
		}
	}
	return batch
}

// respond delivers one result, counting the applied-but-unacknowledged case
// (the client's ctx expired after the writer committed to the statement —
// its effects are published but nobody is reading the ack).
func (s *Shard) respond(req *applyReq, res applyResult) {
	if res.err == nil && req.ctx.Err() != nil {
		s.m.abandonedApplied.Inc()
	}
	req.resp <- res
}

// applyRun applies drained requests through the run applier and answers
// each one. After every step — a translated batch, or one statement on its
// own — any new engine version, even one reached by a part-applied or
// cancelled application, is published before the clients are answered, so
// an acknowledged update is always readable (read-your-writes) and an
// unacknowledged one is at worst readable early, never lost. Every request
// in a translated batch is answered with the batch's single epoch version.
func (s *Shard) applyRun(batch []*applyReq) {
	run := make([]pulopt.Stmt, len(batch))
	for i, req := range batch {
		run[i] = pulopt.Stmt{Ctx: req.ctx, St: req.st}
	}
	// drainBatch never exceeds the cap, so the run is one chunk and a
	// rejected plan is one fallback.
	fellBack := false
	_ = pulopt.ApplyRun(guardedBackend{s}, run, s.cfg.maxBatch(), func(st pulopt.Step) error {
		if st.Rejected != "" && !fellBack {
			fellBack = true
			s.m.batchFallbacks.Inc()
			s.m.reg.Counter("server.batch.fallback." + st.Rejected).Inc()
		}
		req := batch[st.First]
		if st.Abandoned {
			s.m.abandoned.Inc()
			s.respond(req, applyResult{err: st.Err})
			return nil
		}
		if s.eng.Version() != s.Epoch().Version {
			s.publish()
		}
		version := s.Epoch().Version
		if st.Batched && st.Err == nil {
			s.m.batches.Inc()
			s.m.batchedStatements.Add(int64(st.Count))
		}
		// A batch failing mid-flight (journal error, engine fault) leaves
		// the applied prefix in place — exactly what a durable log would
		// replay. Acks follow the boundary: landed statements succeed at
		// the published version, the rest report the error.
		for i, req := range batch[st.First : st.First+st.Count] {
			if i < st.Applied {
				s.m.applied.Inc()
				s.tm.applied.Inc()
				s.respond(req, applyResult{rep: st.Report, version: version})
			} else {
				s.m.applyErrors.Inc()
				s.respond(req, applyResult{rep: st.Report, version: version, err: st.Err})
			}
		}
		return nil
	})
}

// guardedBackend is the writer's backend for the run applier: it times
// every application and contains a panic escaping the engine's own
// per-view recovery (core.propagateAll repairs panicking views, but a panic
// elsewhere in the apply path would otherwise kill the writer goroutine and
// wedge every client of this tenant). The engine is then repaired by
// recomputing all views and the application is reported failed.
type guardedBackend struct{ s *Shard }

func (g guardedBackend) Engine() *core.Engine { return g.s.eng }

func (g guardedBackend) ApplyCtx(ctx context.Context, st *update.Statement) (rep *core.Report, err error) {
	s := g.s
	t0 := time.Now()
	defer func() { s.m.applyLatency.Observe(time.Since(t0)) }()
	defer func() {
		if r := recover(); r != nil {
			s.m.applyPanics.Inc()
			s.repair()
			rep, err = nil, fmt.Errorf("server: apply panicked: %v", r)
		}
	}()
	return s.backend.ApplyCtx(ctx, st)
}

// ApplyBatchCtx also repairs the views after a mid-batch fault, so the
// writer (and the epoch it publishes next) stays consistent; applied
// reports how many statements' effects survive.
func (g guardedBackend) ApplyBatchCtx(ctx context.Context, plan *pulopt.BatchPlan) (rep *core.Report, applied int, err error) {
	s := g.s
	t0 := time.Now()
	defer func() {
		d := time.Since(t0)
		s.m.applyLatency.Observe(d)
		s.m.batchLatency.Observe(d)
	}()
	defer func() {
		if r := recover(); r != nil {
			s.m.applyPanics.Inc()
			s.repair()
			rep, applied, err = nil, 0, fmt.Errorf("server: batch apply panicked: %v", r)
		}
	}()
	rep, applied, err = s.backend.ApplyBatchCtx(ctx, plan)
	if err != nil && applied < len(plan.Statements) {
		s.repair()
	}
	return rep, applied, err
}

// repair recomputes every view after a contained fault. A repair rebuilds
// state outside the delta stream (the document may even have changed
// without a version bump): cached results are no longer trustworthy at any
// version.
func (s *Shard) repair() {
	s.eng.RepairAllViews()
	s.qcache.dropAll(s.eng.Version())
}

// publish captures the engine state, stamps it with the tenant name, and
// swaps it in as the new epoch. Writer-goroutine only (and once from
// NewShard, before the loop starts).
func (s *Shard) publish() {
	t0 := time.Now()
	snap := s.eng.Snapshot()
	snap.Tenant = s.name
	s.epoch.Store(snap)
	s.m.publishLatency.Observe(time.Since(t0))
	s.m.epochs.Inc()
	s.tm.epochs.Inc()
	var rows int64
	for i := range snap.Views {
		rows += int64(len(snap.Views[i].Rows))
	}
	s.m.epochRows.Add(rows)
	s.m.epochDocNodes.Add(int64(snap.Doc().Size()))
}
