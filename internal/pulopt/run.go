package pulopt

import (
	"context"
	"errors"

	"xivm/internal/core"
	"xivm/internal/update"
)

// DefaultMaxBatch caps how many statements ApplyRun translates into one
// batch when a caller sets no cap of its own. Replication followers and WAL
// recovery always use it; a serving shard uses it unless configured.
const DefaultMaxBatch = 32

// Backend is what ApplyRun applies through: an engine, plus the two ways to
// mutate it. A durable backend journals inside both apply methods.
type Backend interface {
	// Engine exposes the underlying maintenance engine; ApplyRun plans
	// batches against its current document.
	Engine() *core.Engine
	// ApplyCtx journals (when durable) and applies one statement.
	ApplyCtx(ctx context.Context, st *update.Statement) (*core.Report, error)
	// ApplyBatchCtx journals every constituent statement (when durable)
	// and applies a translated batch, one propagation pass per unit. It
	// returns the merged report and how many statements' effects landed —
	// len(plan.Statements) unless journaling or a unit failed partway.
	ApplyBatchCtx(ctx context.Context, plan *BatchPlan) (*core.Report, int, error)
}

// EngineBackend adapts a bare, non-durable engine to Backend (and, with its
// no-op Sync, to the serving layer's backend interface).
type EngineBackend struct{ Eng *core.Engine }

// Engine returns the wrapped engine.
func (b EngineBackend) Engine() *core.Engine { return b.Eng }

// ApplyCtx applies one statement through the engine.
func (b EngineBackend) ApplyCtx(ctx context.Context, st *update.Statement) (*core.Report, error) {
	return b.Eng.ApplyStatementCtx(ctx, st)
}

// ApplyBatchCtx applies a translated batch through the engine; with no
// journal there is nothing to write ahead.
func (b EngineBackend) ApplyBatchCtx(ctx context.Context, plan *BatchPlan) (*core.Report, int, error) {
	return b.Eng.ApplyBatchCtx(ctx, plan.Units)
}

// Sync is a no-op: a bare engine has no durability buffer.
func (EngineBackend) Sync() error { return nil }

// Stmt is one statement of a run, with the context of whoever submitted it.
type Stmt struct {
	Ctx context.Context
	St  *update.Statement
}

// Step is one application ApplyRun made: a translated batch standing for a
// whole chunk, or one statement applied on its own.
type Step struct {
	// First and Count locate the statements the step covered in ApplyRun's
	// input: Count is the chunk length for a batch, 1 otherwise.
	First, Count int
	// Batched marks a translated batch.
	Batched bool
	// Rejected is the planner's reason for applying this statement's chunk
	// statement by statement ("cancelled" when a statement's context was
	// already done at planning time); empty for batches and for chunks of
	// one statement.
	Rejected string
	// Abandoned marks a statement skipped because its context was done
	// before it was applied: the backend was never called, and Err is the
	// context's error.
	Abandoned bool
	// Report is the backend's report (merged over the batch).
	Report *core.Report
	// Applied is how many of the Count statements' effects landed: Count on
	// success, the landed prefix of a batch that failed partway, and 0 for
	// a single statement that failed or was abandoned.
	Applied int
	// Err is the backend's error, or the context's for an abandoned
	// statement.
	Err error
}

// ApplyRun applies a run of statements through b, in order, translating
// what it can into combined deltas. It cuts the run into chunks of at most
// maxBatch statements (DefaultMaxBatch when maxBatch <= 0). A chunk of one
// statement is applied directly. A longer chunk is planned once with
// PlanBatch: an accepted plan is applied as one batch, and a rejected one —
// or a chunk holding a statement whose context is already done — is applied
// statement by statement. Batching is therefore never observable in the
// final state: the planner accepts a chunk only when the batch is
// equivalent to its statements applied one at a time.
//
// A translated batch runs to completion under context.Background(): every
// statement's context was live when the chunk was planned. A statement
// applied on its own runs under its own context and is skipped, without
// touching the backend, if that context is done first.
//
// step is called after every application, in order; a non-nil error from it
// stops the run and is returned.
func ApplyRun(b Backend, run []Stmt, maxBatch int, step func(Step) error) error {
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	for first := 0; first < len(run); {
		n := min(maxBatch, len(run)-first)
		chunk := run[first : first+n]
		reason := ""
		if n > 1 {
			var plan *BatchPlan
			plan, reason = planChunk(b.Engine(), chunk)
			if plan != nil {
				rep, applied, err := b.ApplyBatchCtx(context.Background(), plan)
				if err := step(Step{First: first, Count: n, Batched: true, Report: rep, Applied: applied, Err: err}); err != nil {
					return err
				}
				first += n
				continue
			}
		}
		for i, s := range chunk {
			if err := step(applyOne(b, s, first+i, reason)); err != nil {
				return err
			}
		}
		first += n
	}
	return nil
}

// planChunk plans a chunk as one batch, or returns why it cannot be.
func planChunk(e *core.Engine, chunk []Stmt) (*BatchPlan, string) {
	stmts := make([]*update.Statement, len(chunk))
	for i, s := range chunk {
		if s.Ctx.Err() != nil {
			// Applied one at a time, the abandoned statement is skipped
			// before anything mutates.
			return nil, "cancelled"
		}
		stmts[i] = s.St
	}
	plan, err := PlanBatch(e, stmts)
	if err != nil {
		var nb *NotBatchableError
		if errors.As(err, &nb) {
			return nil, nb.Reason
		}
		return nil, "plan"
	}
	return plan, ""
}

// applyOne applies one statement on its own.
func applyOne(b Backend, s Stmt, at int, reason string) Step {
	step := Step{First: at, Count: 1, Rejected: reason}
	if err := s.Ctx.Err(); err != nil {
		step.Abandoned, step.Err = true, err
		return step
	}
	step.Report, step.Err = b.ApplyCtx(s.Ctx, s.St)
	if step.Err == nil {
		step.Applied = 1
	}
	return step
}
