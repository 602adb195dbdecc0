package wal

import (
	"context"
	"fmt"

	"xivm/internal/core"
	"xivm/internal/pattern"
	"xivm/internal/pulopt"
	"xivm/internal/update"
)

// RecoveryStats reports what Open did to reach a consistent state.
type RecoveryStats struct {
	// CheckpointLSN is the LSN of the checkpoint recovery started from.
	CheckpointLSN uint64
	// ReplayStats counts what replaying the log suffix did.
	ReplayStats
	// TruncatedBytes is the torn tail cut from the log before replay.
	TruncatedBytes int64
	// BadCheckpoints counts checkpoints rejected before a valid one loaded.
	BadCheckpoints int
}

// ReplayStats counts what a Replayer did.
type ReplayStats struct {
	// Replayed counts log records whose effect was re-applied: statements
	// and view registrations.
	Replayed int
	// Skipped counts log records that could not or need not be applied:
	// unparseable payloads and statements the engine rejected. Both fail
	// deterministically — they had no effect originally either.
	Skipped int
	// Batches counts statement chunks applied as one translated batch.
	Batches int
}

// Replayer is the record loop crash recovery and replication followers
// share. It re-applies decoded log records to an engine in log order:
// statement runs go through pulopt.ApplyRun, batched up to
// pulopt.DefaultMaxBatch statements at a time, and a view record is a
// barrier — the pending run is applied first, so the view is registered at
// its exact point in the statement sequence. Records that fail to parse or
// that the engine rejects are skipped and counted, never fatal: they failed
// identically when first journaled (parsing and target resolution are
// deterministic), so skipping reproduces the original outcome. Batching
// does not change the outcome either: the planner accepts a chunk only when
// the batch is equivalent to its statements applied one at a time, engine
// version included.
//
// Create one with NewReplayer, feed it with Add, and call Flush after the
// last record.
type Replayer struct {
	eng    *core.Engine
	onView func(name, src string)
	run    []pulopt.Stmt
	Stats  ReplayStats
}

// NewReplayer replays into eng. onView, when non-nil, is called after each
// view record registers its view.
func NewReplayer(eng *core.Engine, onView func(name, src string)) *Replayer {
	return &Replayer{eng: eng, onView: onView}
}

// Add replays one record. It returns an error only when a translated batch
// part-applies, which leaves the engine between statement boundaries: the
// planner's gates make that unreachable for a well-formed batch, and the
// caller can no longer trust the engine to match the log.
func (r *Replayer) Add(rec Record) error {
	switch rec.Kind {
	case RecordStatement:
		st, err := update.Parse(rec.Statement)
		if err != nil {
			// A skipped statement has no effect, so the run can span it.
			r.skip()
			return nil
		}
		r.run = append(r.run, pulopt.Stmt{Ctx: context.Background(), St: st})
		// Flushing at the cap draws the chunk boundary ApplyRun would draw
		// anyway, and keeps a long recovery tail from being held parsed in
		// memory.
		if len(r.run) == pulopt.DefaultMaxBatch {
			return r.Flush()
		}
	case RecordView:
		if err := r.Flush(); err != nil {
			return err
		}
		p, err := pattern.Parse(rec.ViewPattern)
		if err != nil {
			r.skip()
			return nil
		}
		if _, err := r.eng.AddView(rec.ViewName, p); err != nil {
			r.skip()
			return nil
		}
		r.Stats.Replayed++
		if r.onView != nil {
			r.onView(rec.ViewName, rec.ViewPattern)
		}
	default:
		r.skip()
	}
	return nil
}

func (r *Replayer) skip() { r.Stats.Skipped++ }

// Flush applies the pending statement run.
func (r *Replayer) Flush() error {
	run := r.run
	r.run = r.run[:0]
	return pulopt.ApplyRun(pulopt.EngineBackend{Eng: r.eng}, run, pulopt.DefaultMaxBatch, func(st pulopt.Step) error {
		if st.Batched {
			if st.Err != nil {
				return fmt.Errorf("wal: replayed batch part-applied %d/%d statements: %w", st.Applied, st.Count, st.Err)
			}
			r.Stats.Batches++
		}
		r.Stats.Replayed += st.Applied
		r.Stats.Skipped += st.Count - st.Applied
		return nil
	})
}

// replay re-applies the log suffix after the checkpoint.
func (db *DB) replay(from uint64) error {
	db.replaying = true
	defer func() { db.replaying = false }()
	r := NewReplayer(db.eng, func(name, src string) {
		db.sources[name] = src
		db.order = append(db.order, name)
	})
	err := db.log.Replay(from, func(lsn uint64, payload []byte) error {
		rec, err := ParseRecord(lsn, payload)
		if err != nil {
			r.skip()
			return nil
		}
		return r.Add(rec)
	})
	if err == nil {
		err = r.Flush()
	}
	db.stats.ReplayStats = r.Stats
	db.m.recReplayed.Add(int64(r.Stats.Replayed))
	db.m.recSkipped.Add(int64(r.Stats.Skipped))
	return err
}
