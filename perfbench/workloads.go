package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"xivm/internal/client"
	"xivm/internal/core"
	"xivm/internal/server"
	"xivm/internal/update"
	"xivm/internal/wal"
	"xivm/internal/xmark"
	"xivm/internal/xmltree"
)

// ingest: one closed-loop writer on a ~1 MiB document, with an open-loop
// reader at a fixed low rate beside it. Publish, WAL fsync and propagation
// do almost all the work; a single writer never queues two statements, so
// batching is bypassed.
var ingestWorkload = &workload{
	name:         "ingest",
	docBytes:     1 << 20,
	primaryWrite: true,
	setup:        createTenant,
	warm: func(ctx context.Context, b *bench) error {
		return b.ingestLoad(ctx, time.Now().Add(warmup))
	},
	load: func(ctx context.Context, b *bench) error {
		return b.ingestLoad(ctx, b.loadStart.Add(b.seconds()))
	},
	check: checkServed,
}

// serve: one closed-loop reader on a ~4 MiB document over the fixed shapes
// and Zipf point lookups (more distinct queries than the result and
// program caches hold), with open-loop point updates to the looked-up
// persons at a low fixed rate.
var serveWorkload = &workload{
	name:     "serve",
	docBytes: 4 << 20,
	setup:    createTenant,
	warm: func(ctx context.Context, b *bench) error {
		return b.serveLoad(ctx, time.Now().Add(warmup))
	},
	load: func(ctx context.Context, b *bench) error {
		return b.serveLoad(ctx, b.loadStart.Add(b.seconds()))
	},
	check: checkServed,
}

func (b *bench) seconds() time.Duration { return time.Duration(b.cfg.seconds) * time.Second }

// prepareDoc generates the workload's document and records its size.
func (b *bench) prepareDoc() (docShape, error) {
	b.docXML = xmark.Generate(xmark.Config{TargetBytes: b.docSize(), Seed: b.cfg.seed})
	doc, err := xmltree.ParseString(b.docXML)
	if err != nil {
		return docShape{}, err
	}
	b.docNodes = doc.Size()
	return docShape{persons: len(doc.Labeled("person")), auctions: len(doc.Labeled("open_auction"))}, nil
}

// createTenant is the ingest and serve set-up: tenant creation over the
// admin plane, timed setupReps times (all but the last tenant dropped
// untimed).
func createTenant(b *bench) error {
	shape, err := b.prepareDoc()
	if err != nil {
		return err
	}
	b.shape = shape
	reg, _, err := b.newRegistry()
	if err != nil {
		return err
	}
	if err := b.serve(reg); err != nil {
		return err
	}
	ctx := context.Background()
	for i := 0; i < setupReps; i++ {
		name := fmt.Sprintf("t%d", i)
		runtime.GC() // each timed set-up starts from a collected heap
		var d time.Duration
		d, _, err = b.call(ctx, "client.create", func(ctx context.Context) error {
			_, err := b.cli.CreateDB(ctx, client.CreateDB{Name: name, Document: b.docXML})
			return err
		})
		if err != nil {
			return fmt.Errorf("create %s: %w", name, err)
		}
		b.setupTimes = append(b.setupTimes, d)
		if i < setupReps-1 {
			if err := b.cli.DropDB(ctx, name); err != nil {
				return fmt.Errorf("drop %s: %w", name, err)
			}
		}
		b.tenant = name
	}
	b.db = b.cli.DB(b.tenant)
	return nil
}

// ingestLoad runs the closed-loop writer and the open-loop reader until
// the deadline; the two are the run's only load threads.
func (b *bench) ingestLoad(ctx context.Context, until time.Time) error {
	if b.mix == nil {
		b.mix = newIngestMix(b.cfg.seed, b.shape)
		b.rmix = newReadMix(b.cfg.seed)
	}
	return b.pair(ctx,
		func() error {
			for time.Now().Before(until) {
				if err := b.write(ctx, b.mix.next(), time.Time{}); err != nil {
					return err
				}
			}
			return nil
		},
		func() error { return b.openReads(ctx, until) })
}

// openReads is the ingest and burst reader: the read mix at a fixed rate.
func (b *bench) openReads(ctx context.Context, until time.Time) error {
	var err error
	b.openLoop(ctx, openReadRate, until, func(due time.Time) {
		if err != nil {
			return
		}
		q, view := b.rmix.next()
		if view {
			err = b.readView(ctx, q, due)
		} else {
			err = b.readXPath(ctx, q, due)
		}
	})
	return err
}

// The open-loop rates, per second, stay well below what one sender thread
// can serve: near saturation its queue grows and the run-to-run spread
// with it.
const (
	openReadRate  = 30 // ingest and burst reads
	openWriteRate = 2  // serve writes: each publishes a 4 MiB epoch
)

// serveLoad runs the closed-loop reader and the open-loop writer.
func (b *bench) serveLoad(ctx context.Context, until time.Time) error {
	if b.rlook == nil {
		b.rlook = newLookups(b.cfg.seed, b.shape.persons, 4)
		b.wlook = newLookups(b.cfg.seed, b.shape.persons, 5)
		b.rmix = newReadMix(b.cfg.seed)
	}
	return b.pair(ctx,
		func() error {
			for i := 0; time.Now().Before(until); i++ {
				var err error
				switch {
				case i%4 != 0:
					err = b.readXPath(ctx, lookupQuery(b.rlook.person()), time.Time{})
				default:
					q, view := b.rmix.next()
					if view {
						err = b.readView(ctx, q, time.Time{})
					} else {
						err = b.readXPath(ctx, q, time.Time{})
					}
				}
				if err != nil {
					return err
				}
			}
			return nil
		},
		func() error {
			var err error
			b.openLoop(ctx, openWriteRate, until, func(due time.Time) {
				if err == nil {
					err = b.write(ctx, b.wlook.write(), due)
				}
			})
			return err
		})
}

// pair runs two load threads to completion and returns the first error.
func (b *bench) pair(ctx context.Context, f, g func() error) error {
	errs := make(chan error, 2)
	go func() { errs <- f() }()
	go func() { errs <- g() }()
	err1, err2 := <-errs, <-errs
	if err1 != nil {
		return err1
	}
	return err2
}

// burst: recovery of a ~1 MiB tenant from a checkpoint plus a WAL tail,
// then waves of 32 distinct-target inserts through Shard.ApplyAsync from
// one goroutine (≤ nproc HTTP connections cannot hold 32 requests in
// flight), one wave in eight carrying a replace the batch planner must
// reject; an open-loop HTTP reader runs beside it.
var burstWorkload = &workload{
	name:         "burst",
	docBytes:     1 << 20,
	primaryWrite: true,
	setup:        recoverTenant,
	warm: func(ctx context.Context, b *bench) error {
		// Two waves give every parent a <c/> for the replace waves to hit.
		for i := 0; i < 2; i++ {
			if err := b.wave(ctx, false); err != nil {
				return err
			}
		}
		return b.burstLoad(ctx, time.Now().Add(warmup))
	},
	load: func(ctx context.Context, b *bench) error {
		return b.burstLoad(ctx, b.loadStart.Add(b.seconds()))
	},
	check: func(ctx context.Context, b *bench) {
		checkServed(ctx, b)
		checkInserted(b)
	},
}

const (
	waveSize  = 32
	tailStmts = 300 // WAL records burst's set-up replays
)

// recoverTenant writes the data dir untimed — the tenant's checkpoint, then
// a WAL tail through wal.DB that grows the wave parents and runs the
// ingest point mix — and times the registry's recovery of it, setupReps
// times.
func recoverTenant(b *bench) error {
	shape, err := b.prepareDoc()
	if err != nil {
		return err
	}
	b.shape = shape
	cfg := b.registryConfig()
	cfg.WAL.Engine = nil // the untimed tail is not traced
	reg, err := server.NewRegistry(cfg)
	if err != nil {
		return err
	}
	if _, err := reg.Create("burst", b.docXML, nil); err != nil {
		return err
	}
	if err := reg.Shutdown(context.Background()); err != nil {
		return err
	}
	db, err := wal.Open(wal.TenantDir(cfg.DataDir, "burst"), cfg.WAL)
	if err != nil {
		return err
	}
	mix := newIngestMix(b.cfg.seed, shape)
	mix.bulkEvery = 1 << 30 // point statements only
	for i := 0; i < tailStmts; i++ {
		src := mix.next()
		if i < waveSize {
			src = fmt.Sprintf(`insert <bp%d/> into /site/people`, i)
		}
		if _, err := db.Apply(update.MustParse(src)); err != nil {
			db.Close()
			return fmt.Errorf("tail statement %q: %w", src, err)
		}
	}
	if err := db.Close(); err != nil {
		return err
	}
	b.setupSnap[0] = b.m.Snapshot() // count only the timed recoveries
	for i := 0; i < setupReps; i++ {
		runtime.GC() // each timed set-up starts from a collected heap
		reg, d, err := b.newRegistry()
		if err != nil {
			return err
		}
		b.setupTimes = append(b.setupTimes, d)
		if i == setupReps-1 {
			b.tenant = "burst"
			if err := b.serve(reg); err != nil {
				return err
			}
			b.db = b.cli.DB(b.tenant)
			b.shard, err = reg.Get(b.tenant)
			return err
		}
		if err := reg.Shutdown(context.Background()); err != nil {
			return err
		}
	}
	return nil
}

// burstLoad runs the wave submitter and the open-loop reader. Waves go in
// groups of eight, one of them (at a seeded position) carrying a replace.
// The submitter stops only at a group boundary, so every run holds the same
// share of fallback waves.
func (b *bench) burstLoad(ctx context.Context, until time.Time) error {
	if b.rmix == nil {
		b.rmix = newReadMix(b.cfg.seed)
		b.waveRand = newRand(b.cfg.seed, 6)
	}
	return b.pair(ctx,
		func() error {
			for time.Now().Before(until) {
				replace := b.waveRand.IntN(8)
				for i := 0; i < 8; i++ {
					if err := b.wave(ctx, i == replace); err != nil {
						return err
					}
				}
			}
			return nil
		},
		func() error { return b.openReads(ctx, until) })
}

// wave submits 32 statements back to back, then collects the acks in
// submission order, timing each from the wave's submission. With withReplace
// one statement replaces a <c/> (same count) instead of inserting one,
// which makes the planner fall back to per-statement application.
func (b *bench) wave(ctx context.Context, withReplace bool) error {
	replaceAt := -1
	if withReplace {
		replaceAt = b.waveRand.IntN(waveSize)
	}
	stmts := make([]*update.Statement, waveSize)
	for j := range stmts {
		src := fmt.Sprintf(`insert <c/> into /site/people/bp%d`, j)
		if j == replaceAt {
			src = fmt.Sprintf(`replace /site/people/bp%d/c[1] with <c/>`, j)
		}
		stmts[j] = update.MustParse(src)
	}
	id := b.ids.Add(1)
	b.curWrite.Store(id)
	traced := b.tracing()
	waits := make([]func() (*core.Report, uint64, error), 0, waveSize)
	t0 := time.Now()
	for _, st := range stmts {
		b.attempted.Add(1)
		wait, err := b.shard.ApplyAsync(ctx, st)
		if err != nil {
			b.failed.Add(1)
			return fmt.Errorf("ApplyAsync: %w", err)
		}
		waits = append(waits, wait)
	}
	submitted := time.Since(t0)
	for j, wait := range waits {
		_, version, err := wait()
		lat := time.Since(t0)
		if err != nil {
			b.failed.Add(1)
			return fmt.Errorf("wave statement %d: %w", j, err)
		}
		b.ackVersion(version)
		if j != replaceAt {
			b.ackedInserts++
		}
		b.stmtBytes.Add(int64(len(stmts[j].Source)))
		if b.measuring.Load() {
			b.writes.observe(lat, lat, 0, traced)
		}
	}
	if traced {
		b.spans.add(span{ID: id, Req: id, Name: "perfbench.ApplyAsync x32"}, t0, submitted)
		b.spans.add(span{ID: b.ids.Add(1), Req: id, Parent: id, Name: "perfbench.wave.wait"}, t0.Add(submitted), time.Since(t0)-submitted)
	}
	return nil
}
