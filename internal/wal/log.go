// Package wal is the durability subsystem: a segmented append-only
// write-ahead log of canonical update statements, atomic checkpoints of the
// document and every managed view, and crash recovery that loads the newest
// valid checkpoint and replays the surviving log suffix, batching statement
// runs through the same run applier (pulopt.ApplyRun) as the serving writer
// and replication followers.
//
// The paper's premise is that incrementally maintained views are cheap to
// keep; without this layer a process restart throws every materialized view
// away and pays the full-recomputation baseline the algorithms exist to
// beat. With it, maintained state survives crashes: the DB wrapper journals
// each statement before propagation (write-ahead, enforced inside
// core.Engine via the WithJournal hook), group-commits under a configurable
// fsync policy, and checkpoints rotate and truncate the log behind them.
//
// On-disk layout of a data directory:
//
//	<dir>/wal/<first-lsn>.wal      log segments, CRC-32C framed records
//	<dir>/checkpoint-<lsn>/        one checkpoint: MANIFEST, doc.xml,
//	                               <view>.xivm per managed view
//
// Record frames are self-describing and torn-tail safe: recovery scans
// frames in order and truncates the log at the first frame whose length,
// checksum or sequence number does not check out — a torn tail is cut,
// never replayed.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"xivm/internal/obs"
)

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy uint8

const (
	// SyncAlways fsyncs on every append before acknowledging it — the
	// no-lost-updates policy.
	SyncAlways SyncPolicy = iota
	// SyncInterval group-commits: appends are acknowledged immediately and
	// fsynced at most once per interval, bounding both the fsync rate and
	// the window of acknowledged-but-volatile records.
	SyncInterval
	// SyncNever leaves syncing to the operating system (and to explicit
	// Sync/Checkpoint calls).
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return "always"
}

// ParseSyncPolicy parses "always", "interval" or "never".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return SyncAlways, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", s)
}

// Frame layout (little endian):
//
//	[0:4)   payload length
//	[4:8)   CRC-32C (Castagnoli) over bytes [8 : 16+length)
//	[8:16)  LSN
//	[16:)   payload
const frameHeader = 16

// maxPayload bounds a single record; a length field beyond it marks the
// frame — and everything after it — as a torn tail.
const maxPayload = 16 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// segExt is the log segment suffix; segments are named by the LSN of their
// first record, zero-padded so lexical order is LSN order.
const segExt = ".wal"

func segName(firstLSN uint64) string { return fmt.Sprintf("%016x%s", firstLSN, segExt) }

func parseSegName(name string) (uint64, bool) {
	base, ok := strings.CutSuffix(name, segExt)
	if !ok || len(base) != 16 {
		return 0, false
	}
	var lsn uint64
	if _, err := fmt.Sscanf(base, "%016x", &lsn); err != nil {
		return 0, false
	}
	return lsn, true
}

// LogOptions tunes a Log; the zero value is SyncAlways with default
// segment size.
type LogOptions struct {
	// Policy is the fsync policy (default SyncAlways).
	Policy SyncPolicy
	// Interval is the group-commit window under SyncInterval (default
	// 50ms).
	Interval time.Duration
	// SegmentBytes rotates to a fresh segment once the current one reaches
	// this size (default 4 MiB).
	SegmentBytes int64
	// StartLSN seeds the sequence when the directory holds no segments —
	// the checkpoint LSN + 1 on reopen, 1 on a fresh directory.
	StartLSN uint64
	// Metrics selects the registry (nil = obs.Default()).
	Metrics *obs.Metrics
	// FS selects the filesystem (nil = OSFS).
	FS FS
}

// Log is a segmented append-only record log with monotonic LSNs. It is not
// safe for concurrent use; the DB wrapper serializes access the same way
// core.Engine serializes statements.
type Log struct {
	dir  string
	fs   FS
	m    *walMetrics
	opts LogOptions

	segments []segment // sorted by firstLSN; last is the active one
	cur      File      // open handle on the active segment, nil if none
	curSize  int64
	nextLSN  uint64
	dirty    bool // unsynced appends on cur
	lastSync time.Time
	buf      []byte // reused frame scratch

	// last mirrors nextLSN-1 for concurrent readers: the replication
	// status/stream handlers run on HTTP goroutines while the single writer
	// appends, and must not read nextLSN directly.
	last atomic.Uint64

	truncated int64 // torn-tail bytes cut during Open
	failed    error // sticky write-path error; the log refuses further appends
}

type segment struct {
	firstLSN uint64
	size     int64
}

func (l *Log) segPath(s segment) string { return filepath.Join(l.dir, segName(s.firstLSN)) }

// OpenLog opens (creating if needed) the log directory, validates every
// segment, truncates any torn tail, and positions the sequence after the
// last durable record. The torn-tail rule: within the segment chain, the
// log ends at the first frame that fails its length, checksum or LSN
// continuity check; that frame and everything after it (including later
// segments) is truncated and counted in wal.recover.truncated.
func OpenLog(dir string, opts LogOptions) (*Log, error) {
	if opts.FS == nil {
		opts.FS = OSFS
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 4 << 20
	}
	if opts.Interval <= 0 {
		opts.Interval = 50 * time.Millisecond
	}
	if opts.StartLSN == 0 {
		opts.StartLSN = 1
	}
	l := &Log{dir: dir, fs: opts.FS, m: newWalMetrics(opts.Metrics), opts: opts, lastSync: time.Now()}
	if err := l.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := l.fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		first, ok := parseSegName(e.Name())
		if !ok {
			continue // foreign file; leave it alone
		}
		segs = append(segs, segment{firstLSN: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstLSN < segs[j].firstLSN })

	// The chain starts wherever the oldest surviving segment says it does —
	// checkpoints truncate old segments, so the first segment's LSN is
	// normally behind the newest checkpoint, not at StartLSN. StartLSN only
	// seeds an empty directory.
	l.nextLSN = opts.StartLSN
	if len(segs) > 0 {
		l.nextLSN = segs[0].firstLSN
	}
	for i := range segs {
		data, err := l.fs.ReadFile(filepath.Join(dir, segName(segs[i].firstLSN)))
		if err != nil {
			return nil, err
		}
		if segs[i].firstLSN != l.nextLSN {
			// A segment that does not continue the sequence starts the torn
			// region: cut it and everything after it. (A crash between
			// rotation and the first append of the new segment leaves an
			// empty segment named exactly nextLSN, which passes this check
			// and scans as zero frames.)
			return l.cutFrom(segs, i, 0)
		}
		valid, count := scanFrames(data, segs[i].firstLSN)
		if valid < int64(len(data)) {
			// Torn tail inside this segment: truncate here, drop the rest.
			l.nextLSN = segs[i].firstLSN + count
			return l.cutFrom(segs, i, valid)
		}
		if len(data) == 0 && i < len(segs)-1 {
			// An empty segment followed by more segments cannot happen in a
			// clean chain (rotation creates at most one trailing empty
			// segment); treat the suffix as torn.
			return l.cutFrom(segs, i+1, 0)
		}
		segs[i].size = valid
		l.nextLSN = segs[i].firstLSN + count
		l.segments = append(l.segments, segs[i])
	}
	l.last.Store(l.nextLSN - 1)
	return l, nil
}

// cutFrom finalizes Open after finding the torn region: segment i is
// truncated to keep bytes, segments after i are removed entirely, and the
// log opens positioned at the cut.
func (l *Log) cutFrom(segs []segment, i int, keep int64) (*Log, error) {
	path := filepath.Join(l.dir, segName(segs[i].firstLSN))
	data, err := l.fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cut := int64(len(data)) - keep
	if keep == 0 {
		if err := l.fs.Remove(path); err != nil {
			return nil, err
		}
	} else {
		if err := l.fs.Truncate(path, keep); err != nil {
			return nil, err
		}
		segs[i].size = keep
		l.segments = append(l.segments, segs[i])
	}
	for _, s := range segs[i+1:] {
		p := filepath.Join(l.dir, segName(s.firstLSN))
		extra, err := l.fs.ReadFile(p)
		if err == nil {
			cut += int64(len(extra))
		}
		if err := l.fs.Remove(p); err != nil {
			return nil, err
		}
		l.m.segRemoved.Inc()
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		return nil, err
	}
	l.truncated = cut
	l.m.recTruncated.Add(cut)
	l.last.Store(l.nextLSN - 1)
	return l, nil
}

// scanFrames walks data as a frame sequence starting at LSN first,
// returning the number of leading valid bytes and the count of valid
// frames. Anything beyond the returned length is a torn tail.
func scanFrames(data []byte, first uint64) (valid int64, count uint64) {
	pos := int64(0)
	lsn := first
	for {
		rest := data[pos:]
		if len(rest) < frameHeader {
			return pos, count
		}
		length := int64(binary.LittleEndian.Uint32(rest[0:4]))
		if length > maxPayload || frameHeader+length > int64(len(rest)) {
			return pos, count
		}
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if crc32.Checksum(rest[8:frameHeader+length], castagnoli) != sum {
			return pos, count
		}
		if binary.LittleEndian.Uint64(rest[8:16]) != lsn {
			return pos, count
		}
		pos += frameHeader + length
		lsn++
		count++
	}
}

// Truncated returns the torn-tail bytes cut when the log was opened.
func (l *Log) Truncated() int64 { return l.truncated }

// LastLSN returns the sequence number of the last appended record, or
// StartLSN-1 when the log is empty. Unlike every other Log method it is
// safe to call concurrently with the owning writer — replication status
// reads it from HTTP handler goroutines.
func (l *Log) LastLSN() uint64 { return l.last.Load() }

// Append frames payload, writes it to the active segment (rotating first
// if the segment is full), and syncs according to the policy. It returns
// the record's LSN. A failed write poisons the log: every later Append
// returns the same error, because the on-disk tail is no longer known to
// match the in-memory sequence.
func (l *Log) Append(payload []byte) (uint64, error) {
	lsn, err := l.append(payload)
	if err != nil {
		return 0, err
	}
	if err := l.policySync(); err != nil {
		return 0, err
	}
	return lsn, nil
}

// AppendBatch appends every payload and then syncs once according to the
// policy — the group-commit form. It returns the LSN of the first record.
func (l *Log) AppendBatch(payloads [][]byte) (uint64, error) {
	if len(payloads) == 0 {
		return 0, errors.New("wal: empty batch")
	}
	first := l.nextLSN
	for _, p := range payloads {
		if _, err := l.append(p); err != nil {
			return 0, err
		}
	}
	if err := l.policySync(); err != nil {
		return 0, err
	}
	return first, nil
}

func (l *Log) append(payload []byte) (uint64, error) {
	if l.failed != nil {
		return 0, l.failed
	}
	if int64(len(payload)) > maxPayload {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte frame limit", len(payload), maxPayload)
	}
	if l.cur == nil || l.curSize >= l.opts.SegmentBytes {
		if err := l.rotate(); err != nil {
			return 0, err
		}
	}
	lsn := l.nextLSN
	l.buf = l.buf[:0]
	l.buf = append(l.buf, 0, 0, 0, 0, 0, 0, 0, 0)
	l.buf = binary.LittleEndian.AppendUint64(l.buf, lsn)
	l.buf = append(l.buf, payload...)
	binary.LittleEndian.PutUint32(l.buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(l.buf[4:8], crc32.Checksum(l.buf[8:], castagnoli))
	if _, err := l.cur.Write(l.buf); err != nil {
		l.failed = fmt.Errorf("wal: append: %w", err)
		return 0, l.failed
	}
	l.curSize += int64(len(l.buf))
	l.segments[len(l.segments)-1].size = l.curSize
	l.nextLSN++
	l.last.Store(l.nextLSN - 1)
	l.dirty = true
	l.m.appendCount.Inc()
	l.m.appendBytes.Add(int64(len(l.buf)))
	return lsn, nil
}

// rotate closes the active segment and opens a fresh one named after the
// next LSN.
func (l *Log) rotate() error {
	if l.cur != nil {
		if err := l.syncCur(); err != nil {
			return err
		}
		if err := l.cur.Close(); err != nil {
			l.failed = err
			return err
		}
		l.cur = nil
	}
	seg := segment{firstLSN: l.nextLSN}
	f, err := l.fs.OpenFile(l.segPath(seg), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		l.failed = err
		return err
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		l.failed = err
		return err
	}
	l.cur = f
	l.curSize = 0
	l.segments = append(l.segments, seg)
	l.m.segCreated.Inc()
	return nil
}

func (l *Log) policySync() error {
	switch l.opts.Policy {
	case SyncAlways:
		return l.Sync()
	case SyncInterval:
		if time.Since(l.lastSync) >= l.opts.Interval {
			return l.Sync()
		}
	}
	return nil
}

// Sync fsyncs the active segment if it has unsynced appends.
func (l *Log) Sync() error {
	if err := l.syncCur(); err != nil {
		return err
	}
	l.lastSync = time.Now()
	return nil
}

func (l *Log) syncCur() error {
	if l.failed != nil {
		return l.failed
	}
	if !l.dirty || l.cur == nil {
		return nil
	}
	t0 := time.Now()
	if err := l.cur.Sync(); err != nil {
		l.failed = fmt.Errorf("wal: fsync: %w", err)
		return l.failed
	}
	l.m.fsyncCount.Inc()
	l.m.fsyncNS.Observe(time.Since(t0))
	l.dirty = false
	return nil
}

// Replay calls fn for every record with LSN >= from, in order. The open
// scan already cut any torn tail, so every frame read here is intact.
func (l *Log) Replay(from uint64, fn func(lsn uint64, payload []byte) error) error {
	for _, seg := range l.segments {
		data, err := l.fs.ReadFile(l.segPath(seg))
		if err != nil {
			return err
		}
		pos := int64(0)
		for pos < seg.size {
			rest := data[pos:]
			length := int64(binary.LittleEndian.Uint32(rest[0:4]))
			lsn := binary.LittleEndian.Uint64(rest[8:16])
			if lsn >= from {
				if err := fn(lsn, rest[frameHeader:frameHeader+length]); err != nil {
					return err
				}
			}
			pos += frameHeader + length
		}
	}
	return nil
}

// RotateAndTruncate makes lsn the truncation horizon: the active segment is
// rotated so the next append starts a fresh segment, and every segment
// whose records all have LSN <= lsn is removed. Called after a checkpoint
// at lsn — the removed records' effects are in the checkpoint.
func (l *Log) RotateAndTruncate(lsn uint64) error {
	if l.failed != nil {
		return l.failed
	}
	if l.cur != nil {
		if err := l.syncCur(); err != nil {
			return err
		}
		if err := l.cur.Close(); err != nil {
			l.failed = err
			return err
		}
		l.cur = nil
		l.curSize = 0
	}
	// A segment is dead if the next segment's first LSN (or the overall
	// next LSN, for the last segment) proves every record in it is <= lsn.
	kept := l.segments[:0]
	for i, seg := range l.segments {
		lastInSeg := l.nextLSN - 1
		if i+1 < len(l.segments) {
			lastInSeg = l.segments[i+1].firstLSN - 1
		}
		if lastInSeg <= lsn && seg.size >= 0 {
			if err := l.fs.Remove(l.segPath(seg)); err != nil {
				return err
			}
			l.m.segRemoved.Inc()
			continue
		}
		kept = append(kept, seg)
	}
	l.segments = kept
	return l.fs.SyncDir(l.dir)
}

// Reset discards every segment and restarts the sequence at startLSN. The
// DB uses it when the surviving log ends behind the newest checkpoint
// (every lost record's effect is already in the checkpoint): appending at
// startLSN over stale lower-LSN segments would corrupt the chain.
func (l *Log) Reset(startLSN uint64) error {
	if l.failed != nil {
		return l.failed
	}
	if l.cur != nil {
		if err := l.cur.Close(); err != nil {
			return err
		}
		l.cur = nil
		l.curSize = 0
	}
	for _, seg := range l.segments {
		if err := l.fs.Remove(l.segPath(seg)); err != nil {
			return err
		}
		l.m.segRemoved.Inc()
	}
	l.segments = nil
	l.nextLSN = startLSN
	l.last.Store(startLSN - 1)
	l.dirty = false
	return l.fs.SyncDir(l.dir)
}

// Close syncs and closes the active segment.
func (l *Log) Close() error {
	if l.cur == nil {
		return nil
	}
	err := l.syncCur()
	if cerr := l.cur.Close(); err == nil {
		err = cerr
	}
	l.cur = nil
	return err
}
