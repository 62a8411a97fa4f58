// Package wal is a segmented write-ahead log with crash-consistent
// recovery, built for troupe members whose state must survive a
// whole-troupe power loss (the scenario replication alone cannot
// mask).
//
// The log is a flat namespace of files on an injectable FS:
//
//	wal-<pos>.seg   append-only segments of CRC-framed records; the
//	                name carries the position of the segment's first
//	                record, so segments chain by record count
//	wal-<pos>.snap  a snapshot of the application state covering all
//	                records with position <= pos
//
// Records are framed [len u32][crc32c u32][payload]. Appends are made
// durable by group commit: concurrent AppendSync callers elect one
// leader whose single fsync covers every append admitted while the
// previous fsync was in flight, so fsyncs/op falls toward zero under
// concurrency instead of costing one disk round trip per record.
//
// Recovery reads the newest intact snapshot and replays the segment
// chain after it, stopping cleanly at the first torn or corrupt
// record (a power loss mid-write leaves at most a torn tail); the
// torn segment is sealed back to its valid prefix and a fresh segment
// is opened, so a half-written record can never be appended after.
//
// The durability contract the members build on: a record whose
// AppendSync returned nil is replayed by every subsequent recovery.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"
	"sync"

	"circus/internal/trace"
)

// ErrClosed reports use of a closed log.
var ErrClosed = errors.New("wal: log closed")

// ErrReopened reports an append that was in flight when the log was
// crash-recovered: its durability is unknown and the caller must not
// acknowledge it.
var ErrReopened = errors.New("wal: log reopened by crash recovery")

const (
	frameHeader         = 8       // len + crc32c
	maxRecord           = 1 << 26 // 64 MiB sanity bound on the len field
	segPrefix           = "wal-"
	segSuffix           = ".seg"
	snapSuffix          = ".snap"
	tmpSuffix           = ".tmp"
	defaultSegmentBytes = 1 << 20
	maxFrameKeep        = 64 << 10 // largest frame buffer kept between appends
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options configures a log.
type Options struct {
	// FS is the disk; required. Use DirFS for a real directory,
	// NewMemFS for tests and fault injection.
	FS FS
	// SegmentBytes rotates the active segment once it exceeds this
	// size; 0 means 1 MiB.
	SegmentBytes int
	// SnapshotEvery makes NeedSnapshot report true once this many
	// records have accumulated past the last snapshot; 0 disables the
	// hint (snapshots remain caller-driven).
	SnapshotEvery int
	// Trace, when set, receives wal.append, wal.snapshot, and recover
	// events (Detail = Name, Troupe = record position).
	Trace trace.Sink
	// Name tags trace events when one process hosts several logs.
	Name string
}

// Recovered is what Open (or Reopen) salvaged from the disk.
type Recovered struct {
	// Snapshot is the newest intact snapshot's payload, nil if none.
	Snapshot []byte
	// SnapshotPos is the position the snapshot covers through.
	SnapshotPos uint64
	// Records are the replayable records after the snapshot, in order.
	Records [][]byte
	// Pos is the position of the last recovered record.
	Pos uint64
	// Torn reports that recovery stopped at a torn or corrupt record
	// (the expected signature of a crash mid-write, not an error).
	Torn bool
}

// Stats counts a log's work.
type Stats struct {
	Appends   uint64
	Fsyncs    uint64
	Snapshots uint64
	Segments  uint64 // rotations (segments opened beyond the first)
	Recovered uint64 // recoveries performed (Open + Reopen)
}

// Log is an open write-ahead log.
type Log struct {
	o Options

	mu          sync.Mutex
	cond        *sync.Cond
	active      File
	activeStart uint64 // position of the active segment's first record
	activeBytes int
	pos         uint64 // last appended position
	synced      uint64 // last durable position
	snapPos     uint64 // last snapshot position
	syncing     bool
	syncSeq     uint64 // completed leader fsyncs (success or failure)
	failSeq     uint64 // syncSeq value of the last failed fsync
	failErr     error  // what that fsync returned
	gen         uint64 // bumped by Reopen; voids in-flight appends
	closed      bool
	stats       Stats
	frame       []byte // the frame being appended, reused
}

// Open scans the disk, recovers whatever is intact, and opens a fresh
// active segment after it. The caller replays Recovered into its state
// before appending.
func Open(o Options) (*Log, *Recovered, error) {
	if o.FS == nil {
		return nil, nil, errors.New("wal: Options.FS is required")
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = defaultSegmentBytes
	}
	l := &Log{o: o}
	l.cond = sync.NewCond(&l.mu)
	rec, err := l.recoverLocked()
	if err != nil {
		return nil, nil, err
	}
	return l, rec, nil
}

func segName(pos uint64) string  { return fmt.Sprintf("%s%016x%s", segPrefix, pos, segSuffix) }
func snapName(pos uint64) string { return fmt.Sprintf("%s%016x%s", segPrefix, pos, snapSuffix) }

func parseName(name string) (pos uint64, kind string, ok bool) {
	if !strings.HasPrefix(name, segPrefix) {
		return 0, "", false
	}
	rest := name[len(segPrefix):]
	switch {
	case strings.HasSuffix(rest, segSuffix):
		kind = segSuffix
		rest = strings.TrimSuffix(rest, segSuffix)
	case strings.HasSuffix(rest, snapSuffix):
		kind = snapSuffix
		rest = strings.TrimSuffix(rest, snapSuffix)
	default:
		return 0, "", false
	}
	if _, err := fmt.Sscanf(rest, "%016x", &pos); err != nil {
		return 0, "", false
	}
	return pos, kind, true
}

// appendFrame appends one framed record to buf.
func appendFrame(buf []byte, payload []byte) []byte {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// DecodeRecords decodes a segment (or snapshot) image into its framed
// records. It never panics on corrupt input: decoding stops cleanly at
// the first invalid record — a truncated header, a truncated payload,
// an absurd length, or a CRC mismatch — and clean reports whether the
// whole image was consumed. valid is the byte length of the accepted
// prefix.
func DecodeRecords(data []byte) (recs [][]byte, valid int, clean bool) {
	off := 0
	for {
		if off == len(data) {
			return recs, off, true
		}
		if len(data)-off < frameHeader {
			return recs, off, false
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n > maxRecord || len(data)-off-frameHeader < n {
			return recs, off, false
		}
		payload := data[off+frameHeader : off+frameHeader+n]
		if crc32.Checksum(payload, crcTable) != crc {
			return recs, off, false
		}
		recs = append(recs, append([]byte(nil), payload...))
		off += frameHeader + n
	}
}

// recoverLocked scans the FS and (re)initializes the log's in-memory
// state. Called with l.mu held (or before the log escapes).
func (l *Log) recoverLocked() (*Recovered, error) {
	fs := l.o.FS
	names, err := fs.List()
	if err != nil {
		return nil, err
	}
	var segs, snaps []uint64
	for _, name := range names {
		pos, kind, ok := parseName(name)
		if !ok {
			// Stray temp file from an interrupted snapshot or seal.
			if strings.HasSuffix(name, tmpSuffix) {
				_ = fs.Remove(name)
			}
			continue
		}
		if kind == segSuffix {
			segs = append(segs, pos)
		} else {
			snaps = append(snaps, pos)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })

	rec := &Recovered{}

	// Newest intact snapshot wins; corrupt ones are skipped (a crash
	// mid-snapshot leaves the previous snapshot in place).
	for i := len(snaps) - 1; i >= 0; i-- {
		data, err := fs.ReadFile(snapName(snaps[i]))
		if err != nil {
			continue
		}
		recs, _, clean := DecodeRecords(data)
		if clean && len(recs) == 1 {
			rec.Snapshot = recs[0]
			rec.SnapshotPos = snaps[i]
			break
		}
		_ = fs.Remove(snapName(snaps[i]))
	}

	// Replay the segment chain. Segments chain by record count: a
	// segment starting at position p with k records is followed by one
	// starting at p+k. A gap, a torn record, or a corrupt record ends
	// recovery; everything after is unreachable by the durability
	// contract (it was never acknowledged) and is discarded.
	pos := uint64(0)
	if len(segs) > 0 {
		pos = segs[0] - 1
	}
	if rec.SnapshotPos > pos {
		pos = rec.SnapshotPos
	}
	expected := uint64(0)
	for i, start := range segs {
		if i > 0 && start != expected {
			rec.Torn = true
			break
		}
		data, err := fs.ReadFile(segName(start))
		if err != nil {
			rec.Torn = true
			break
		}
		recs, valid, clean := DecodeRecords(data)
		for j, r := range recs {
			p := start + uint64(j)
			if p > rec.SnapshotPos {
				rec.Records = append(rec.Records, r)
			}
			if p > pos {
				pos = p
			}
		}
		expected = start + uint64(len(recs))
		if !clean {
			rec.Torn = true
			// Seal the torn segment back to its valid prefix so a
			// future recovery chains past it instead of re-tripping.
			if err := l.sealSegment(start, data[:valid]); err != nil {
				return nil, err
			}
			break
		}
	}
	rec.Pos = pos

	// Drop segments made obsolete by the snapshot and anything beyond
	// the torn point; then open a fresh active segment. Recovery never
	// appends to an existing segment — a torn tail must stay sealed.
	for i, start := range segs {
		end := expected // only meaningful for fully scanned segments
		if i+1 < len(segs) {
			end = segs[i+1]
		}
		if end <= rec.SnapshotPos+1 || start > pos+1 {
			_ = fs.Remove(segName(start))
		}
	}
	active, err := fs.Create(segName(pos + 1))
	if err != nil {
		return nil, err
	}
	l.active = active
	l.activeStart = pos + 1
	l.activeBytes = 0
	l.pos = pos
	l.synced = pos
	l.snapPos = rec.SnapshotPos
	l.syncing = false
	l.failErr = nil
	l.closed = false
	l.stats.Recovered++
	if l.o.Trace != nil {
		detail := l.o.Name
		if rec.Torn {
			detail += " torn"
		}
		trace.Stamp(l.o.Trace, trace.Event{Kind: trace.KindRecover,
			Troupe: pos, N: len(rec.Records), Detail: strings.TrimSpace(detail)})
	}
	return rec, nil
}

// sealSegment rewrites a torn segment to its valid prefix via
// temp-write, sync, and atomic rename.
func (l *Log) sealSegment(start uint64, valid []byte) error {
	fs := l.o.FS
	tmp := segName(start) + tmpSuffix
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(valid); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	f.Close()
	return fs.Rename(tmp, segName(start))
}

// Reopen simulates (or follows) a power loss: whatever the FS now
// holds is re-scanned exactly as Open would, in-flight appends are
// voided with ErrReopened, and the log is ready to append again. The
// chaos harness calls it after MemFS.Crash + Restart.
func (l *Log) Reopen() (*Recovered, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.gen++
	if l.active != nil {
		l.active.Close()
		l.active = nil
	}
	rec, err := l.recoverLocked()
	l.cond.Broadcast()
	return rec, err
}

// Append writes one record without waiting for durability; pair with
// Sync. Most callers want AppendSync. The log keeps no reference to
// payload.
func (l *Log) Append(payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(payload)
}

func (l *Log) appendLocked(payload []byte) (uint64, error) {
	if l.closed {
		return 0, ErrClosed
	}
	if l.activeBytes >= l.o.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
		if l.closed {
			return 0, ErrClosed
		}
	}
	// File.Write must not retain its argument (io.Writer), so the
	// frame is built in place in the log's buffer.
	l.frame = appendFrame(l.frame[:0], payload)
	n := len(l.frame)
	_, err := l.active.Write(l.frame)
	if cap(l.frame) > maxFrameKeep {
		l.frame = nil
	}
	if err != nil {
		return 0, err
	}
	l.pos++
	l.activeBytes += n
	l.stats.Appends++
	if l.o.Trace != nil {
		trace.Stamp(l.o.Trace, trace.Event{Kind: trace.KindWALAppend,
			Troupe: l.pos, N: len(payload), Detail: l.o.Name})
	}
	return l.pos, nil
}

// rotateLocked seals the active segment (one fsync makes its whole
// content durable) and opens the next. A group-commit fsync in flight
// is drained first so leader and rotation never sync concurrently;
// waiting releases the lock, so the rotation condition is re-checked.
func (l *Log) rotateLocked() error {
	for l.syncing && !l.closed {
		l.cond.Wait()
	}
	if l.closed {
		return ErrClosed
	}
	if l.activeBytes < l.o.SegmentBytes {
		return nil // another appender rotated while we waited
	}
	if err := l.active.Sync(); err != nil {
		return err
	}
	l.stats.Fsyncs++
	if l.pos > l.synced {
		l.synced = l.pos
	}
	l.active.Close()
	next, err := l.o.FS.Create(segName(l.pos + 1))
	if err != nil {
		return err
	}
	l.active = next
	l.activeStart = l.pos + 1
	l.activeBytes = 0
	l.stats.Segments++
	return nil
}

// AppendSync appends one record and returns once it is durable. Group
// commit: while one caller's fsync is in flight, later callers queue
// behind it and are covered together by the next single fsync.
func (l *Log) AppendSync(payload []byte) (uint64, error) {
	l.mu.Lock()
	pos, err := l.appendLocked(payload)
	if err != nil {
		l.mu.Unlock()
		return 0, err
	}
	err = l.waitSyncedLocked(pos)
	l.mu.Unlock()
	return pos, err
}

// Sync makes every record appended so far durable (batching with any
// concurrent AppendSync).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.waitSyncedLocked(l.pos)
}

// SyncTo makes every record up to position pos durable, returning
// immediately when that prefix already is. A retried operation whose
// record was appended (but not synced) by an earlier failed attempt
// uses this to finish the job without re-appending.
func (l *Log) SyncTo(pos uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if pos > l.pos {
		pos = l.pos
	}
	return l.waitSyncedLocked(pos)
}

// waitSyncedLocked blocks until position target is durable, electing
// this goroutine as the fsync leader when none is in flight. An fsync
// failure is delivered to the leader and to exactly the followers of
// that round — later callers trigger a fresh fsync rather than
// inheriting a stale error, so a healed disk heals the log. Called
// with l.mu held; may release and reacquire it.
func (l *Log) waitSyncedLocked(target uint64) error {
	gen := l.gen
	for {
		if l.gen != gen {
			return ErrReopened
		}
		if l.closed {
			return ErrClosed
		}
		if l.synced >= target {
			return nil
		}
		if !l.syncing {
			// Leader: one fsync covers every append admitted so far.
			l.syncing = true
			covered := l.pos
			f := l.active
			l.mu.Unlock()
			err := f.Sync()
			l.mu.Lock()
			if l.gen != gen {
				return ErrReopened
			}
			l.syncing = false
			l.syncSeq++
			if err == nil {
				if covered > l.synced {
					l.synced = covered
				}
				l.stats.Fsyncs++
			} else {
				l.failSeq = l.syncSeq
				l.failErr = err
			}
			l.cond.Broadcast()
			if err != nil {
				return err
			}
			continue
		}
		// Follower: wait out the in-flight fsync and take its verdict.
		seq := l.syncSeq
		for l.syncSeq == seq && l.gen == gen && !l.closed {
			l.cond.Wait()
		}
		if l.gen != gen {
			return ErrReopened
		}
		if l.closed {
			return ErrClosed
		}
		if l.synced >= target {
			return nil
		}
		if l.failSeq == l.syncSeq && l.failErr != nil {
			return l.failErr
		}
		// That fsync succeeded but was led before our append; elect or
		// follow again.
	}
}

// Snapshot records the application state as covering every record
// appended so far. Correct only when no appends race it; concurrent
// members use SnapshotAt with a position captured under their own
// state lock.
func (l *Log) Snapshot(state []byte) error {
	return l.SnapshotAt(state, l.Pos())
}

// SnapshotAt records state as covering every record with position
// <= pos, then prunes fully covered segments and older snapshots. The
// caller guarantees state reflects at least all records through pos —
// the members' locking gives this: state mutations happen before the
// corresponding append, and the caller captures state and pos under
// the same lock.
func (l *Log) SnapshotAt(state []byte, pos uint64) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if pos > l.pos {
		pos = l.pos
	}
	gen := l.gen
	l.mu.Unlock()

	fs := l.o.FS
	tmp := snapName(pos) + tmpSuffix
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(appendFrame(nil, state)); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	f.Close()
	if err := fs.Rename(tmp, snapName(pos)); err != nil {
		return err
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.gen != gen {
		return ErrReopened
	}
	if pos > l.snapPos {
		l.snapPos = pos
	}
	l.stats.Snapshots++
	l.stats.Fsyncs++
	if l.o.Trace != nil {
		trace.Stamp(l.o.Trace, trace.Event{Kind: trace.KindWALSnapshot,
			Troupe: pos, N: len(state), Detail: l.o.Name})
	}
	// Prune: drop snapshots older than this one and segments whose
	// records all lie at or below it. The active segment stays.
	names, err := fs.List()
	if err != nil {
		return nil // pruning is best-effort
	}
	var segs []uint64
	for _, name := range names {
		p, kind, ok := parseName(name)
		if !ok {
			continue
		}
		if kind == snapSuffix && p < pos {
			_ = fs.Remove(snapName(p))
		}
		if kind == segSuffix {
			segs = append(segs, p)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	for i, start := range segs {
		if start == l.activeStart {
			continue
		}
		end := l.activeStart // records strictly below the next segment
		if i+1 < len(segs) {
			end = segs[i+1]
		}
		if end <= pos+1 {
			_ = fs.Remove(segName(start))
		}
	}
	return nil
}

// NeedSnapshot reports whether SnapshotEvery records have accumulated
// past the last snapshot.
func (l *Log) NeedSnapshot() bool {
	if l.o.SnapshotEvery <= 0 {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pos-l.snapPos >= uint64(l.o.SnapshotEvery)
}

// Pos returns the position of the last appended record.
func (l *Log) Pos() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pos
}

// Stats returns a copy of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Close syncs and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	err := l.waitSyncedLocked(l.pos)
	l.closed = true
	if l.active != nil {
		l.active.Close()
		l.active = nil
	}
	l.cond.Broadcast()
	l.mu.Unlock()
	if errors.Is(err, ErrReopened) || errors.Is(err, ErrClosed) {
		err = nil
	}
	return err
}
