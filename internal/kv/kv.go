// Package kv is the key-value state machine of every replicated store
// in this repository: the campaigns' checked module (chaos.KV), the
// committed state of lightweight transactions (txn.Store), and what
// `circus-kv serve` ships. It is a module's state variable (§3.1) and
// what get_state/set_state transfer to a joining member (§6.4.1).
//
// Besides the map a store keeps its apply-order log. Its absolute
// length is the member's position: a rejoining member reports its
// position and receives a peer's suffix instead of the whole map. A
// durable store also redo-logs every state change to a WAL and awaits
// its fsync before the call returns, so an acknowledged write
// survives a whole-troupe power loss; it snapshots the live pairs
// when enough log has accumulated, and replays snapshot and tail on
// restart.
package kv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"circus/internal/core"
	"circus/internal/wal"
	"circus/internal/wire"
)

// Procedure numbers.
const (
	// ProcPut stores a key/value pair (a marshaled Pair) and returns the
	// key. Replays of a put that already took effect are idempotent, so
	// a resilient caller's retries are safe.
	ProcPut uint16 = 1
	// ProcGet returns the value of a key, empty if absent.
	ProcGet uint16 = 2
	// ProcDump returns the whole map, for reconciliation and checking.
	ProcDump uint16 = 3
	// ProcMerge adds every entry of the argument dump whose key is
	// absent locally and applies its tombstones: the repair half of
	// state transfer (§6.4.1).
	ProcMerge uint16 = 4
	// ProcPosition returns the member's absolute position as 8 bytes
	// big-endian: the rejoin handshake that chooses delta over full
	// state transfer.
	ProcPosition uint16 = 5
	// ProcDumpSince returns the apply-order suffix from the argument
	// position (8 bytes big-endian): the delta half of state transfer.
	ProcDumpSince uint16 = 6
	// ProcDel deletes a batch of keys (a marshaled []string). Deletes
	// append tombstones to the apply-order log, so delta transfers
	// propagate them, and durable stores log them like puts.
	ProcDel uint16 = 7
)

// Pair is one entry of the apply-order log, of a redo record and of a
// dump.
type Pair struct {
	Key, Val string
	// Del marks a tombstone: the pair records the deletion of Key, and
	// Val is empty. Tombstones live in the apply-order log (and its WAL
	// records) only until the next snapshot compacts them away.
	Del bool
}

// maxTail bounds the apply-order log a store keeps in memory. A longer
// log drops its oldest half and advances base, so a member asking for
// a suffix that old gets a full transfer instead. Campaigns apply a
// few thousand pairs per member, far below it, so their rejoins stay
// deltas.
const maxTail = 1 << 14

// Store is a key-value map with an apply-order log, optionally
// redo-logged to a WAL.
type Store struct {
	wal *wal.Log // nil = in-memory store

	// snapMu serializes checkpoints: the covered-prefix truncation must
	// see the same order log the image captured.
	snapMu sync.Mutex

	mu     sync.Mutex
	data   map[string]string
	order  []Pair            // applied pairs since the last compaction
	base   int               // apply-order entries dropped; position = base + len(order)
	gen    int               // bumped by Recover, so a stale checkpoint aborts
	keyPos map[string]uint64 // key -> WAL position of its latest redo record
}

// New returns an empty in-memory store.
func New() *Store {
	return &Store{data: make(map[string]string), keyPos: make(map[string]uint64)}
}

// Open returns a store whose state changes are redo-logged to log,
// first replaying rec, what a previous incarnation left on disk (nil
// for none).
func Open(log *wal.Log, rec *wal.Recovered) (*Store, error) {
	s := New()
	s.wal = log
	if rec != nil {
		if err := s.Recover(rec); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Restart simulates the member process dying and coming back with
// only its disk: the log is reopened and the state rebuilt from it.
// In-flight appends fail with wal.ErrReopened, so a write racing the
// crash is never acknowledged. No-op for in-memory stores.
func (s *Store) Restart() error {
	if s.wal == nil {
		return nil
	}
	rec, err := s.wal.Reopen()
	if err != nil {
		return err
	}
	return s.Recover(rec)
}

// image is the snapshot format: the live pairs plus the apply-order
// position they cover. Replaying an image costs O(live keys) no matter
// how many puts and deletes preceded it.
type image struct {
	Position uint64
	Pairs    []Pair
}

// Recover discards the in-memory state and rebuilds it from a recovery
// image: the compacted snapshot (live pairs at a recorded position),
// then the redo records after it.
func (s *Store) Recover(rec *wal.Recovered) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data = make(map[string]string)
	s.order = nil
	s.base = 0
	s.gen++
	s.keyPos = make(map[string]uint64)
	if rec.Snapshot != nil {
		var img image
		if err := wire.Unmarshal(rec.Snapshot, &img); err != nil {
			return errors.New("kv: garbled snapshot: " + err.Error())
		}
		for _, p := range img.Pairs {
			s.applyLocked(p)
		}
		// The image's pairs land at the start of the rebuilt order log;
		// base re-anchors the absolute position so that peers' position
		// comparisons stay meaningful across the restart.
		s.base = int(img.Position) - len(s.order)
	}
	for _, r := range rec.Records {
		pairs, err := DecodePairs(r)
		if err != nil {
			return err
		}
		for _, p := range pairs {
			s.applyLocked(p)
		}
	}
	s.trimLocked()
	return nil
}

// applyLocked applies one pair, reporting whether it changed state and
// the pair that would reverse it (Del set when the key was absent).
// Replay and live writes share it, so replayed state is bit-identical
// to what memory held.
func (s *Store) applyLocked(p Pair) (changed bool, prev Pair) {
	old, had := s.data[p.Key]
	prev = Pair{Key: p.Key, Val: old, Del: !had}
	switch {
	case p.Del && !had, !p.Del && had && old == p.Val:
		return false, prev // idempotent: already so
	case p.Del:
		delete(s.data, p.Key)
	default:
		s.data[p.Key] = p.Val
	}
	s.order = append(s.order, p)
	return true, prev
}

// trimLocked keeps the apply-order log within maxTail, reusing its
// array.
func (s *Store) trimLocked() {
	if n := len(s.order); n > maxTail {
		kept := copy(s.order, s.order[n-maxTail/2:])
		clear(s.order[kept:])
		s.order = s.order[:kept]
		s.base += n - kept
	}
}

// Write applies a batch of puts and tombstones in order and, for a
// durable store, logs the pairs that changed state as one redo record
// and awaits its durability. It returns the live pairs its puts
// overwrote. When the append fails the whole batch is undone:
// otherwise a retry would find the change present and acknowledge a
// write the log cannot recover. When only the fsync fails the record
// stays appended and keyPos remembers it, so a retry that changes
// nothing waits for that record's durability instead of acking for
// free.
func (s *Store) Write(batch []Pair) (overwritten []Pair, err error) {
	return s.apply(batch, false)
}

// Merge folds a peer's pairs in: puts of keys absent locally and
// tombstones of keys present. It returns the live pairs it kept
// although the peer offered a different value.
func (s *Store) Merge(pairs []Pair) (kept []Pair, err error) {
	return s.apply(pairs, true)
}

// apply is Write, and Merge when keep is set: a put of a live key then
// leaves it in place.
func (s *Store) apply(batch []Pair, keep bool) (clashes []Pair, err error) {
	s.mu.Lock()
	start := len(s.order)
	var prevs []Pair
	var target uint64
	for _, p := range batch {
		if keep && !p.Del {
			if old, ok := s.data[p.Key]; ok {
				if old != p.Val {
					clashes = append(clashes, Pair{Key: p.Key, Val: old})
				}
				continue
			}
		}
		changed, prev := s.applyLocked(p)
		if !changed {
			target = max(target, s.keyPos[p.Key])
			continue
		}
		if s.wal != nil {
			prevs = append(prevs, prev) // to undo a failed append
		}
		if !p.Del && !prev.Del {
			clashes = append(clashes, prev)
		}
	}
	if applied := s.order[start:]; s.wal != nil && len(applied) > 0 {
		pos, err := s.logLocked(applied)
		if err != nil {
			s.order = s.order[:start]
			for i := len(prevs) - 1; i >= 0; i-- {
				if p := prevs[i]; p.Del {
					delete(s.data, p.Key)
				} else {
					s.data[p.Key] = p.Val
				}
			}
			s.mu.Unlock()
			return nil, err
		}
		target = max(target, pos)
	}
	s.trimLocked()
	s.mu.Unlock()
	return clashes, s.ackDurable(target)
}

// logLocked appends one redo record covering pairs and records their
// log position, so a future retry knows what durability to wait for.
// Called with s.mu held so the WAL order equals the apply order; the
// fsync is awaited outside the lock.
func (s *Store) logLocked(pairs []Pair) (uint64, error) {
	b, err := wire.Marshal(pairs)
	if err != nil {
		return 0, err
	}
	pos, err := s.wal.Append(b)
	if err != nil {
		return 0, err
	}
	for _, p := range pairs {
		s.keyPos[p.Key] = pos
	}
	return pos, nil
}

// ackDurable awaits durability through log position target (group
// commit batches concurrent callers under one fsync) and checkpoints
// when enough log has accumulated. target 0 means the state in
// question is already durable (snapshot or replay).
func (s *Store) ackDurable(target uint64) error {
	if s.wal == nil || target == 0 {
		return nil
	}
	if err := s.wal.SyncTo(target); err != nil {
		return err
	}
	if s.wal.NeedSnapshot() {
		s.Checkpoint()
	}
	return nil
}

// Checkpoint writes the live state of a durable store as a compacted
// snapshot, truncating the WAL, then drops the covered apply-order
// prefix (tombstones included) from memory. Position and state are
// captured under s.mu, where appends also happen, so the position
// exactly covers the captured state. A failed snapshot just delays
// truncation and compaction. No-op for in-memory stores.
func (s *Store) Checkpoint() {
	if s.wal == nil {
		return
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	s.mu.Lock()
	gen := s.gen
	pos := s.wal.Pos()
	img := image{Position: uint64(s.base + len(s.order)), Pairs: s.liveLocked()}
	s.mu.Unlock()
	sortPairs(img.Pairs)
	state, err := wire.Marshal(img)
	if err != nil || s.wal.SnapshotAt(state, pos) != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gen != gen {
		return // recovered under us: replay already rebuilt the order log
	}
	// Appends that raced in since the capture stay in the suffix. The
	// retry-durability bookkeeping of anything the image covers is
	// settled, so keyPos forgets keys that no longer exist.
	if drop := int(img.Position) - s.base; drop > 0 {
		s.order = append([]Pair(nil), s.order[drop:]...)
		s.base += drop
	}
	for k, p := range s.keyPos {
		if _, live := s.data[k]; !live && p <= pos {
			delete(s.keyPos, k)
		}
	}
}

// Get returns the value of key.
func (s *Store) Get(key string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.data[key]
	return v, ok
}

// Position returns the absolute apply-order position: how much state
// the member has, in its own ordering, counting entries already
// compacted away.
func (s *Store) Position() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.base + len(s.order)
}

// DumpSince externalizes the apply-order suffix from absolute position
// from: the delta a briefly absent member needs. A position beyond the
// log yields an empty dump; a position inside the dropped prefix is an
// error, which sends the repairman down its full-transfer path.
func (s *Store) DumpSince(from int) ([]byte, error) {
	s.mu.Lock()
	if from < s.base {
		s.mu.Unlock()
		return nil, fmt.Errorf("kv: suffix from %d compacted away (base %d)", from, s.base)
	}
	rel := min(from-s.base, len(s.order))
	dump := append([]Pair(nil), s.order[rel:]...)
	s.mu.Unlock()
	return wire.Marshal(dump)
}

// Snapshot copies the current map.
func (s *Store) Snapshot() map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(s.data))
	for k, v := range s.data {
		out[k] = v
	}
	return out
}

// GetState externalizes the map as a dump sorted by key (§6.4.1).
func (s *Store) GetState() ([]byte, error) {
	s.mu.Lock()
	dump := s.liveLocked()
	s.mu.Unlock()
	sortPairs(dump)
	return wire.Marshal(dump)
}

func (s *Store) liveLocked() []Pair {
	out := make([]Pair, 0, len(s.data))
	for k, v := range s.data {
		out = append(out, Pair{Key: k, Val: v})
	}
	return out
}

func sortPairs(p []Pair) {
	slices.SortFunc(p, func(a, b Pair) int { return strings.Compare(a.Key, b.Key) })
}

// SetState internalizes a peer's dump by merging it (§6.4.1). Merge
// rather than replace: a rejoining member may already have accepted
// writes under the new binding while the transfer was in flight.
func (s *Store) SetState(data []byte) error {
	dump, err := DecodePairs(data)
	if err != nil {
		return err
	}
	_, err = s.Merge(dump)
	return err
}

// WAL exposes the store's log (nil for in-memory stores).
func (s *Store) WAL() *wal.Log { return s.wal }

// Dispatch implements core.Module over the procedures above.
func (s *Store) Dispatch(call *core.ServerCall, proc uint16, args []byte) ([]byte, error) {
	switch proc {
	case ProcPut:
		var p Pair
		if err := wire.Unmarshal(args, &p); err != nil {
			return nil, err
		}
		if _, err := s.Write([]Pair{p}); err != nil {
			return nil, err
		}
		return []byte(p.Key), nil
	case ProcGet:
		v, _ := s.Get(string(args))
		return []byte(v), nil
	case ProcDump:
		return s.GetState()
	case ProcMerge:
		return nil, s.SetState(args)
	case ProcDel:
		var keys []string
		if err := wire.Unmarshal(args, &keys); err != nil {
			return nil, err
		}
		batch := make([]Pair, len(keys))
		for i, k := range keys {
			batch[i] = Pair{Key: k, Del: true}
		}
		_, err := s.Write(batch)
		return nil, err
	case ProcPosition:
		return binary.BigEndian.AppendUint64(nil, uint64(s.Position())), nil
	case ProcDumpSince:
		if len(args) != 8 {
			return nil, errors.New("kv: dump-since wants an 8-byte position")
		}
		return s.DumpSince(int(binary.BigEndian.Uint64(args)))
	default:
		return nil, core.ErrNoSuchProc
	}
}

// DecodePairs decodes a dump, a delta or a redo record.
func DecodePairs(data []byte) ([]Pair, error) {
	var dump []Pair
	if err := wire.Unmarshal(data, &dump); err != nil {
		return nil, errors.New("kv: garbled dump: " + err.Error())
	}
	return dump, nil
}
