// Package txn implements replicated lightweight transactions (§5).
//
// Transactions provide the synchronization replicated distributed
// programs need once there is more than one thread of control: not
// only must concurrent calls be serialized at each server troupe
// member, they must be serialized in the same order at all members
// (§5.1). Because troupes mask partial failures, the permanence
// machinery of conventional transactions (stable storage, commit
// records) is unnecessary: these transactions live entirely in
// volatile memory, which is what makes them lightweight (§5.2).
//
// The package provides a versioned in-memory store with dynamically
// nested transactions over two-phase locking (store.go, locks.go), the
// optimistic troupe commit protocol (commit.go), and the
// starvation-free ordered broadcast alternative (broadcast.go).
package txn

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"circus/internal/kv"
	"circus/internal/trace"
)

// ErrTxDone reports use of a committed or aborted transaction.
var ErrTxDone = errors.New("txn: transaction already terminated")

// ErrNotFound reports a read of a key with no value.
var ErrNotFound = errors.New("txn: key not found")

// Store is a transactional in-memory object store: the state variable
// of a module (§3.1), structured so that tentative updates can be
// undone (§5.2). Its committed state is a kv.Store, which also
// redo-logs it for a durable store (durable.go).
type Store struct {
	lm     *LockManager
	tr     trace.Sink // nil disables transaction tracing
	kv     *kv.Store
	nextTx atomic.Uint64
}

// Position returns the committed state's apply-order position (see
// kv.Store.Position): it survives restarts of a durable store and is
// comparable across troupe members applying the same commit sequence.
func (s *Store) Position() int { return s.kv.Position() }

// SetTrace installs a sink recording transaction commits and aborts
// (and, via the lock manager, lock grants and releases). Transaction
// events carry the root transaction ID in Troupe.
func (s *Store) SetTrace(sink trace.Sink) {
	s.tr = sink
	s.lm.SetTrace(sink)
}

// NewStore returns an empty store using the given locking policy.
func NewStore(policy Policy) *Store {
	return &Store{lm: NewLockManager(policy), kv: kv.New()}
}

// txState is the lifecycle of a transaction.
type txState int

const (
	txActive txState = iota
	txCommitted
	txAborted
)

// Tx is a transaction (or subtransaction). Until it commits, its
// updates are tentative and visible only to itself and its descendants
// (§2.3.2). Committing a subtransaction folds its updates into the
// parent; committing a top-level transaction applies them to the
// store and releases its locks.
type Tx struct {
	store  *Store
	parent *Tx
	id     uint64 // root transaction ID; shared by all descendants

	mu      sync.Mutex
	state   txState
	writes  map[string]*[]byte // nil slice pointer = deleted
	openSub bool
}

// Begin starts a top-level transaction. Transaction IDs are issued in
// increasing order and double as the timestamps of the wait-die
// policy.
func (s *Store) Begin() *Tx {
	return &Tx{store: s, id: s.nextTx.Add(1), writes: make(map[string]*[]byte)}
}

// Begin starts a subtransaction, nested dynamically like a procedure
// activation record (§5.2). A transaction may have one open
// subtransaction at a time (the thread's stack discipline, §3.2).
func (t *Tx) Begin() (*Tx, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != txActive {
		return nil, ErrTxDone
	}
	if t.openSub {
		return nil, errors.New("txn: parent already has an open subtransaction")
	}
	t.openSub = true
	return &Tx{store: t.store, parent: t, id: t.id, writes: make(map[string]*[]byte)}, nil
}

// ID returns the root transaction ID.
func (t *Tx) ID() uint64 { return t.id }

// acquire takes a lock on behalf of the transaction and re-checks
// liveness afterwards: the transaction may have been aborted by
// another thread (a remote abort racing a blocked lock request) while
// the request was queued, in which case the just-granted lock must be
// released rather than orphaned.
func (t *Tx) acquire(key string, mode Mode) error {
	if err := t.store.lm.Acquire(t.id, key, mode); err != nil {
		return err
	}
	root := t
	for root.parent != nil {
		root = root.parent
	}
	root.mu.Lock()
	dead := root.state != txActive
	root.mu.Unlock()
	if dead {
		t.store.lm.ReleaseAll(t.id)
		return ErrTxDone
	}
	return nil
}

// Get reads a key under a read lock. Its own and its ancestors'
// tentative updates are visible (§2.3.2).
func (t *Tx) Get(key string) ([]byte, error) {
	t.mu.Lock()
	if t.state != txActive {
		t.mu.Unlock()
		return nil, ErrTxDone
	}
	t.mu.Unlock()
	if err := t.acquire(key, Read); err != nil {
		return nil, err
	}
	for cur := t; cur != nil; cur = cur.parent {
		cur.mu.Lock()
		vp, ok := cur.writes[key]
		cur.mu.Unlock()
		if ok {
			if *vp == nil {
				return nil, ErrNotFound
			}
			return append([]byte(nil), (*vp)...), nil
		}
	}
	v, ok := t.store.kv.Get(key)
	if !ok {
		return nil, ErrNotFound
	}
	return []byte(v), nil
}

// Set tentatively writes a key under a write lock.
func (t *Tx) Set(key string, value []byte) error {
	t.mu.Lock()
	if t.state != txActive {
		t.mu.Unlock()
		return ErrTxDone
	}
	t.mu.Unlock()
	if err := t.acquire(key, Write); err != nil {
		return err
	}
	v := make([]byte, len(value)) // non-nil even when empty: nil marks deletion
	copy(v, value)
	vp := &v
	t.mu.Lock()
	t.writes[key] = vp
	t.mu.Unlock()
	return nil
}

// Delete tentatively removes a key under a write lock.
func (t *Tx) Delete(key string) error {
	t.mu.Lock()
	if t.state != txActive {
		t.mu.Unlock()
		return ErrTxDone
	}
	t.mu.Unlock()
	if err := t.acquire(key, Write); err != nil {
		return err
	}
	var nilv []byte
	t.mu.Lock()
	t.writes[key] = &nilv
	t.mu.Unlock()
	return nil
}

// Commit makes the transaction's updates permanent: a subtransaction's
// become visible to its parent; a top-level transaction's become
// visible to other transactions, and its locks are released (strict
// two-phase locking, §2.3.1).
func (t *Tx) Commit() error {
	t.mu.Lock()
	if t.state != txActive {
		t.mu.Unlock()
		return ErrTxDone
	}
	if t.openSub {
		t.mu.Unlock()
		return errors.New("txn: open subtransaction must terminate first")
	}
	t.state = txCommitted
	writes := t.writes
	t.mu.Unlock()

	if t.parent != nil {
		t.parent.mu.Lock()
		for k, vp := range writes {
			t.parent.writes[k] = vp
		}
		t.parent.openSub = false
		t.parent.mu.Unlock()
		// Locks were acquired in the root's name and are retained by
		// the parent (Moss's rules, §2.3.2).
		if t.store.tr != nil {
			trace.Stamp(t.store.tr, trace.Event{Kind: trace.KindTxnCommit,
				Troupe: t.id, N: len(writes), Detail: "sub"})
		}
		return nil
	}

	// One kv batch, so one redo record that is undone if its append
	// fails; sorted so every member logs the same record.
	batch := make([]kv.Pair, 0, len(writes))
	for k, vp := range writes {
		if *vp == nil {
			batch = append(batch, kv.Pair{Key: k, Del: true})
		} else {
			batch = append(batch, kv.Pair{Key: k, Val: string(*vp)})
		}
	}
	slices.SortFunc(batch, func(a, b kv.Pair) int { return strings.Compare(a.Key, b.Key) })
	_, err := t.store.kv.Write(batch)
	if t.store.tr != nil {
		trace.Stamp(t.store.tr, trace.Event{Kind: trace.KindTxnCommit,
			Troupe: t.id, N: len(writes)})
	}
	t.store.lm.ReleaseAll(t.id)
	return err
}

// Abort undoes the transaction: tentative updates vanish without a
// trace (§2.3.1: aborts never cascade, because tentative updates were
// never visible to other transactions).
func (t *Tx) Abort() error {
	t.mu.Lock()
	if t.state != txActive {
		t.mu.Unlock()
		return ErrTxDone
	}
	if t.openSub {
		t.mu.Unlock()
		return errors.New("txn: open subtransaction must terminate first")
	}
	t.state = txAborted
	t.mu.Unlock()

	if t.parent != nil {
		t.parent.mu.Lock()
		t.parent.openSub = false
		t.parent.mu.Unlock()
		// Locks acquired by the aborted subtransaction remain with
		// the root: conservative and safe.
		if t.store.tr != nil {
			trace.Stamp(t.store.tr, trace.Event{Kind: trace.KindTxnAbort,
				Troupe: t.id, Detail: "sub"})
		}
		return nil
	}
	if t.store.tr != nil {
		trace.Stamp(t.store.tr, trace.Event{Kind: trace.KindTxnAbort, Troupe: t.id})
	}
	t.store.lm.ReleaseAll(t.id)
	return nil
}

// ReadCommitted reads a key outside any transaction, seeing only
// committed state (used by state transfer, §6.4.1, which runs as a
// read-only transaction; callers needing strictness should use Get).
func (s *Store) ReadCommitted(key string) ([]byte, bool) {
	v, ok := s.kv.Get(key)
	if !ok {
		return nil, false
	}
	return []byte(v), true
}

// Keys returns the committed keys in unspecified order.
func (s *Store) Keys() []string {
	m := s.kv.Snapshot()
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// RetryOptions tunes Run's handling of deadlock aborts.
type RetryOptions struct {
	// MaxAttempts bounds the number of tries; zero means 10.
	MaxAttempts int
	// BaseDelay is the first back-off interval; zero means 1ms. The
	// mean delay doubles on each retry — the binary exponential
	// back-off of §5.3.1.
	BaseDelay time.Duration
	// Rand supplies the randomized back-off; nil uses a private
	// source.
	Rand *rand.Rand
}

// Run executes body inside a transaction, committing on nil return and
// aborting otherwise. Deadlock (and wait-die) aborts are retried with
// binary exponential back-off (§5.3.1); other errors abort and are
// returned.
func (s *Store) Run(opts RetryOptions, body func(tx *Tx) error) error {
	if opts.MaxAttempts == 0 {
		opts.MaxAttempts = 10
	}
	if opts.BaseDelay == 0 {
		opts.BaseDelay = time.Millisecond
	}
	rng := opts.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	delay := opts.BaseDelay
	var err error
	for attempt := 0; attempt < opts.MaxAttempts; attempt++ {
		tx := s.Begin()
		err = body(tx)
		if err == nil {
			return tx.Commit()
		}
		tx.Abort()
		if !errors.Is(err, ErrDeadlock) && !errors.Is(err, ErrWaitDie) {
			return err
		}
		// Randomly chosen interval with doubling mean (§5.3.1).
		time.Sleep(time.Duration(rng.Int63n(int64(delay) + 1)))
		delay *= 2
	}
	return err
}
