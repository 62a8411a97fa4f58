package txn

import (
	"errors"
	"slices"
	"sync"

	"circus/internal/trace"
)

// Mode is a lock mode. Two-phase locking distinguishes read locks,
// which are compatible with one another, from exclusive write locks
// (§2.3.1: more sophisticated versions of two-phase locking allow
// operations that do not conflict to proceed concurrently).
type Mode int

const (
	// Read is a shared lock.
	Read Mode = iota
	// Write is an exclusive lock.
	Write
)

// ErrWaitDie reports that a transaction asked for a lock held, or
// queued for, by an older transaction, and must abort rather than wait.
var ErrWaitDie = errors.New("txn: wait-die abort")

type waiter struct {
	tx    uint64
	mode  Mode
	ready chan struct{} // closed when granted
	err   error
}

type lockState struct {
	holders map[uint64]Mode
	queue   []*waiter
}

// LockManager implements two-phase locking over named objects. It
// prevents deadlock by the wait-die scheme of Rosenkrantz et al.
// (§5.4): transaction IDs are timestamps, smaller is older, and an
// older transaction may wait for a younger one, but a younger one
// aborts instead of waiting. Every wait is then from older to younger,
// so no cycle of waits can form.
type LockManager struct {
	tr trace.Sink // nil disables lock tracing

	mu    sync.Mutex
	locks map[string]*lockState
}

// NewLockManager returns an empty lock manager.
func NewLockManager() *LockManager {
	return &LockManager{locks: make(map[string]*lockState)}
}

// SetTrace installs a sink recording lock grants and releases. Lock
// events carry the root transaction ID in Troupe, the object name in
// Detail, and the mode in N; they have no transport identity, so
// traces join them to call events by time and detail.
func (lm *LockManager) SetTrace(s trace.Sink) { lm.tr = s }

// Acquire obtains the lock on obj in the given mode on behalf of tx,
// blocking while conflicting transactions hold it. It returns
// ErrWaitDie if an older transaction blocks tx.
// Reentrant acquisition and read-to-write upgrade are supported.
func (lm *LockManager) Acquire(tx uint64, obj string, mode Mode) error {
	lm.mu.Lock()
	ls, ok := lm.locks[obj]
	if !ok {
		ls = &lockState{holders: make(map[uint64]Mode)}
		lm.locks[obj] = ls
	}
	blockers := ls.blockers(tx, mode)
	if len(blockers) == 0 {
		ls.grant(tx, mode)
		lm.mu.Unlock()
		lm.traceAcquire(tx, obj, mode)
		return nil
	}
	if dies(tx, blockers) {
		lm.mu.Unlock()
		return ErrWaitDie
	}
	w := &waiter{tx: tx, mode: mode, ready: make(chan struct{})}
	ls.queue = append(ls.queue, w)
	lm.mu.Unlock()
	<-w.ready
	// wakeLocked or ReleaseAll settled the wait under lm.mu: granted
	// the lock, or set err. Checking ls again instead would race a
	// release that drops ls from the table meanwhile, leaving this
	// waiter to queue where nothing wakes it.
	if w.err != nil {
		return w.err
	}
	lm.traceAcquire(tx, obj, mode)
	return nil
}

func (lm *LockManager) traceAcquire(tx uint64, obj string, mode Mode) {
	if lm.tr != nil {
		trace.Stamp(lm.tr, trace.Event{Kind: trace.KindLockAcquire,
			Troupe: tx, Detail: obj, N: int(mode)})
	}
}

// blockers returns the transactions that keep tx from taking the lock
// in mode now: holders in a conflicting mode and — fairness — for a
// read by a transaction that holds nothing here, the queued writes of
// other transactions (a read must not overtake a queued write, which
// would starve writers; an upgrade keeps its priority). tx may take
// the lock exactly when there are none.
func (ls *lockState) blockers(tx uint64, mode Mode) []uint64 {
	var blockers []uint64
	for holder, hmode := range ls.holders {
		if holder != tx && (mode == Write || hmode == Write) {
			blockers = append(blockers, holder)
		}
	}
	if _, held := ls.holders[tx]; !held && mode == Read {
		for _, w := range ls.queue {
			if w.tx != tx && w.mode == Write {
				blockers = append(blockers, w.tx)
			}
		}
	}
	return blockers
}

// grant makes tx a holder in mode, or upgrades the mode it holds.
func (ls *lockState) grant(tx uint64, mode Mode) {
	if cur, held := ls.holders[tx]; !held || mode > cur {
		ls.holders[tx] = mode
	}
}

// dies reports whether tx must abort rather than wait for blockers:
// whether any of them is older.
func dies(tx uint64, blockers []uint64) bool {
	for _, b := range blockers {
		if tx > b {
			return true
		}
	}
	return false
}

// ReleaseAll releases every lock held by tx and wakes eligible
// waiters; 2PL requires each transaction to hold all locks until it
// commits or aborts (§2.3.1). An acquisition of tx's own still queued
// fails with ErrTxDone: granted later, its lock would outlive the
// transaction, and nothing would release it.
func (lm *LockManager) ReleaseAll(tx uint64) {
	if lm.tr != nil {
		trace.Stamp(lm.tr, trace.Event{Kind: trace.KindLockRelease, Troupe: tx})
	}
	lm.mu.Lock()
	defer lm.mu.Unlock()
	for obj, ls := range lm.locks {
		delete(ls.holders, tx)
		ls.queue = slices.DeleteFunc(ls.queue, func(w *waiter) bool {
			if w.tx != tx {
				return false
			}
			w.err = ErrTxDone
			close(w.ready)
			return true
		})
		ls.wakeLocked()
		if len(ls.holders) == 0 && len(ls.queue) == 0 {
			delete(lm.locks, obj)
		}
	}
}

// wakeLocked settles a lock's queue after a release, in FIFO order: a
// waiter nothing blocks any more is granted, and a waiter left behind
// a blocker older than itself — one granted ahead of it just now, say
// — dies, as it would had it asked now. A waiter that dies may have
// been the queued write holding back a read ahead of it, so the pass
// repeats until one leaves every waiter waiting.
func (ls *lockState) wakeLocked() {
	for again := true; again; {
		again = false
		var remaining []*waiter
		for _, w := range ls.queue {
			blockers := ls.blockers(w.tx, w.mode)
			switch {
			case len(blockers) == 0:
				ls.grant(w.tx, w.mode)
			case dies(w.tx, blockers):
				w.err = ErrWaitDie
				again = true
			default:
				remaining = append(remaining, w)
				continue
			}
			close(w.ready)
		}
		ls.queue = remaining
	}
}

// Held reports whether tx currently holds a lock on obj (for tests).
func (lm *LockManager) Held(tx uint64, obj string) (Mode, bool) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	ls, ok := lm.locks[obj]
	if !ok {
		return 0, false
	}
	m, ok := ls.holders[tx]
	return m, ok
}
