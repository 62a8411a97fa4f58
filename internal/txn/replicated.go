package txn

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"circus/internal/collate"
	"circus/internal/core"
	"circus/internal/thread"
	"circus/internal/transport"
	"circus/internal/wire"
)

// This file assembles Chapter 5 end to end: a replicated transactional
// store. StoreModule is the server troupe member — an ordinary
// transactional store whose commits run the troupe commit protocol of
// §5.3 — and RemoteStore is the client library that brackets a
// sequence of replicated calls into one transaction, retrying
// deadlock-aborted rounds with binary exponential back-off (§5.3.1).
//
// A transaction is identified by the distributed thread performing it
// (§3.4.1): every member sees the same thread ID on every operation of
// the transaction, so the members' transaction tables stay aligned
// with no communication among them.

// Procedure numbers of the replicated store interface.
const (
	ProcTxGet    uint16 = 1
	ProcTxSet    uint16 = 2
	ProcTxDelete uint16 = 3
	ProcTxCommit uint16 = 4
	ProcTxAbort  uint16 = 5
)

// Error strings crossing the wire (AppError payloads).
const (
	errDeadlockWire = "txn: deadlock detected"
	errNoTxWire     = "txn: no active transaction"
)

// ErrAborted reports that the troupe commit round decided to abort.
var ErrAborted = errors.New("txn: transaction aborted by troupe commit")

type wireAddr struct {
	Host   uint32
	Port   uint16
	Module uint16
}

type keyArgs struct {
	Key string
}

type setArgs struct {
	Key string
	Val []byte
}

type getReply struct {
	Found bool
	Val   []byte
}

type commitArgs struct {
	Coord []wireAddr
}

// StoreModule is one server troupe member of a replicated
// transactional store. Export it on each member's runtime; all members
// start from the same (empty) state and stay consistent because the
// troupe commit protocol permits two transactions to commit only when
// every member serializes them in the same order (Theorem 5.1).
type StoreModule struct {
	store *Store

	mu  sync.Mutex
	txs map[thread.ID]*memberTx
	ttl time.Duration
	now func() time.Time
}

type memberTx struct {
	tx       *Tx
	lastUsed time.Time
	// doomed marks a transaction whose serialization diverged at this
	// member (a local deadlock abort while other members proceeded):
	// the member keeps the record so that at commit time it votes
	// ready_to_commit(false), turning the divergence into a collective
	// abort (§5.3).
	doomed bool
}

// NewStoreModule wraps a store as a replicated module. Transactions
// idle longer than ttl are aborted (their initiator is presumed
// crashed; the troupe masks it, §5.2); zero means 30 seconds.
func NewStoreModule(store *Store, ttl time.Duration) *StoreModule {
	if ttl == 0 {
		ttl = 30 * time.Second
	}
	return &StoreModule{
		store: store,
		txs:   make(map[thread.ID]*memberTx),
		ttl:   ttl,
		now:   time.Now,
	}
}

// Store returns the underlying local store (for tests and state
// transfer).
func (m *StoreModule) Store() *Store { return m.store }

var _ core.Module = (*StoreModule)(nil)

// tx returns the calling thread's transaction, beginning one on first
// use; transactions nest per thread, not per call, because the thread
// is the unit of sequential computation (§3.2).
func (m *StoreModule) tx(id thread.ID, begin bool) (*memberTx, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.expireLocked()
	if at, ok := m.txs[id]; ok {
		at.lastUsed = m.now()
		return at, nil
	}
	if !begin {
		return nil, errors.New(errNoTxWire)
	}
	t := m.store.Begin()
	at := &memberTx{tx: t, lastUsed: m.now()}
	m.txs[id] = at
	return at, nil
}

// opFailed records the outcome of a transactional operation: a
// serialization failure (deadlock, wait-die) dooms the member's
// transaction so the forthcoming commit round aborts everywhere.
func (m *StoreModule) opFailed(id thread.ID, err error) error {
	if errors.Is(err, ErrDeadlock) || errors.Is(err, ErrWaitDie) || errors.Is(err, ErrTxDone) {
		m.mu.Lock()
		if at, ok := m.txs[id]; ok {
			at.doomed = true
		}
		m.mu.Unlock()
	}
	return err
}

func (m *StoreModule) drop(id thread.ID) {
	m.mu.Lock()
	delete(m.txs, id)
	m.mu.Unlock()
}

// expireLocked aborts transactions whose initiator has gone quiet.
func (m *StoreModule) expireLocked() {
	cutoff := m.now().Add(-m.ttl)
	for id, at := range m.txs {
		if at.lastUsed.Before(cutoff) {
			at.tx.Abort()
			delete(m.txs, id)
		}
	}
}

// ActiveTransactions reports how many transactions are open (tests).
func (m *StoreModule) ActiveTransactions() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.txs)
}

// Dispatch implements core.Module.
func (m *StoreModule) Dispatch(call *core.ServerCall, proc uint16, args []byte) ([]byte, error) {
	id := call.Thread().ID()
	switch proc {
	case ProcTxGet:
		var a keyArgs
		if err := wire.Unmarshal(args, &a); err != nil {
			return nil, err
		}
		at, err := m.tx(id, true)
		if err != nil {
			return nil, err
		}
		v, err := at.tx.Get(a.Key)
		switch {
		case errors.Is(err, ErrNotFound):
			return wire.Marshal(getReply{})
		case err != nil:
			return nil, m.opFailed(id, err)
		default:
			return wire.Marshal(getReply{Found: true, Val: v})
		}
	case ProcTxSet:
		var a setArgs
		if err := wire.Unmarshal(args, &a); err != nil {
			return nil, err
		}
		at, err := m.tx(id, true)
		if err != nil {
			return nil, err
		}
		if err := at.tx.Set(a.Key, a.Val); err != nil {
			return nil, m.opFailed(id, err)
		}
		return nil, nil
	case ProcTxDelete:
		var a keyArgs
		if err := wire.Unmarshal(args, &a); err != nil {
			return nil, err
		}
		at, err := m.tx(id, true)
		if err != nil {
			return nil, err
		}
		if err := at.tx.Delete(a.Key); err != nil {
			return nil, m.opFailed(id, err)
		}
		return nil, nil
	case ProcTxCommit:
		var a commitArgs
		if err := wire.Unmarshal(args, &a); err != nil {
			return nil, err
		}
		return m.commit(call, id, a)
	case ProcTxAbort:
		at, err := m.tx(id, false)
		if err != nil {
			return wire.Marshal(false) // nothing to abort: idempotent
		}
		m.drop(id)
		at.tx.Abort()
		return wire.Marshal(true)
	default:
		return nil, core.ErrNoSuchProc
	}
}

// commit runs the member's half of the troupe commit protocol (§5.3):
// ready_to_commit at the coordinator, then commit or abort locally
// according to the collective verdict.
func (m *StoreModule) commit(call *core.ServerCall, id thread.ID, a commitArgs) ([]byte, error) {
	at, err := m.tx(id, false)
	if err != nil {
		return nil, err
	}
	coord := core.Troupe{}
	for _, w := range a.Coord {
		coord.Members = append(coord.Members, core.ModuleAddr{
			Addr:   transport.Addr{Host: w.Host, Port: w.Port},
			Module: w.Module,
		})
	}
	txKey := fmt.Sprintf("%d/%d", id.Host, id.Proc)
	// A member whose serialization diverged votes false (§5.3): the
	// ready_to_commit argument is the member's readiness, and any
	// false vote aborts the transaction at every member.
	doCommit, err := ReadyToCommit(call, coord, txKey, !at.doomed)
	if err != nil {
		// The call-back itself failed; the safe unilateral decision is
		// abort — the coordinator told no one to commit.
		m.drop(id)
		at.tx.Abort()
		return nil, err
	}
	m.drop(id)
	if !doCommit {
		at.tx.Abort()
		return wire.Marshal(false)
	}
	if err := at.tx.Commit(); err != nil {
		return nil, err
	}
	return wire.Marshal(true)
}

// GetState / SetState implement core.StateProvider: the committed
// store contents transfer to a joining member (§6.4.1). In-flight
// transactions do not transfer; get_state runs as a read-only snapshot
// of committed state.
func (m *StoreModule) GetState() ([]byte, error) { return m.store.kv.GetState() }

// SetState implements core.StateProvider. A durable member logs the
// transferred state like a commit.
func (m *StoreModule) SetState(b []byte) error { return m.store.kv.SetState(b) }

// RemoteStore is the client library of the replicated transactional
// store: it owns a coordinator module (exported on the client's
// runtime) and brackets bodies of Get/Set/Delete calls into
// transactions committed by the troupe commit protocol.
type RemoteStore struct {
	rt        *core.Runtime
	dest      core.Troupe
	coord     []wireAddr
	opTimeout time.Duration
}

// SetOpTimeout bounds each transactional operation. A blocked
// operation usually means the transaction is waiting on a lock held by
// a conflicting transaction — possibly a distributed deadlock no
// single member can see — so the client aborts and retries after the
// bound, the client-side half of §5.3's deadlock-to-abort
// transformation. Zero restores the 5-second default.
func (rs *RemoteStore) SetOpTimeout(d time.Duration) {
	if d == 0 {
		d = 5 * time.Second
	}
	rs.opTimeout = d
}

// NewRemoteStore prepares a client of the replicated store at dest.
// resolver must be able to resolve dest.ID (it is how the coordinator
// learns how many member votes to await); it is typically the same
// resolver the runtime uses.
func NewRemoteStore(rt *core.Runtime, dest core.Troupe, resolver core.Resolver) *RemoteStore {
	coordAddr := rt.Export(NewCoordinator(resolver), CoordinatorExportOptions())
	return &RemoteStore{
		rt:        rt,
		dest:      dest,
		opTimeout: 5 * time.Second,
		coord: []wireAddr{{
			Host:   coordAddr.Addr.Host,
			Port:   coordAddr.Addr.Port,
			Module: coordAddr.Module,
		}},
	}
}

// strictCollator is the waiting policy for transactional operations:
// unlike the crash-masking unanimous default, an application-level
// error at ANY member fails the operation. Members choose their own
// deadlock victims, so one member may abort an acquisition that
// another granted; proceeding on the majority would let the members'
// workspaces diverge. The failed operation aborts the transaction
// everywhere and the round is retried (§5.3). collate.New calls the
// function only when some member succeeded, so first is always set.
func strictCollator(n int) collate.Collator {
	return collate.New(n, func(items []collate.Item) ([]byte, error) {
		var first []byte
		have := false
		for _, it := range items {
			if it.Err != nil {
				// Only a presumed crash is masked (§4.3.1). Any other
				// per-member failure — an application error such as a
				// deadlock abort, or a timeout on a blocked lock —
				// must fail the whole operation: the member's
				// workspace no longer matches the others', and
				// proceeding would let the troupe diverge.
				if errors.Is(it.Err, core.ErrMemberDown) {
					continue
				}
				return nil, it.Err
			}
			if !have {
				first, have = it.Data, true
			} else if !bytes.Equal(first, it.Data) {
				return nil, collate.ErrDisagreement
			}
		}
		return first, nil
	})
}

// RemoteTx is one transaction attempt. Its operations are replicated
// calls sharing one distributed thread, so every member associates
// them with the same transaction (§3.4.1).
type RemoteTx struct {
	rs  *RemoteStore
	ctx context.Context
	tc  *thread.Context
}

func (tx *RemoteTx) call(proc uint16, args any) ([]byte, error) {
	data, err := wire.Marshal(args)
	if err != nil {
		return nil, err
	}
	return tx.rs.rt.Call(tx.ctx, tx.rs.dest, proc, data, core.CallOptions{
		Thread:   tx.tc,
		Timeout:  tx.rs.opTimeout,
		Collator: strictCollator,
	})
}

// Get reads a key under the transaction's read lock at every member.
func (tx *RemoteTx) Get(key string) ([]byte, bool, error) {
	res, err := tx.call(ProcTxGet, keyArgs{Key: key})
	if err != nil {
		return nil, false, err
	}
	var rep getReply
	if err := wire.Unmarshal(res, &rep); err != nil {
		return nil, false, err
	}
	return rep.Val, rep.Found, nil
}

// Set tentatively writes a key at every member.
func (tx *RemoteTx) Set(key string, val []byte) error {
	_, err := tx.call(ProcTxSet, setArgs{Key: key, Val: val})
	return err
}

// Delete tentatively removes a key at every member.
func (tx *RemoteTx) Delete(key string) error {
	_, err := tx.call(ProcTxDelete, keyArgs{Key: key})
	return err
}

// abort tells every member to discard the transaction; errors are
// ignored (the member TTL sweeper is the backstop).
func (tx *RemoteTx) abort() {
	tx.call(ProcTxAbort, struct{}{})
}

// commit runs the troupe commit round and reports the verdict.
func (tx *RemoteTx) commit() (bool, error) {
	res, err := tx.call(ProcTxCommit, commitArgs{Coord: tx.rs.coord})
	if err != nil {
		return false, err
	}
	var ok bool
	if err := wire.Unmarshal(res, &ok); err != nil {
		return false, err
	}
	return ok, nil
}

// retryable reports whether a failed round should be retried: deadlock
// aborts (transformed serialization divergence, §5.3) and commit-round
// aborts are; application errors are not.
func retryable(err error) bool {
	if errors.Is(err, ErrAborted) || errors.Is(err, collate.ErrDisagreement) ||
		errors.Is(err, collate.ErrAllFailed) {
		return true
	}
	var app *core.AppError
	if errors.As(err, &app) {
		return strings.Contains(app.Msg, errDeadlockWire) ||
			strings.Contains(app.Msg, "wait-die") ||
			strings.Contains(app.Msg, errNoTxWire) || // member reaped an idle tx (TTL)
			strings.Contains(app.Msg, ErrTxDone.Error()) ||
			strings.Contains(app.Msg, context.DeadlineExceeded.Error())
	}
	return errors.Is(err, context.DeadlineExceeded)
}

// Run executes body as a replicated transaction: on nil return it runs
// the troupe commit protocol; deadlocks and commit aborts are retried
// with binary exponential back-off (§5.3.1). Each attempt uses a fresh
// distributed thread, which is what makes the retry a new transaction.
func (rs *RemoteStore) Run(ctx context.Context, opts RetryOptions, body func(tx *RemoteTx) error) error {
	if opts.MaxAttempts == 0 {
		opts.MaxAttempts = 10
	}
	if opts.BaseDelay == 0 {
		opts.BaseDelay = 5 * time.Millisecond
	}
	rng := opts.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	delay := opts.BaseDelay
	var last error
	for attempt := 0; attempt < opts.MaxAttempts; attempt++ {
		tx := &RemoteTx{rs: rs, ctx: ctx, tc: rs.rt.NewThread()}
		err := body(tx)
		if err != nil {
			tx.abort()
			if !retryable(err) {
				return err
			}
			last = err
		} else {
			ok, cerr := tx.commit()
			if cerr == nil && ok {
				return nil
			}
			if cerr != nil && !retryable(cerr) {
				return cerr
			}
			if cerr == nil {
				last = ErrAborted
			} else {
				last = cerr
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Duration(rng.Int63n(int64(delay) + 1))):
		}
		delay *= 2
	}
	return fmt.Errorf("txn: giving up after %d attempts: %w", opts.MaxAttempts, last)
}
