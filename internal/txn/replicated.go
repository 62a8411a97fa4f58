package txn

import (
	"context"
	"errors"
	"fmt"
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
// sequence of replicated calls into one transaction, retrying aborted
// rounds with binary exponential back-off (§5.3.1).
//
// A transaction is identified by the distributed thread performing it
// (§3.4.1): every member sees the same thread ID on every operation of
// the transaction, so the members' transaction tables stay aligned
// with no communication among them. The ID is also the transaction's
// wait-die stamp, so every member refuses the same, younger, party to
// a conflict: no member waits for a transaction that another member
// has made wait for it, and a deadlock that no single member sees
// cannot form.

// Procedure numbers of the replicated store interface.
const (
	ProcTxGet    uint16 = 1
	ProcTxSet    uint16 = 2
	ProcTxDelete uint16 = 3
	ProcTxCommit uint16 = 4
	ProcTxAbort  uint16 = 5
)

// errNoTxWire is the error, crossing the wire as an AppError payload,
// of an operation on a transaction the member does not have.
const errNoTxWire = "txn: no active transaction"

// opTimeout bounds each transactional operation. Wait-die ends every
// lock wait, so it is a backstop: an operation it cuts off fails, and
// Run aborts and retries the transaction.
const opTimeout = 5 * time.Second

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
	// member (a wait-die abort while other members proceeded):
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
	t := m.store.beginAt(uint64(id.Proc)<<32 | uint64(id.Host))
	at := &memberTx{tx: t, lastUsed: m.now()}
	m.txs[id] = at
	return at, nil
}

// op runs one lock-taking operation of the calling thread's
// transaction. A serialization failure (wait-die) dooms the member's
// transaction so the forthcoming commit round aborts everywhere.
// Should the member's runtime close meanwhile, the transaction aborts,
// which ends a lock wait that nothing else might, and with it the
// dispatch worker that Close waits for.
func (m *StoreModule) op(call *core.ServerCall, f func(*Tx) error) error {
	id := call.Thread().ID()
	at, err := m.tx(id, true)
	if err != nil {
		return err
	}
	stop := context.AfterFunc(call.Context(), func() { at.tx.Abort() })
	err = f(at.tx)
	stop()
	if errors.Is(err, ErrWaitDie) || errors.Is(err, ErrTxDone) {
		m.mu.Lock()
		at.doomed = true
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
		var v []byte
		err := m.op(call, func(tx *Tx) (err error) {
			v, err = tx.Get(a.Key)
			return err
		})
		switch {
		case errors.Is(err, ErrNotFound):
			return wire.Marshal(getReply{})
		case err != nil:
			return nil, err
		default:
			return wire.Marshal(getReply{Found: true, Val: v})
		}
	case ProcTxSet:
		var a setArgs
		if err := wire.Unmarshal(args, &a); err != nil {
			return nil, err
		}
		return nil, m.op(call, func(tx *Tx) error { return tx.Set(a.Key, a.Val) })
	case ProcTxDelete:
		var a keyArgs
		if err := wire.Unmarshal(args, &a); err != nil {
			return nil, err
		}
		return nil, m.op(call, func(tx *Tx) error { return tx.Delete(a.Key) })
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
	rt    *core.Runtime
	dest  core.Troupe
	coord []wireAddr
}

// NewRemoteStore prepares a client of the replicated store at dest.
// resolver must be able to resolve dest.ID (it is how the coordinator
// learns how many member votes to await); it is typically the same
// resolver the runtime uses.
func NewRemoteStore(rt *core.Runtime, dest core.Troupe, resolver core.Resolver) *RemoteStore {
	coordAddr := rt.Export(NewCoordinator(resolver), CoordinatorExportOptions())
	return &RemoteStore{
		rt:   rt,
		dest: dest,
		coord: []wireAddr{{
			Host:   coordAddr.Addr.Host,
			Port:   coordAddr.Addr.Port,
			Module: coordAddr.Module,
		}},
	}
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
		Thread:  tx.tc,
		Timeout: opTimeout,
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

// retryable reports whether a failed round should be retried:
// wait-die aborts (transformed serialization divergence, §5.3) and
// commit-round aborts are; application errors are not.
func retryable(err error) bool {
	if errors.Is(err, ErrAborted) || errors.Is(err, collate.ErrDisagreement) ||
		errors.Is(err, collate.ErrAllFailed) {
		return true
	}
	var app *core.AppError
	if errors.As(err, &app) {
		return strings.Contains(app.Msg, ErrWaitDie.Error()) ||
			strings.Contains(app.Msg, errNoTxWire) || // member reaped an idle tx (TTL)
			strings.Contains(app.Msg, ErrTxDone.Error()) ||
			strings.Contains(app.Msg, context.DeadlineExceeded.Error())
	}
	return errors.Is(err, context.DeadlineExceeded)
}

// Run executes body as a replicated transaction: on nil return it runs
// the troupe commit protocol; wait-die and commit aborts are retried
// with binary exponential back-off (§5.3.1). Each attempt uses a fresh
// distributed thread, which is what makes the retry a new transaction.
func (rs *RemoteStore) Run(ctx context.Context, opts RetryOptions, body func(tx *RemoteTx) error) error {
	return retry(ctx, opts, func() error {
		tx := &RemoteTx{rs: rs, ctx: ctx, tc: rs.rt.NewThread()}
		if err := body(tx); err != nil {
			tx.abort()
			return err
		}
		ok, err := tx.commit()
		if err == nil && !ok {
			err = ErrAborted
		}
		return err
	}, retryable)
}
