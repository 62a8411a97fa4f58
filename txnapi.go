package circus

import (
	"time"

	"circus/internal/core"
	"circus/internal/txn"
)

// Replicated lightweight transactions (§5), re-exported. A replicated
// transactional store is a troupe of TransactionalStore modules; the
// client brackets sequences of replicated calls into transactions
// committed by the troupe commit protocol of §5.3, with wait-die
// aborts retried under binary exponential back-off (§5.3.1).
type (
	// ReplicatedStore is the client handle of a replicated
	// transactional store.
	ReplicatedStore = txn.RemoteStore
	// ReplicatedTx is one transaction attempt over a replicated
	// store.
	ReplicatedTx = txn.RemoteTx
	// TxRetry tunes transaction retry behaviour.
	TxRetry = txn.RetryOptions
)

// ErrTxAborted reports that the troupe commit round decided to abort.
var ErrTxAborted = txn.ErrAborted

// NewTransactionalStore returns a server module implementing a
// transactional key-value store suitable for replication: export one
// instance per troupe member. Transactions idle longer than ttl are
// presumed abandoned and aborted (zero means 30 seconds). The module
// supports state transfer, so members can join a running troupe.
func NewTransactionalStore(ttl time.Duration) Module {
	return txn.NewStoreModule(txn.NewStore(), ttl)
}

// NewDurableTransactionalStore is the durable variant: committed
// transactions are redo-logged to the node's disk (WithDurability)
// under the given log name and fsynced before the commit is
// acknowledged, so they survive even a whole-troupe power failure.
// Opening the store recovers whatever a previous incarnation committed
// — the newest snapshot plus the log tail, tolerant of a torn final
// record. Each troupe member needs its own disk, exactly as each has
// its own memory.
func (n *Node) NewDurableTransactionalStore(name string, ttl time.Duration) (Module, error) {
	log, rec, err := n.OpenWAL(name)
	if err != nil {
		return nil, err
	}
	store, err := txn.OpenDurableStore(log, rec)
	if err != nil {
		log.Close()
		return nil, err
	}
	return txn.NewStoreModule(store, ttl), nil
}

// ReplicatedStoreFor prepares a transactional client of the store
// troupe behind stub. The node's binding agent (or, without one, the
// stub's current membership) tells the commit coordinator how many
// member votes each commit round must gather (§5.3).
func (n *Node) ReplicatedStoreFor(stub *Stub) *ReplicatedStore {
	t := stub.Troupe()
	var resolver core.Resolver
	if n.binder != nil {
		resolver = n.binder
	} else {
		resolver = core.StaticResolver{t.ID: t.Members}
	}
	return txn.NewRemoteStore(n.rt, t, resolver)
}
