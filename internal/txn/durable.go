// Durable stores: a redo-logging layer under the transactional store.
//
// The paper's lightweight transactions deliberately omit stable
// storage (§5.2) — replication masks individual member crashes. What
// replication cannot mask is a whole-troupe power loss, so a store
// may optionally carry a write-ahead log: every top-level commit is
// redo-logged and fsynced (group commit) before Commit returns, and
// the store periodically snapshots itself so recovery replays a short
// tail instead of history. The committed state's kv.Store does all of
// it: apply and append under one mutex (so log order equals apply
// order), fsync outside it, undo on a failed append, snapshot, replay.
package txn

import (
	"circus/internal/kv"
	"circus/internal/wal"
)

// OpenDurableStore builds a store whose top-level commits are
// redo-logged to log, first replaying what a previous incarnation left
// behind (rec, as returned by wal.Open or wal.Reopen).
func OpenDurableStore(policy Policy, log *wal.Log, rec *wal.Recovered) (*Store, error) {
	committed, err := kv.Open(log, rec)
	if err != nil {
		return nil, err
	}
	s := NewStore(policy)
	s.kv = committed
	return s, nil
}

// Recover resets the committed state to what the log holds: the
// snapshot image, then the redo records after it, in log order. Used
// after a simulated power loss.
func (s *Store) Recover(rec *wal.Recovered) error { return s.kv.Recover(rec) }

// WAL exposes the store's log (nil for in-memory stores), for stats
// and tests.
func (s *Store) WAL() *wal.Log { return s.kv.WAL() }
