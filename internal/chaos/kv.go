// Package chaos is a deterministic fault-campaign harness: it runs a
// replicated key-value troupe with concurrent clients on the
// simulated internet, drives a seeded schedule of machine crashes,
// restarts, partitions, heals, and loss bursts against it, and checks
// after quiescence that the troupe survived — replica states
// converged, every replicated call executed at most once per member,
// and no acknowledged update was lost.
//
// The harness exists to exercise the self-healing layer end to end:
// resilient stubs (retry, backoff, suspicion, automatic rebind), the
// binding agent's garbage collection and reconfiguration (§6.1–6.4),
// and the repair protocol that reinitializes recovered members from
// their peers' state (§6.4.1). In durable mode each member
// additionally write-ahead-logs its acked writes to an injectable
// disk, so the campaign can also kill the entire troupe — a failure
// replication alone cannot mask — and verify that no acknowledged
// write is lost across the full restart.
package chaos

import (
	"fmt"
	"sync"

	"circus"
	"circus/internal/kv"
	"circus/internal/wal"
)

// What benchmark/ and the mesh tests use of the store, under the names
// they know.
const (
	// ProcPut stores a key/value pair. The chaos workload writes each
	// key once with an immutable value, so a put over a different value
	// is a conflict.
	ProcPut = kv.ProcPut
	// ProcGet returns the value of a key, empty if absent.
	ProcGet = kv.ProcGet
)

var (
	// KVKeys extracts the routing key from a KV call.
	KVKeys = kv.Keys
	// PutArgs externalizes one put.
	PutArgs = kv.PutArgs
)

// KV is the replicated module under test: a kv.Store plus the
// instrumentation the invariant checker needs. Executions are counted
// per replicated call, keyed by the thread ID and call path of the
// executing frame (§4.3.2): replicas executing the same replicated
// call observe equal keys, and a member that executes the same
// replicated call twice has violated exactly-once semantics. The
// instrumentation survives Restart: it belongs to the checker, not the
// member.
type KV struct {
	*kv.Store

	mu        sync.Mutex
	execs     map[string]int
	conflicts []string // puts and merges that met a different value
}

// NewKV returns an empty instrumented in-memory store.
func NewKV() *KV { return wrap(kv.New()) }

// NewDurableKV returns a store whose acked writes are redo-logged to
// log, first replaying what a previous incarnation left on disk.
func NewDurableKV(log *wal.Log, rec *wal.Recovered) (*KV, error) {
	s, err := kv.Open(log, rec)
	if err != nil {
		return nil, err
	}
	return wrap(s), nil
}

func wrap(s *kv.Store) *KV { return &KV{Store: s, execs: make(map[string]int)} }

// Dispatch implements circus.Module: the store's procedures, with puts
// and deletes counted per call frame and conflicts recorded.
func (k *KV) Dispatch(call *circus.ServerCall, proc uint16, args []byte) ([]byte, error) {
	switch proc {
	case kv.ProcPut:
		var p kv.Pair
		if err := circus.Unmarshal(args, &p); err != nil {
			return nil, err
		}
		k.count(call)
		overwritten, err := k.Write([]kv.Pair{p})
		for _, o := range overwritten {
			k.conflict(fmt.Sprintf("put %q: %q over %q", p.Key, p.Val, o.Val))
		}
		if err != nil {
			return nil, err
		}
		return []byte(p.Key), nil
	case kv.ProcDel:
		k.count(call)
	case kv.ProcMerge:
		dump, err := kv.DecodePairs(args)
		if err != nil {
			return nil, err
		}
		kept, err := k.Merge(dump)
		for _, o := range kept {
			k.conflict(fmt.Sprintf("merge %q: kept %q over a different value", o.Key, o.Val))
		}
		return nil, err
	}
	return k.Store.Dispatch(call, proc, args)
}

func (k *KV) count(call *circus.ServerCall) {
	k.mu.Lock()
	k.execs[call.Thread().Key()]++
	k.mu.Unlock()
}

func (k *KV) conflict(msg string) {
	k.mu.Lock()
	k.conflicts = append(k.conflicts, msg)
	k.mu.Unlock()
}

// Violations returns this member's local invariant breaches: multiply
// executed replicated calls and conflicting writes.
func (k *KV) Violations() []string {
	k.mu.Lock()
	defer k.mu.Unlock()
	var out []string
	for key, n := range k.execs {
		if n > 1 {
			out = append(out, fmt.Sprintf("replicated call %x executed %d times", key, n))
		}
	}
	return append(out, k.conflicts...)
}
