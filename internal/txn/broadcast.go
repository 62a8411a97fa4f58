package txn

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"circus/internal/collate"
	"circus/internal/core"
	"circus/internal/trace"
	"circus/internal/wire"
)

// This file implements the ordered broadcast protocol of §5.4 (Figure
// 5.1), the basis of the starvation-free replicated concurrency
// control scheme: all members of a troupe accept broadcast messages
// for application-level processing in the same order, so a
// deterministic local concurrency control algorithm (here: serial
// execution in acceptance order) keeps the troupe consistent.
//
// The protocol is Skeen's two-phase algorithm: the client asks every
// member for a proposed time (get_proposed_time), takes the maximum,
// and tells every member to accept the message at that time
// (accept_time). A member releases the head of its queue for
// processing only once the head is accepted and no pending proposal
// could still be ordered before it. Clocks are Lamport logical clocks,
// which satisfy the synchronized-clock assumption of §5.4 without
// real synchronized hardware.

// Procedure numbers of the ordered broadcast interface (Figure 5.1).
const (
	ProcGetProposedTime uint16 = 1
	ProcAcceptTime      uint16 = 2
)

type proposeArgs struct {
	MsgID string
	Msg   []byte
}

type acceptArgs struct {
	MsgID string
	Time  uint64
}

type bcastStatus int

const (
	statusProposed bcastStatus = iota
	statusAccepted
)

type bcastEntry struct {
	msgID  string
	msg    []byte
	time   uint64
	status bcastStatus
}

// Queue is one troupe member's message queue, ordered by time with
// message ID as the tiebreak. Deliver is invoked, in acceptance order
// and by one goroutine at a time, for each message released for
// application-level processing.
type Queue struct {
	tr trace.Sink // nil disables accept-order tracing

	mu       sync.Mutex
	clock    uint64
	entries  []*bcastEntry // sorted by (time, msgID)
	released []*bcastEntry // awaiting delivery, in release order
	draining bool          // an Accept call is delivering released
	deliver  func(msgID string, msg []byte)
}

// NewQueue returns a queue delivering to the given function.
func NewQueue(deliver func(msgID string, msg []byte)) *Queue {
	return &Queue{deliver: deliver}
}

// SetTrace installs a sink recording each message's release for
// application-level processing in acceptance order: the message ID in
// Detail, the accepted Lamport time in N. Comparing the accept-order
// events of all members checks the §5.4 agreement property offline.
func (q *Queue) SetTrace(s trace.Sink) { q.tr = s }

// Propose implements get_proposed_time: the message is inserted with a
// proposed time from the local clock, which is returned.
func (q *Queue) Propose(msgID string, msg []byte) uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.clock++
	e := &bcastEntry{msgID: msgID, msg: msg, time: q.clock, status: statusProposed}
	q.insertLocked(e)
	return e.time
}

// Accept implements accept_time: the message's status becomes accepted
// and its queue position moves to the accepted time; any releasable
// prefix of the queue is delivered, by this call or by one already
// delivering.
func (q *Queue) Accept(msgID string, t uint64) error {
	q.mu.Lock()
	var e *bcastEntry
	for i, x := range q.entries {
		if x.msgID == msgID {
			e = x
			q.entries = append(q.entries[:i], q.entries[i+1:]...)
			break
		}
	}
	if e == nil {
		q.mu.Unlock()
		return fmt.Errorf("txn: accept_time for unknown message %q", msgID)
	}
	e.time = t
	e.status = statusAccepted
	q.insertLocked(e)
	// Advance the clock past the accepted time so later proposals sort
	// after already-accepted messages (Lamport's rule).
	if t > q.clock {
		q.clock = t
	}
	for len(q.entries) > 0 && q.entries[0].status == statusAccepted {
		q.released = append(q.released, q.entries[0])
		q.entries = q.entries[1:]
	}
	// One Accept call at a time delivers, taking messages in the order
	// they were released under the lock, so concurrent accept_time
	// calls cannot deliver out of order; a call that finds another
	// delivering leaves its releases to that one.
	if !q.draining {
		q.draining = true
		for len(q.released) > 0 {
			r := q.released[0]
			q.released = q.released[1:]
			q.mu.Unlock()
			if q.tr != nil {
				trace.Stamp(q.tr, trace.Event{Kind: trace.KindAcceptOrder,
					Detail: r.msgID, N: int(r.time)})
			}
			q.deliver(r.msgID, r.msg)
			q.mu.Lock()
		}
		q.draining = false
	}
	q.mu.Unlock()
	return nil
}

func (q *Queue) insertLocked(e *bcastEntry) {
	i := sort.Search(len(q.entries), func(i int) bool {
		x := q.entries[i]
		if x.time != e.time {
			return x.time > e.time
		}
		return x.msgID > e.msgID
	})
	q.entries = append(q.entries, nil)
	copy(q.entries[i+1:], q.entries[i:])
	q.entries[i] = e
}

// Pending returns the number of messages queued or released whose
// delivery has not begun.
func (q *Queue) Pending() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.entries) + len(q.released)
}

// Module wraps a Queue as a core.Module exporting the two procedures
// of Figure 5.1. Export it with the default options; the proposals it
// returns legitimately differ between members, so clients collate them
// with the maximum rather than unanimously.
type Module struct {
	Queue *Queue
}

var _ core.Module = (*Module)(nil)

// Dispatch implements core.Module.
func (m *Module) Dispatch(call *core.ServerCall, proc uint16, args []byte) ([]byte, error) {
	switch proc {
	case ProcGetProposedTime:
		var a proposeArgs
		if err := wire.Unmarshal(args, &a); err != nil {
			return nil, err
		}
		return wire.Marshal(m.Queue.Propose(a.MsgID, a.Msg))
	case ProcAcceptTime:
		var a acceptArgs
		if err := wire.Unmarshal(args, &a); err != nil {
			return nil, err
		}
		if err := m.Queue.Accept(a.MsgID, a.Time); err != nil {
			return nil, err
		}
		return nil, nil
	default:
		return nil, core.ErrNoSuchProc
	}
}

// Broadcast performs the client side of Figure 5.1's atomic_broadcast:
// a replicated call collecting every member's proposed time, then a
// second replicated call accepting the maximum. msgID must be unique
// among all broadcasts to the troupe (a thread ID plus sequence number
// suffices).
func Broadcast(ctx context.Context, rt *core.Runtime, dest core.Troupe, msgID string, msg []byte) error {
	pArgs, err := wire.Marshal(proposeArgs{MsgID: msgID, Msg: msg})
	if err != nil {
		return err
	}
	// Proposals differ per member: collate with max over all replies.
	maxCollator := func(n int) collate.Collator {
		return collate.New(n, func(items []collate.Item) ([]byte, error) {
			// collate.New calls this only when some member succeeded.
			var max uint64
			for _, it := range items {
				if it.Err != nil {
					continue
				}
				var t uint64
				if err := wire.Unmarshal(it.Data, &t); err != nil {
					return nil, err
				}
				if t > max {
					max = t
				}
			}
			return wire.Marshal(max)
		})
	}
	res, err := rt.Call(ctx, dest, ProcGetProposedTime, pArgs, core.CallOptions{Collator: maxCollator})
	if err != nil {
		return fmt.Errorf("txn: get_proposed_time: %w", err)
	}
	var max uint64
	if err := wire.Unmarshal(res, &max); err != nil {
		return err
	}

	aArgs, err := wire.Marshal(acceptArgs{MsgID: msgID, Time: max})
	if err != nil {
		return err
	}
	if _, err := rt.Call(ctx, dest, ProcAcceptTime, aArgs, core.CallOptions{}); err != nil {
		return fmt.Errorf("txn: accept_time: %w", err)
	}
	return nil
}
