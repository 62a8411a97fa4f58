// Package rules is the single implementation of the protocol's
// event-stream invariants, shared by the offline checker
// (internal/trace/check) and the online runtime monitor
// (internal/trace/monitor) so the two can never drift.
//
// The Engine consumes trace events one at a time and reports each
// breach of:
//
//   - at-most-once: no call (thread ID + call path + module) executes
//     twice at the same member incarnation (§4.3.4),
//   - reply-after-request: a member only replies to a call it has
//     fully received,
//   - monotone-call-numbers: per incarnation and peer, new call
//     numbers strictly increase (unicast and multicast spaces are
//     disjoint),
//   - deliver-once: the replay cache delivers each conversation's
//     message upward at most once per receiver incarnation,
//   - ack-consistency: cumulative acks never recede (ack-monotone),
//     never claim segments the sender did not announce
//     (ack-beyond-send), and a full ack is only legal after the
//     receiver assembled the message (full-ack-after-assembly).
//
// The timing rule (the retransmit schedule) needs the whole
// per-transfer history and lives only in the offline checker.
//
// Memory. With Options.MaxStates == 0 the engine keeps every key it
// ever sees and is exactly equivalent to the offline checker's
// single-shot maps. With a bound set, each state table holds its
// entries in two generations: when the current generation fills, it
// becomes the old one and the previous old generation is discarded
// (touched entries are promoted, so live conversations survive
// rotation). Discarding state can only ever hide a violation, never
// invent one — with one exception: reply-after-request and
// full-ack-after-assembly flag the *absence* of a delivery record, so
// once a table has discarded anything those two stop flagging absence
// (Engine.strict goes false for them) rather than risk a false
// positive. Completed conversations also release their sender-side
// segment-count records eagerly, the moment the full ack is
// witnessed, so steady-state occupancy tracks in-flight work rather
// than history.
package rules

import (
	"fmt"

	"circus/internal/trace"
	"circus/internal/transport"
)

// msgTypeCall is the paired-message type of a call request; replies
// and returns use other types and are exempt from the call-number and
// reply-licensing rules.
const msgTypeCall = 0

// Violation is one invariant breach found in an event stream.
type Violation struct {
	// Invariant names the violated invariant.
	Invariant string
	// Seq is the capture sequence number of the offending event.
	Seq uint64
	// Msg explains the breach.
	Msg string
}

func (v Violation) String() string {
	return fmt.Sprintf("trace[%d] %s: %s", v.Seq, v.Invariant, v.Msg)
}

// Options configures an Engine.
type Options struct {
	// MaxStates bounds the total retained entries across the engine's
	// state tables (approximately: each table keeps at most its share
	// in two generations). 0 means unbounded, which reproduces the
	// offline checker's semantics exactly.
	MaxStates int
}

// Kinds is the set of event kinds the rules consume. A sink wrapping
// an Engine should expose this via trace.KindFilter so emitters skip
// building every other kind.
func Kinds() trace.KindSet {
	return trace.MaskOf(
		trace.KindCallStart,
		trace.KindMsgSend,
		trace.KindMsgDelivered,
		trace.KindAckSend,
		trace.KindReplySent,
	)
}

// endpoint identifies one process incarnation.
type endpoint struct {
	node transport.Addr
	inc  uint32
}

// conv identifies one paired-message conversation at one endpoint.
type conv struct {
	ep      endpoint
	peer    transport.Addr
	msgType uint8
	callNum uint32
}

// sendKey identifies a sender's transfer (the reverse direction of
// the receiver's conv for the same message).
type sendKey struct {
	node    transport.Addr
	peer    transport.Addr
	msgType uint8
	callNum uint32
}

// execKey identifies one execution of a call at one member.
type execKey struct {
	ep      endpoint
	pathKey string
	module  uint16
}

// callNumKey identifies one sender→peer call-number stream.
type callNumKey struct {
	ep    endpoint
	peer  transport.Addr
	multi bool
}

// convState is everything the conversation-level rules track per
// receiver-side conversation.
type convState struct {
	deliveredAt uint64 // Seq of the first msg.delivered, 0 if none yet
	delivered   bool
	lastAck     int
	ackSeen     bool
}

// Engine incrementally checks an event stream. It is not
// goroutine-safe; callers (the monitor) serialize Observe.
type Engine struct {
	report func(Violation)

	started   genMap[execKey, uint64]    // at-most-once
	convs     genMap[conv, *convState]   // deliver-once, ack stream, reply licensing
	lastCall  genMap[callNumKey, uint32] // monotone-call-numbers
	sentTotal genMap[sendKey, int]       // ack-beyond-send
}

// New builds an engine that calls report for every violation, in
// event order. report runs synchronously inside Observe.
func New(opts Options, report func(Violation)) *Engine {
	per := 0
	if opts.MaxStates > 0 {
		// Four tables, two generations each; convs dominates in
		// practice so it gets half the budget.
		per = opts.MaxStates / 8
		if per < 16 {
			per = 16
		}
	}
	return &Engine{
		report:    report,
		started:   newGenMap[execKey, uint64](per),
		convs:     newGenMap[conv, *convState](per * 2),
		lastCall:  newGenMap[callNumKey, uint32](per),
		sentTotal: newGenMap[sendKey, int](per),
	}
}

// States returns the number of retained state entries, for monitor
// introspection and bounded-memory tests.
func (en *Engine) States() int {
	return en.started.len() + en.convs.len() + en.lastCall.len() + en.sentTotal.len()
}

// Observe feeds one event through every rule it participates in.
// Events must arrive in capture (Seq) order for the timing-free rules
// to be meaningful; the offline checker sorts, the monitor observes
// live emission order.
func (en *Engine) Observe(e trace.Event) {
	switch e.Kind {
	case trace.KindCallStart:
		en.observeExec(e)
	case trace.KindMsgSend:
		en.observeSend(e)
	case trace.KindMsgDelivered:
		en.observeDelivered(e)
	case trace.KindAckSend:
		en.observeAck(e)
	case trace.KindReplySent:
		en.observeReply(e)
	}
}

func (en *Engine) observeExec(e trace.Event) {
	k := execKey{endpoint{e.Node, e.Inc}, e.PathKey(), e.Module}
	if prev, ok := en.started.get(k); ok {
		en.report(Violation{
			Invariant: "at-most-once",
			Seq:       e.Seq,
			Msg: fmt.Sprintf("call %s module %d executed again at %v inc %d (first at trace[%d])",
				e.PathKey(), e.Module, e.Node, e.Inc, prev),
		})
		return
	}
	en.started.put(k, e.Seq)
}

func (en *Engine) observeSend(e trace.Event) {
	if e.MsgType == msgTypeCall {
		k := callNumKey{endpoint{e.Node, e.Inc}, e.Peer, e.CallNum&0x8000_0000 != 0}
		prev, ok := en.lastCall.get(k)
		if ok && e.CallNum <= prev {
			en.report(Violation{
				Invariant: "monotone-call-numbers",
				Seq:       e.Seq,
				Msg: fmt.Sprintf("%v inc %d sent call %d to %v after call %d",
					e.Node, e.Inc, e.CallNum, e.Peer, prev),
			})
		}
		if !ok || e.CallNum > prev {
			en.lastCall.put(k, e.CallNum)
		}
	}
	sk := sendKey{e.Node, e.Peer, e.MsgType, e.CallNum}
	if prev, ok := en.sentTotal.get(sk); !ok || e.N > prev {
		en.sentTotal.put(sk, e.N)
	}
}

func (en *Engine) observeDelivered(e trace.Event) {
	k := conv{endpoint{e.Node, e.Inc}, e.Peer, e.MsgType, e.CallNum}
	st, ok := en.convs.get(k)
	if !ok {
		st = &convState{}
		en.convs.put(k, st)
	}
	if st.delivered {
		en.report(Violation{
			Invariant: "deliver-once",
			Seq:       e.Seq,
			Msg: fmt.Sprintf("%v inc %d delivered message (peer %v type %d call %d) again (first at trace[%d])",
				e.Node, e.Inc, e.Peer, e.MsgType, e.CallNum, st.deliveredAt),
		})
		return
	}
	st.delivered = true
	st.deliveredAt = e.Seq
}

func (en *Engine) observeAck(e trace.Event) {
	k := conv{endpoint{e.Node, e.Inc}, e.Peer, e.MsgType, e.CallNum}
	st, ok := en.convs.get(k)
	if !ok {
		st = &convState{}
		en.convs.put(k, st)
	}
	if st.ackSeen && e.N < st.lastAck {
		en.report(Violation{
			Invariant: "ack-monotone",
			Seq:       e.Seq,
			Msg: fmt.Sprintf("%v inc %d acked segment %d after %d (peer %v type %d call %d)",
				e.Node, e.Inc, e.N, st.lastAck, e.Peer, e.MsgType, e.CallNum),
		})
	}
	if !st.ackSeen || e.N > st.lastAck {
		st.lastAck = e.N
	}
	st.ackSeen = true
	reverse := sendKey{e.Peer, e.Node, e.MsgType, e.CallNum}
	if total, ok := en.sentTotal.get(reverse); ok && e.N > total {
		en.report(Violation{
			Invariant: "ack-beyond-send",
			Seq:       e.Seq,
			Msg: fmt.Sprintf("%v inc %d acked segment %d of a %d-segment message (peer %v type %d call %d)",
				e.Node, e.Inc, e.N, total, e.Peer, e.MsgType, e.CallNum),
		})
	}
	if e.Total > 0 && e.N >= e.Total {
		if !st.delivered {
			// Flagging the *absence* of a delivery record is only
			// sound while nothing has ever been discarded from the
			// conversation table.
			if en.convs.strict() {
				en.report(Violation{
					Invariant: "full-ack-after-assembly",
					Seq:       e.Seq,
					Msg: fmt.Sprintf("%v inc %d sent a full ack (%d/%d) before assembling the message (peer %v type %d call %d)",
						e.Node, e.Inc, e.N, e.Total, e.Peer, e.MsgType, e.CallNum),
				})
			}
		} else {
			// Conversation complete: the sender's segment-count record
			// can no longer matter, release it eagerly. The convState
			// itself stays (bounded generationally) so retransmitted
			// full acks and late duplicates are still judged.
			en.sentTotal.delete(reverse)
		}
	}
}

func (en *Engine) observeReply(e trace.Event) {
	// The licensing delivery is the call-typed conversation with the
	// same caller and call number at this member.
	k := conv{endpoint{e.Node, e.Inc}, e.Peer, msgTypeCall, e.CallNum}
	st, ok := en.convs.get(k)
	if ok && st.delivered {
		return
	}
	if !en.convs.strict() {
		return // the delivery record may have been discarded
	}
	en.report(Violation{
		Invariant: "reply-after-request",
		Seq:       e.Seq,
		Msg: fmt.Sprintf("%v inc %d replied to call %d from %v before fully receiving it",
			e.Node, e.Inc, e.CallNum, e.Peer),
	})
}
