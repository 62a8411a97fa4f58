package check

import (
	"strings"
	"testing"
	"time"

	"circus/internal/trace"
	"circus/internal/transport"
)

var (
	nodeA = transport.Addr{Host: 1, Port: 1}
	nodeB = transport.Addr{Host: 2, Port: 1}
)

// seq stamps a slice of events with increasing Seq and T values, the
// way a live recorder would, so tests can list events in order.
func seq(evs ...trace.Event) []trace.Event {
	base := time.Unix(1000, 0)
	for i := range evs {
		evs[i].Seq = uint64(i + 1)
		if evs[i].T.IsZero() {
			evs[i].T = base.Add(time.Duration(i) * 10 * time.Millisecond)
		}
	}
	return evs
}

func wantInvariants(t *testing.T, vs []Violation, want ...string) {
	t.Helper()
	got := make([]string, len(vs))
	for i, v := range vs {
		got[i] = v.Invariant
	}
	if len(got) != len(want) {
		t.Fatalf("violations %v, want invariants %v", Strings(vs), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("violation %d is %q, want %q (%v)", i, got[i], want[i], Strings(vs))
		}
	}
}

func TestCleanTracePasses(t *testing.T) {
	evs := seq(
		trace.Event{Kind: trace.KindMsgSend, Node: nodeA, Peer: nodeB, MsgType: 0, CallNum: 1},
		trace.Event{Kind: trace.KindMsgDelivered, Node: nodeB, Peer: nodeA, MsgType: 0, CallNum: 1},
		trace.Event{Kind: trace.KindCallStart, Node: nodeB, ThreadHost: 1, ThreadProc: 1, Path: []uint32{1}, Module: 3},
		trace.Event{Kind: trace.KindReplySent, Node: nodeB, Peer: nodeA, CallNum: 1},
		trace.Event{Kind: trace.KindMsgSend, Node: nodeA, Peer: nodeB, MsgType: 0, CallNum: 2},
	)
	wantInvariants(t, Check(evs, Config{RetransmitInterval: 10 * time.Millisecond}))
}

func TestAtMostOnceViolation(t *testing.T) {
	exec := trace.Event{Kind: trace.KindCallStart, Node: nodeB, Inc: 5,
		ThreadHost: 1, ThreadProc: 2, Path: []uint32{1, 1}, Module: 7}
	vs := Check(seq(exec, exec), Config{})
	wantInvariants(t, vs, "at-most-once")

	// A new incarnation of the same node may legally re-execute.
	again := exec
	again.Inc = 6
	wantInvariants(t, Check(seq(exec, again), Config{}))

	// A different call path on the same thread is a different call.
	other := exec
	other.Path = []uint32{1, 2}
	wantInvariants(t, Check(seq(exec, other), Config{}))
}

func TestReplyAfterRequestViolation(t *testing.T) {
	reply := trace.Event{Kind: trace.KindReplySent, Node: nodeB, Peer: nodeA, CallNum: 9}
	wantInvariants(t, Check(seq(reply), Config{}), "reply-after-request")

	// Delivery of a non-call message type does not license the reply.
	vs := Check(seq(
		trace.Event{Kind: trace.KindMsgDelivered, Node: nodeB, Peer: nodeA, MsgType: 1, CallNum: 9},
		reply,
	), Config{})
	wantInvariants(t, vs, "reply-after-request")

	// Delivery of the call itself does.
	wantInvariants(t, Check(seq(
		trace.Event{Kind: trace.KindMsgDelivered, Node: nodeB, Peer: nodeA, MsgType: 0, CallNum: 9},
		reply,
	), Config{}))
}

func TestMonotoneCallNumsViolation(t *testing.T) {
	send := func(cn uint32) trace.Event {
		return trace.Event{Kind: trace.KindMsgSend, Node: nodeA, Peer: nodeB, MsgType: 0, CallNum: cn}
	}
	wantInvariants(t, Check(seq(send(3), send(3)), Config{}), "monotone-call-numbers")
	wantInvariants(t, Check(seq(send(3), send(2)), Config{}), "monotone-call-numbers")

	// Unicast and multicast number spaces are disjoint: a small
	// multicast number after a large unicast one is legal.
	wantInvariants(t, Check(seq(send(3), send(0x8000_0001), send(4), send(0x8000_0002)), Config{}))

	// Non-call message types reuse the conversation's number freely.
	ret := send(3)
	ret.MsgType = 1
	wantInvariants(t, Check(seq(send(3), ret), Config{}))
}

func TestDeliverOnceViolation(t *testing.T) {
	del := trace.Event{Kind: trace.KindMsgDelivered, Node: nodeB, Peer: nodeA, MsgType: 0, CallNum: 4}
	wantInvariants(t, Check(seq(del, del), Config{}), "deliver-once")

	// Same call number on a different message type is a distinct
	// conversation direction, not a duplicate.
	other := del
	other.MsgType = 1
	wantInvariants(t, Check(seq(del, other), Config{}))
}

func TestFixedRetransmitIntervalViolation(t *testing.T) {
	base := time.Unix(1000, 0)
	retx := func(at time.Duration) trace.Event {
		return trace.Event{Kind: trace.KindSegRetransmit, Node: nodeA, Peer: nodeB,
			MsgType: 0, CallNum: 1, T: base.Add(at)}
	}
	const interval = 10 * time.Millisecond
	cfg := Config{RetransmitInterval: interval}

	// Gaps of exactly the interval pass: the bound is exact, with no
	// slack for timer jitter, since the timer pass schedules the next
	// pass from the clock reading it stamps on the event.
	wantInvariants(t, Check(seq(retx(0), retx(interval), retx(2*interval)), cfg))
	// One nanosecond short of the interval fails.
	wantInvariants(t, Check(seq(retx(0), retx(interval-1)), cfg), "retransmit-interval")
	// Distinct transfers have independent schedules.
	other := retx(time.Millisecond)
	other.CallNum = 2
	wantInvariants(t, Check(seq(retx(0), other), cfg))
}

func TestAckMonotoneViolation(t *testing.T) {
	ack := func(n int) trace.Event {
		return trace.Event{Kind: trace.KindAckSend, Node: nodeB, Peer: nodeA,
			MsgType: 0, CallNum: 1, N: n}
	}
	// A receding cumulative ack is a violation.
	wantInvariants(t, Check(seq(ack(3), ack(2)), Config{}), "ack-monotone")
	// Repeats (retransmission-triggered re-acks) and growth are fine.
	wantInvariants(t, Check(seq(ack(1), ack(1), ack(3)), Config{}))
	// Distinct conversations have independent streams.
	other := ack(1)
	other.CallNum = 2
	wantInvariants(t, Check(seq(ack(3), other), Config{}))
	// So do distinct incarnations of the acking node.
	reinc := ack(1)
	reinc.Inc = 1
	wantInvariants(t, Check(seq(ack(3), reinc), Config{}))
}

func TestAckBeyondSendViolation(t *testing.T) {
	send := trace.Event{Kind: trace.KindMsgSend, Node: nodeA, Peer: nodeB,
		MsgType: 0, CallNum: 1, N: 3}
	ack := func(n int) trace.Event {
		return trace.Event{Kind: trace.KindAckSend, Node: nodeB, Peer: nodeA,
			MsgType: 0, CallNum: 1, N: n}
	}
	// Acking past the announced segment count is a violation.
	wantInvariants(t, Check(seq(send, ack(4)), Config{}), "ack-beyond-send")
	// Acking up to the count is fine.
	wantInvariants(t, Check(seq(send, ack(3)), Config{}))
	// Without a matching send in the trace, the ack is not judged.
	wantInvariants(t, Check(seq(ack(4)), Config{}))
}

func TestFullAckAfterAssemblyViolation(t *testing.T) {
	fullAck := trace.Event{Kind: trace.KindAckSend, Node: nodeB, Peer: nodeA,
		MsgType: 0, CallNum: 1, N: 2, Total: 2}
	delivered := trace.Event{Kind: trace.KindMsgDelivered, Node: nodeB, Peer: nodeA,
		MsgType: 0, CallNum: 1, N: 2}
	// A full ack with no prior assembly is a violation.
	wantInvariants(t, Check(seq(fullAck), Config{}), "full-ack-after-assembly")
	// Assembly first makes it legal.
	wantInvariants(t, Check(seq(delivered, fullAck), Config{}))
	// A partial ack (below the total) needs no assembly. Events
	// without a Total (pre-wire-economy traces) are not judged.
	partial := fullAck
	partial.N, partial.Total = 1, 2
	legacy := fullAck
	legacy.Total = 0
	wantInvariants(t, Check(seq(partial, legacy), Config{}))
}

func TestCheckSortsBySeq(t *testing.T) {
	// Events arriving out of capture order (e.g. merged JSONL shards)
	// are re-sorted before checking: delivery at Seq 1 licenses the
	// reply at Seq 2 even if listed backwards.
	evs := seq(
		trace.Event{Kind: trace.KindMsgDelivered, Node: nodeB, Peer: nodeA, MsgType: 0, CallNum: 1},
		trace.Event{Kind: trace.KindReplySent, Node: nodeB, Peer: nodeA, CallNum: 1},
	)
	evs[0], evs[1] = evs[1], evs[0]
	wantInvariants(t, Check(evs, Config{}))
}

func TestViolationString(t *testing.T) {
	v := Violation{Invariant: "deliver-once", Seq: 12, Msg: "dup"}
	if got := v.String(); !strings.Contains(got, "trace[12]") || !strings.Contains(got, "deliver-once") {
		t.Fatalf("String() = %q", got)
	}
	if s := Strings([]Violation{v}); len(s) != 1 || s[0] != v.String() {
		t.Fatalf("Strings mismatch: %v", s)
	}
}
