// Package trace is the causal event layer of the runtime: a single
// structured Event type emitted from the paired message protocol, the
// replicated-call machinery, the ringmaster, and the transaction
// subsystem, all carrying enough identity (node, incarnation, peer,
// call number, hierarchical call path) that a whole replicated call
// can be reconstructed causally across troupe members after the fact.
//
// The design center is the disabled case: a component holds a *Local
// emitter that may be nil, and guards every emission with Enabled().
// When no sink is configured the guard is two loads and a branch — no
// Event is built, nothing escapes to the heap — so tracing costs
// nearly nothing on the hot path unless someone is listening.
//
// Sinks receive events synchronously on the emitting goroutine,
// frequently while the emitter holds its own locks. Sinks must
// therefore be cheap, must not block, and must never call back into
// the runtime. The provided sinks (Recorder, JSONL, Metrics) obey
// this rule.
package trace

import (
	"fmt"
	"sync/atomic"
	"time"

	"circus/internal/transport"
)

// Kind classifies an event. The taxonomy follows the protocol layers:
// pairedmsg wire events, core client/server call events, ringmaster
// configuration events, and txn events.
type Kind uint8

const (
	KindUnknown Kind = iota

	// Paired message protocol (internal/pairedmsg).
	KindMsgSend       // message handed to the transport (N = segment count)
	KindSegRetransmit // retransmission pass resent segments (N = count, Attempt = pass)
	KindAckSend       // explicit ack datagram sent
	KindProbeSend     // probe sent to a watched peer
	KindCrashSuspect  // peer declared down (probe misses or retry exhaustion)
	KindDupSegment    // duplicate segment suppressed on receive
	KindMsgDelivered  // fully reassembled message delivered upward

	// Replicated calls, client side (internal/core).
	KindCallIssued  // one-to-many call fanned out (N = troupe degree)
	KindMemberReply // one member's reply (or error) collected
	KindCollateDone // collation decided (Dur = call latency, Err on failure)
	KindRebind      // stale binding refreshed from the binding agent

	// Replicated calls, server side (internal/core).
	KindCallStart // execution of a call began at this member
	KindCallDone  // execution finished
	KindDupCall   // duplicate call suppressed (replayed buffered reply)
	KindReplySent // reply message sent back to a caller

	// Binding agent (internal/ringmaster).
	KindRegister     // troupe registered
	KindAddMember    // member added to a troupe
	KindRemoveMember // member removed from a troupe
	KindLookup       // binding looked up
	KindGCRemove     // garbage collector removed an unresponsive member

	// Transactions (internal/txn).
	KindLockAcquire // lock granted
	KindLockRelease // locks released at commit/abort
	KindTxnCommit   // transaction committed
	KindTxnAbort    // transaction aborted
	KindAcceptOrder // broadcast message released for delivery in accept order

	// Appended after the txn block to keep earlier kinds' wire names
	// stable (JSONL stores the dotted string, not the ordinal).
	KindDeliveryDrop // reassembled message not handed up: incoming queue full
	KindBundleSend   // coalesced datagram sent (N = frames packed into it)

	// Durability (internal/wal). Troupe carries the log position —
	// these events have no transport identity and join traces by
	// Detail (the log name).
	KindWALAppend   // record appended (N = payload bytes)
	KindWALSnapshot // snapshot written, log pruned (N = state bytes)
	KindRecover     // recovery replayed the log (N = tail records)
	KindDeltaRejoin // rejoining member initialized via log-suffix transfer (N = bytes)

	// Mesh read path (internal/mesh). Troupe carries the position token
	// or the serving member's position.
	KindSpreadRead     // spread read served by one member (Member = index, Troupe = member's position)
	KindSpreadStale    // member refused a spread read below the token (Troupe = required position)
	KindSpreadEscalate // spread read fell back to the strict replicated read
	KindSpreadWiden    // hot key widened from affinity to whole-troupe rotation

	kindCount // sentinel: number of kinds
)

var kindNames = [...]string{
	KindUnknown:        "unknown",
	KindMsgSend:        "msg.send",
	KindSegRetransmit:  "msg.retransmit",
	KindAckSend:        "msg.ack",
	KindProbeSend:      "msg.probe",
	KindCrashSuspect:   "msg.crash-suspect",
	KindDupSegment:     "msg.dup-segment",
	KindMsgDelivered:   "msg.delivered",
	KindCallIssued:     "call.issued",
	KindMemberReply:    "call.member-reply",
	KindCollateDone:    "call.collated",
	KindRebind:         "call.rebind",
	KindCallStart:      "exec.start",
	KindCallDone:       "exec.done",
	KindDupCall:        "exec.dup-call",
	KindReplySent:      "exec.reply-sent",
	KindRegister:       "ring.register",
	KindAddMember:      "ring.add-member",
	KindRemoveMember:   "ring.remove-member",
	KindLookup:         "ring.lookup",
	KindGCRemove:       "ring.gc-remove",
	KindLockAcquire:    "txn.lock-acquire",
	KindLockRelease:    "txn.lock-release",
	KindTxnCommit:      "txn.commit",
	KindTxnAbort:       "txn.abort",
	KindAcceptOrder:    "txn.accept-order",
	KindDeliveryDrop:   "msg.delivery-drop",
	KindBundleSend:     "msg.bundle",
	KindWALAppend:      "wal.append",
	KindWALSnapshot:    "wal.snapshot",
	KindRecover:        "recover",
	KindDeltaRejoin:    "repair.delta-rejoin",
	KindSpreadRead:     "mesh.spread-read",
	KindSpreadStale:    "mesh.spread-stale",
	KindSpreadEscalate: "mesh.spread-escalate",
	KindSpreadWiden:    "mesh.spread-widen",
}

// String returns the stable dotted name of the kind, used in JSONL
// output and log lines.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindFromString inverts String; it returns KindUnknown for
// unrecognized names so traces from newer writers still parse.
func KindFromString(s string) Kind {
	for k, name := range kindNames {
		if name == s {
			return Kind(k)
		}
	}
	return KindUnknown
}

// Event is one observation. Fields beyond Kind are populated only as
// relevant to the kind; the zero value of an unused field means "not
// applicable". Node and Inc are stamped by the Local emitter so the
// instrumentation sites never repeat them.
type Event struct {
	// Seq is assigned by the Recorder (or JSONL reader) — a total
	// order over capture, not a protocol property.
	Seq uint64 `json:"seq"`
	// T is the wall-clock emission time, stamped by Local.
	T time.Time `json:"t"`
	// Kind classifies the event.
	Kind Kind `json:"kind"`
	// Node is the emitting process's transport address.
	Node transport.Addr `json:"node"`
	// Inc is the emitting process's incarnation number: a fresh value
	// per pairedmsg.Conn, so a restarted process is distinguishable
	// from its predecessor at the same address.
	Inc uint32 `json:"inc"`
	// Peer is the remote address, for wire-level and reply events.
	Peer transport.Addr `json:"peer,omitzero"`
	// MsgType and CallNum identify a paired-message conversation with
	// Peer (call vs return, and the per-peer call number).
	MsgType uint8  `json:"msgType,omitempty"`
	CallNum uint32 `json:"callNum,omitempty"`
	// ThreadHost, ThreadProc, and Path carry the hierarchical call
	// identity from internal/thread: the originating thread ID plus
	// the call path, the key under which troupe members collate and
	// deduplicate (§4.3).
	ThreadHost uint32   `json:"threadHost,omitempty"`
	ThreadProc uint32   `json:"threadProc,omitempty"`
	Path       []uint32 `json:"path,omitempty"`
	// Troupe, Module, and Proc identify the callee.
	Troupe uint64 `json:"troupe,omitempty"`
	Module uint16 `json:"module,omitempty"`
	Proc   uint16 `json:"proc,omitempty"`
	// Member indexes a troupe member in client-side events; -1 when
	// not applicable (use the pointer-free zero convention: Member is
	// only meaningful for KindMemberReply).
	Member int `json:"member,omitempty"`
	// Attempt counts retries: retransmission passes, rebind attempts.
	Attempt int `json:"attempt,omitempty"`
	// N is a kind-specific count (segments sent, troupe degree,
	// replies collated).
	N int `json:"n,omitempty"`
	// Total is the kind-specific denominator of N where one exists —
	// on msg.ack events, the total segment count of the transfer being
	// acknowledged, so a checker can tell a full (final) ack from a
	// partial one.
	Total int `json:"total,omitempty"`
	// Dur is a kind-specific duration (call latency, execution time).
	Dur time.Duration `json:"dur,omitempty"`
	// Err is the error text for failure events, empty on success.
	Err string `json:"err,omitempty"`
	// Detail is a free-form annotation (e.g. broadcast message ID).
	Detail string `json:"detail,omitempty"`
}

// PathKey renders the causal identity (thread ID + call path) as a
// comparable string, the same join key troupe members collate under.
func (e Event) PathKey() string {
	return fmt.Sprintf("%d.%d/%v", e.ThreadHost, e.ThreadProc, e.Path)
}

// KindSet is a bitmask over Kind. kindCount is well under 64, so one
// word covers the whole taxonomy.
type KindSet uint64

// AllKinds has every kind set.
const AllKinds = KindSet(1<<kindCount) - 1

// MaskOf builds a KindSet from individual kinds.
func MaskOf(kinds ...Kind) KindSet {
	var s KindSet
	for _, k := range kinds {
		s |= 1 << k
	}
	return s
}

// Has reports whether k is in the set.
func (s KindSet) Has(k Kind) bool { return s&(1<<k) != 0 }

// Sink receives events. Implementations must be safe for concurrent
// use, must not block, and must not call back into the runtime: Emit
// is invoked synchronously, often under component locks.
type Sink interface {
	Emit(Event)
}

// KindFilter is optionally implemented by sinks that only want a
// subset of kinds. Local emitters consult it once at construction and
// then skip filtered-out emissions before the Event is even built, so
// an attached-but-filtered sink costs the same as a disabled one on
// the hot path.
type KindFilter interface {
	TraceKinds() KindSet
}

// kindFiltered wraps a sink with a static kind mask.
type kindFiltered struct {
	sink Sink
	keep KindSet
}

func (f kindFiltered) Emit(e Event) {
	if f.keep.Has(e.Kind) {
		f.sink.Emit(e)
	}
}

func (f kindFiltered) TraceKinds() KindSet { return f.keep }

// FilterKinds narrows sink to the given set of kinds. The Emit-side
// check makes the filter correct with any emitter; emitters that go
// through a Local additionally skip building filtered events at all.
// A nil sink or an empty set yields nil (the disabled state).
func FilterKinds(sink Sink, keep KindSet) Sink {
	if sink == nil || keep == 0 {
		return nil
	}
	return kindFiltered{sink: sink, keep: keep}
}

// sinkKinds is the mask a Local caches for a sink.
func sinkKinds(s Sink) KindSet {
	if f, ok := s.(KindFilter); ok {
		return f.TraceKinds()
	}
	return AllKinds
}

// multi fans one event out to several sinks.
type multi []Sink

func (m multi) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// TraceKinds is the union of the members' interests, so a Local over a
// Multi only skips kinds no member wants.
func (m multi) TraceKinds() KindSet {
	var s KindSet
	for _, sub := range m {
		s |= sinkKinds(sub)
	}
	return s
}

// Multi combines sinks, dropping nils. It returns nil when no sink
// remains, so Multi(nil, nil) composes into the disabled fast path,
// and returns a lone sink unwrapped.
func Multi(sinks ...Sink) Sink {
	var live []Sink
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multi(live)
}

// incarnations numbers every Local ever created in this process, so
// events from a restarted Conn at a reused address are distinguishable
// from its predecessor's.
var incarnations atomic.Uint32

// NextIncarnation returns a process-unique incarnation number.
func NextIncarnation() uint32 { return incarnations.Add(1) }

// Local is a per-component emitter: a sink plus the node identity to
// stamp on every event. A nil *Local (or a Local with a nil sink) is
// the disabled state; Enabled and Emit are both nil-receiver safe so
// call sites need no nil checks beyond the Enabled guard.
type Local struct {
	sink Sink
	node transport.Addr
	inc  uint32
	mask KindSet // kinds the sink wants; cached at construction
}

// NewLocal builds an emitter stamping node and inc. It returns nil if
// sink is nil, so the disabled state propagates naturally.
func NewLocal(sink Sink, node transport.Addr, inc uint32) *Local {
	if sink == nil {
		return nil
	}
	return &Local{sink: sink, node: node, inc: inc, mask: sinkKinds(sink)}
}

// Enabled reports whether emissions will reach a sink. Call sites
// must guard with it before building an Event, so the disabled path
// allocates nothing:
//
//	if tr.Enabled() {
//		tr.Emit(trace.Event{Kind: trace.KindMsgSend, ...})
//	}
func (l *Local) Enabled() bool { return l != nil && l.sink != nil }

// EnabledFor reports whether an event of kind k would reach the sink.
// Hot paths guard with it so that a sink interested in other kinds
// costs nothing here — the Event literal is never built:
//
//	if tr.EnabledFor(trace.KindMsgSend) {
//		tr.Emit(trace.Event{Kind: trace.KindMsgSend, ...})
//	}
func (l *Local) EnabledFor(k Kind) bool {
	return l != nil && l.sink != nil && l.mask.Has(k)
}

// Emit stamps the event with time, node, and incarnation, then hands
// it to the sink. Emitting on a disabled Local, or an event the sink's
// kind mask excludes, is a no-op.
func (l *Local) Emit(e Event) {
	if l == nil || l.sink == nil || !l.mask.Has(e.Kind) {
		return
	}
	// A pre-set T is kept: emitters whose events encode timing
	// decisions (e.g. retransmit schedules) stamp the clock reading
	// the decision was made against, so checkers comparing event
	// times see the schedule, not sink-contention jitter.
	if e.T.IsZero() {
		e.T = time.Now()
	}
	e.Node = l.node
	e.Inc = l.inc
	l.sink.Emit(e)
}

// Node returns the stamped address (zero for a disabled Local).
func (l *Local) Node() transport.Addr {
	if l == nil {
		return transport.Addr{}
	}
	return l.node
}

// Inc returns the stamped incarnation (zero for a disabled Local).
func (l *Local) Inc() uint32 {
	if l == nil {
		return 0
	}
	return l.inc
}

// Stamp emits an event on a bare Sink, filling only the timestamp.
// It is for components with no transport identity (the transaction
// subsystem's lock manager and store); such events join traces by
// Detail rather than by node address. A nil sink is a no-op.
func Stamp(s Sink, e Event) {
	if s == nil {
		return
	}
	e.T = time.Now()
	s.Emit(e)
}
