// Package pairedmsg implements the paired message protocol of §4.2: a
// connectionless, datagram-based layer that exchanges reliably
// delivered, variable-length call and return messages, identified by
// call numbers that are unique among all exchanges between a given
// pair of processes.
//
// The protocol segments messages larger than one datagram, numbers the
// segments, and uses acknowledgment and retransmission to mask loss
// and duplication (§4.2.2). Acknowledgments are explicit (a control
// segment with the ack bit) or implicit (a return segment acknowledges
// the call segments bearing the same call number). Crash detection
// uses probes — please-ack control segments — with a retry bound
// (§4.2.3): too low risks false crash reports, too high delays
// detection; both knobs are in Options.
//
// One deliberate deviation from the 1985 implementation is documented
// in DESIGN.md: because a Go process multiplexes many threads over one
// endpoint (Circus ran one heavyweight process per thread), the
// "later call number implicitly acknowledges the previous return"
// rule is unsound here — exchanges no longer strictly alternate.
// Instead, a completed return message is explicitly acknowledged at
// once, and the exact-match implicit acknowledgment (return n acks
// call n) is kept. The wire format of Figure 4.2 is unchanged.
//
// All protocol state — transfer tables, call-number counters, RTT
// estimators, liveness watches — is sharded per peer: each remote
// address gets its own session struct with its own lock, reached
// through a lock-free peer table, so concurrent exchanges with
// different peers never contend (see DESIGN.md "Concurrency model").
// Call numbers were always scoped to a process pair (§4.2), so the
// sharding changes no protocol semantics.
package pairedmsg

import (
	"context"
	"encoding/binary"
	"errors"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"circus/internal/tomb"
	"circus/internal/trace"
	"circus/internal/transport"
)

// RetransmitStrategy selects which unacknowledged segments each
// retransmission pass resends (§4.2.4 discusses both).
type RetransmitStrategy int

const (
	// RetransmitFirst resends only the first unacknowledged segment,
	// as the Circus protocol does by default.
	RetransmitFirst RetransmitStrategy = iota
	// RetransmitAll resends every unacknowledged segment, appropriate
	// for lossier links (§4.2.4).
	RetransmitAll
)

// Options tunes the protocol timers. The zero value is replaced by
// defaults suitable for tests and the simulated network.
type Options struct {
	// RetransmitInterval is the pause between retransmission passes
	// for an unacknowledged message. In adaptive mode it is only the
	// initial estimate used before any round trip has been measured.
	RetransmitInterval time.Duration
	// MaxRetries bounds retransmission passes with no progress before
	// the peer is declared crashed (§4.2.3). In adaptive mode the
	// crash bound is the time those passes would take at the fixed
	// interval (maxRetryTime), so that backoff does not delay crash
	// detection.
	MaxRetries int
	// Adaptive replaces the fixed retransmission interval with a
	// per-peer RTT estimate (the smoothed mean plus four times the
	// mean deviation, sampled only from exchanges that were never
	// retransmitted) and exponential backoff between passes, the
	// other side of the tradeoff §4.2.4 discusses: fewer duplicate
	// segments on slow or congested links, faster recovery on fast
	// ones. The fixed mode remains for the vaxsim ablations.
	Adaptive bool
	// ProbeInterval is the pause between crash-detection probes while
	// awaiting a return message (§4.2.3).
	ProbeInterval time.Duration
	// ProbeMissLimit is the number of consecutive unanswered probes
	// after which the peer is declared crashed.
	ProbeMissLimit int
	// Strategy selects the retransmission strategy.
	Strategy RetransmitStrategy
	// CompletedTTL is how long, at least, the record of a completed
	// exchange is retained to suppress replay of delayed duplicate
	// segments (§4.2.4); it is dropped within 1.5 times that.
	CompletedTTL time.Duration
	// CallBase, when nonzero, sets the starting call number for fresh
	// peers (and the multicast counter). Zero derives a base from the
	// process-wide connection creation order and a per-launch salt, so
	// that a restarted process (whose call numbers would otherwise
	// reset to 1) does not reuse numbers its predecessor completed
	// within CompletedTTL — reused numbers would be suppressed as
	// duplicate replays. Call numbers are content the seeded
	// simulation's fault injection never inspects, so campaign
	// reproducibility is unaffected.
	CallBase uint32
	// IncomingBuffer is the capacity of the reassembled-message queue
	// behind Incoming(). Zero means 256. When the queue is full a
	// completed message is not handed up: the attempt is counted
	// (Stats.DeliveryDrops, trace event msg.delivery-drop) and the
	// final acknowledgment withheld, so the sender's retransmission
	// drives a later redelivery attempt — backpressure without losing
	// the at-most-once guarantee (see DESIGN.md "Concurrency model").
	IncomingBuffer int
	// AckDelay bounds how long a non-urgent acknowledgment may wait
	// for a chance to piggyback on an outbound segment to the same
	// peer before a cumulative standalone ack is sent. Zero derives
	// the bound from the retransmission timers (min(MinRTO/2, srtt/4)
	// in adaptive mode, RetransmitInterval/8 capped at 5ms in fixed
	// mode) so a delayed ack can never be mistaken for a loss.
	// Negative disables delaying: every ack goes out at once.
	AckDelay time.Duration
	// CoalesceWindow bounds how long a data segment may wait in the
	// per-peer small-send queue for company when the session has
	// other transfers in flight (segments of a session's only
	// in-flight transfer are never held back, so serial exchanges
	// keep their latency). The window is a backstop: the wait ends
	// early the moment another transfer's segments arrive, so under
	// concurrent load the cost is one inter-arrival gap. Zero means
	// 150µs; negative disables pacing entirely, coalescing only what
	// is already queued.
	CoalesceWindow time.Duration
	// Trace, when set, receives a structured event for every
	// protocol action: sends, retransmissions, acks, probes, crash
	// suspicions, RTT samples, duplicate suppressions, deliveries.
	// Nil disables tracing at near-zero cost.
	Trace trace.Sink
}

// MinRTO is the floor of the adaptive retransmission interval.
const MinRTO = 2 * time.Millisecond

// maxRTO is the ceiling of the adaptive retransmission interval.
func (o Options) maxRTO() time.Duration { return 25 * o.RetransmitInterval }

// maxRetryTime bounds, in adaptive mode, how long retransmission
// proceeds with no progress before the peer is declared crashed: the
// same crash detection budget as fixed mode.
func (o Options) maxRetryTime() time.Duration {
	return time.Duration(o.MaxRetries) * o.RetransmitInterval
}

func (o Options) withDefaults() Options {
	if o.RetransmitInterval == 0 {
		o.RetransmitInterval = 40 * time.Millisecond
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 25
	}
	if o.ProbeInterval == 0 {
		o.ProbeInterval = 100 * time.Millisecond
	}
	if o.ProbeMissLimit == 0 {
		o.ProbeMissLimit = 8
	}
	if o.CompletedTTL == 0 {
		o.CompletedTTL = 30 * time.Second
	}
	if o.IncomingBuffer == 0 {
		o.IncomingBuffer = 256
	}
	if o.CoalesceWindow == 0 {
		o.CoalesceWindow = 150 * time.Microsecond
	}
	return o
}

// paceInFlightMin is how many transfers a session must have in flight
// before a new transfer's segments are paced (held briefly for
// companions to coalesce with). Below it a datagram saved is not worth
// the wait: with only a handful of concurrent exchanges the companion
// arrives so rarely that pacing spends the whole CoalesceWindow on the
// critical path and throughput drops, while delayed acks already
// capture most of the wire savings. At and above it companions arrive
// within a fraction of the window, so bundles form almost for free.
const paceInFlightMin = 6

// ErrPeerDown reports that retransmissions or probes to a peer went
// unanswered past the configured bound; the peer is presumed crashed
// (or unreachable — the protocol cannot tell a crash from a partition,
// §4.3.5).
var ErrPeerDown = errors.New("pairedmsg: peer presumed crashed")

// ErrClosed reports use of a closed Conn.
var ErrClosed = errors.New("pairedmsg: connection closed")

var errDupCallNum = errors.New("pairedmsg: duplicate call number in flight")

// Message is one fully reassembled incoming message. Data may alias a
// pooled transport buffer: a consumer that has copied out (or finished
// with) the bytes should call Release to recycle the backing storage.
// Skipping Release is always safe — the buffer just falls to the
// garbage collector — but Data must not be used after Release.
type Message struct {
	From    transport.Addr
	Type    MsgType
	CallNum uint32
	Data    []byte
	buf     *transport.Buf
}

// Release returns the message's pooled backing (if any) for reuse.
// Call it at most once, after the last use of Data.
func (m *Message) Release() {
	if m.buf != nil {
		m.buf.Release()
		m.buf = nil
	}
}

// Stats counts protocol activity, used by the ablation benchmarks.
type Stats struct {
	SegmentsSent      int64
	Retransmits       int64
	AcksSent          int64
	ProbesSent        int64
	DupSegments       int64
	MessagesDelivered int64
	// DeliveryDrops counts reassembled messages that could not be
	// handed up because the incoming queue was full. Each drop
	// withholds the exchange's final acknowledgment, so the sender
	// retransmits and the message is redelivered later (or the sender
	// gives up and declares the peer down) — a drop is backpressure,
	// not message loss.
	DeliveryDrops int64
	// Wire-economy counters (DESIGN.md "Wire economy"). An ack is
	// piggybacked when it shares a coalesced datagram with at least
	// one data or probe segment; a bundle is any datagram carrying
	// two or more segments, and BundledFrames counts the segments
	// those bundles carried.
	AcksPiggybacked int64
	BundlesSent     int64
	BundledFrames   int64
	// CompletedRecords is a gauge, not a counter: how many completed
	// exchanges are remembered for replay suppression right now, over
	// all peers — at most those of the last 1.5 CompletedTTL.
	CompletedRecords int64
	// Watches is a gauge: how many acknowledged calls are being probed
	// for liveness while their return is awaited (§4.2.3).
	Watches int64
}

// sessKey identifies one transfer within a peer session (the peer is
// implicit): type<<32 | call number, one integer so the maps hash it on
// their 64-bit fast path and it indexes a bitmap (tomb.Bits).
type sessKey uint64

func mkKey(typ MsgType, callNum uint32) sessKey { return sessKey(typ)<<32 | sessKey(callNum) }
func (k sessKey) typ() MsgType                  { return MsgType(k >> 32) }
func (k sessKey) callNum() uint32               { return uint32(k) }

// session holds all protocol state shared with one peer, behind its
// own lock: transfer tables, liveness watches, the unicast call-number
// counter, and the RTT estimator. Sessions are created on first
// contact and retained for the life of the Conn (call numbers and RTT
// estimates must survive quiet periods), reached via Conn.peers.
type session struct {
	peer transport.Addr

	mu  sync.Mutex
	out map[sessKey]*outTransfer
	in  map[sessKey]*inTransfer
	// watches holds the acknowledged observed calls whose return is
	// still awaited, probed for liveness by the timer pass (§4.2.3).
	watches map[sessKey]*outTransfer
	// completed records delivered inbound exchanges, a bit each, for
	// replay suppression (§4.2.4) once their inTransfer is recycled. A
	// replay is acked with the segment count: 1, or completedSegs's
	// record. The timer pass rotates both every half CompletedTTL.
	completed     tomb.Bits
	completedSegs tomb.Table[sessKey, uint8]
	nextCall      uint32
	rtt           rttEstimator
	nextRotate    time.Time

	// srttMicros mirrors rtt.srtt (microseconds) so the delayed-ack
	// bound can be derived without taking mu on the receive path.
	srttMicros atomic.Int64

	// Wire-economy send state (DESIGN.md "Wire economy"), behind its
	// own lock so enqueueing never contends with protocol bookkeeping:
	// the per-peer small-send queue, the pending cumulative acks, the
	// single-flusher flag, and the delayed-ack / coalesce timers. The
	// two locks never nest — sendMu is only taken with mu released.
	sendMu    sync.Mutex
	sendQ     []outFrame
	sendSpare []outFrame // drained queue, recycled to avoid reallocation
	pend      map[sessKey]pendAck
	flushing  bool // a flusher is draining sendQ+pend
	ackTimer  *time.Timer
	ackArmed  bool
	paceTimer *time.Timer
	paceArmed bool
}

// outFrame is one queued outbound segment: either a prepared data
// segment (seg != nil), possibly needing the please-ack bit stamped
// onto the transmitted copy, or a header-only probe.
type outFrame struct {
	seg   []byte       // prepared data segment; nil for a probe frame
	h     segHeader    // probe header when seg == nil
	t     *outTransfer // seg's owner, for wire-reference accounting; nil for acks/probes
	pa    bool         // stamp please-ack onto the transmitted copy
	probe bool         // trace as msg.probe at transmission
}

// pendAck is one pending cumulative acknowledgment, merged by maximum
// ack number: ackable() only advances, so the latest state subsumes
// every earlier one for the same exchange.
type pendAck struct {
	ackNum int
	total  int
}

type outTransfer struct {
	peer     transport.Addr
	typ      MsgType
	callNum  uint32
	segs     [][]byte
	segsArr  [1][]byte // in-place backing of segs for single-segment sends
	acked    int       // highest consecutive segment acknowledged
	attempts int       // retransmission passes since last progress
	nextSend time.Time
	done     chan struct{} // nil for an observed call: obs hears the end instead
	err      error
	pace     bool // session had other transfers in flight at registration

	// An observed call (BeginObservedCall) reports failure to obs and,
	// once acknowledged, stays in its session's watch table as the
	// liveness watch of §4.2.3: missed probes since the last sign of
	// life, and when the next probe is due.
	obs       CallObserver
	missed    int
	nextProbe time.Time

	// Pooled single-segment wire buffer. The buffer can be recycled
	// only when no retransmission can enqueue it again (ended: the
	// transfer left its session's out table) AND no already-queued
	// frame still references it (wireRefs: incremented per enqueued
	// frame, decremented after the flusher hands it to the transport).
	// Both conditions flip on different goroutines, so whichever
	// observer sees the other's condition met claims the recycle via
	// the recycled flag. A buffer never recycled (e.g. frames dropped
	// by Close) is garbage-collected — safe, just unpooled.
	backing  *[]byte
	wireRefs atomic.Int32
	ended    atomic.Bool
	recycled atomic.Bool

	// Adaptive-mode state (§4.2.4 tradeoff).
	firstSent time.Time     // when the initial transmission left
	deadline  time.Time     // no-progress crash deadline
	rto       time.Duration // current backoff interval
	retx      bool          // retransmitted at least once (Karn's rule)
	lastRetx  time.Time     // clock reading of the last retransmit pass
}

// segBufs pools single-segment wire buffers: header plus payload of a
// message that fits one datagram, the overwhelmingly common case on
// the call hot path.
var segBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, transport.MaxDatagram)
	return &b
}}

// fill builds the transfer's segment vector for msg, using the
// in-place single-segment fast path (with pooled backing) when it fits
// one datagram. It leaves one wire reference held — the
// pre-transmission hold, released by the initial-transmission enqueue
// (or the error path) via wireDone — so an early completion racing the
// initial Transmit can never recycle the backing out from under it.
func (t *outTransfer) fill(typ MsgType, callNum uint32, msg []byte) error {
	t.wireRefs.Store(1)
	if len(msg) <= maxSegPayload {
		bp := segBufs.Get().(*[]byte)
		backing := (*bp)[:headerLen+len(msg)]
		segHeader{typ: typ, totalSegs: 1, segNum: 1, callNum: callNum}.put(backing)
		copy(backing[headerLen:], msg)
		*bp = backing
		t.backing = bp
		t.segsArr[0] = backing
		t.segs = t.segsArr[:1]
		return nil
	}
	segs, err := segmentMessage(typ, callNum, msg)
	if err != nil {
		return err
	}
	t.segs = segs
	return nil
}

// endWire marks the transfer as gone from its session's out table —
// no future retransmission pass can reference its segments — and
// recycles the pooled backing if no queued frame still does. Safe to
// call more than once.
func (t *outTransfer) endWire() {
	t.ended.Store(true)
	if t.backing != nil && t.wireRefs.Load() == 0 {
		t.recycleBacking()
	}
}

// wireDone drops one queued-frame reference after the transport has
// consumed the frame.
func (t *outTransfer) wireDone() {
	if t.wireRefs.Add(-1) == 0 && t.ended.Load() && t.backing != nil {
		t.recycleBacking()
	}
}

func (t *outTransfer) recycleBacking() {
	if t.recycled.CompareAndSwap(false, true) {
		segBufs.Put(t.backing)
	}
}

// stampCallNum rewrites the call number in every prepared segment
// header. BeginCall builds segments before the number is known so the
// payload copy happens outside the session lock.
func (t *outTransfer) stampCallNum(callNum uint32) {
	t.callNum = callNum
	for _, s := range t.segs {
		binary.BigEndian.PutUint32(s[callNumOff:], callNum)
	}
}

// CallNum returns the call number the transfer was registered under;
// for transfers begun with BeginCall this is where the allocated
// number is read back.
func (t *outTransfer) CallNum() uint32 { return t.callNum }

// rttEstimator keeps the per-peer smoothed round-trip time and mean
// deviation (Jacobson/Karels), from which the retransmission timeout
// is derived as srtt + 4*rttvar.
type rttEstimator struct {
	srtt   time.Duration
	rttvar time.Duration
	valid  bool
}

func (e *rttEstimator) sample(rtt time.Duration) {
	if !e.valid {
		e.srtt = rtt
		e.rttvar = rtt / 2
		e.valid = true
		return
	}
	delta := rtt - e.srtt
	if delta < 0 {
		delta = -delta
	}
	e.rttvar = (3*e.rttvar + delta) / 4
	e.srtt = (7*e.srtt + rtt) / 8
}

func (e *rttEstimator) rto() time.Duration { return e.srtt + 4*e.rttvar }

type inTransfer struct {
	total     int
	segs      [][]byte  // segs[1..total]; nil marks a missing segment
	segArr    [4][]byte // in-place backing of segs for small messages
	have      int
	ackNum    int // highest consecutive segment received
	delivered bool

	// bufs tracks the pooled transport buffer (if any) each stored
	// segment payload aliases, parallel to segs; the reference is
	// retained at store and released when the payload dies — at
	// multi-segment assembly (the copy), or handed on inside the
	// delivered Message for single-segment messages.
	bufs    []*transport.Buf
	bufArr  [4]*transport.Buf
	justBuf *transport.Buf // single-segment: the buffer riding in assembled

	// Backpressure state: a fully reassembled message that the
	// incoming queue refused is parked in assembled and re-offered on
	// the next (retransmitted) segment or probe for this exchange.
	// announced records that msg.delivered was already traced, so a
	// redelivery attempt never emits a second delivery event.
	assembled []byte
	announced bool
}

// inPool recycles inTransfer structs: an exchange's record lives only
// until delivery now (a tombstone takes over replay suppression), so
// the struct is reusable per message instead of retained for the
// CompletedTTL window.
var inPool = sync.Pool{New: func() any { return new(inTransfer) }}

// newInTransfer takes a pooled record and sizes its segment vectors
// for a message of total segments (indexed 1..total).
func newInTransfer(total int) *inTransfer {
	in := inPool.Get().(*inTransfer)
	in.total = total
	if n := total + 1; n <= len(in.segArr) {
		in.segs = in.segArr[:n]
		in.bufs = in.bufArr[:n]
	} else {
		in.segs = make([][]byte, n)
		in.bufs = make([]*transport.Buf, n)
	}
	return in
}

// recycleInTransfer scrubs and pools a delivered record. Caller has
// already transferred or released every buffer reference; remaining
// entries here are defensive (they only arise if a future edit leaks
// one, in which case the release below keeps the pool honest).
func recycleInTransfer(in *inTransfer) {
	for i := range in.segs {
		in.segs[i] = nil
		if b := in.bufs[i]; b != nil {
			b.Release()
			in.bufs[i] = nil
		}
	}
	*in = inTransfer{}
	inPool.Put(in)
}

// ackable returns the acknowledgment number to advertise for this
// transfer: normally the highest consecutive segment received, but
// capped at total-1 while a reassembled message is still waiting for
// queue space, so the sender keeps retransmitting (and so redelivering)
// instead of considering the exchange complete.
func (in *inTransfer) ackable() int {
	if !in.delivered && in.have == in.total {
		return in.total - 1
	}
	return in.ackNum
}

// CallObserver hears how an observed call exchange ends when it ends
// without a return message: the call transfer failed (retries
// exhausted: ErrPeerDown; or ErrClosed), or — after the call was
// acknowledged and its liveness watch armed — probes went unanswered
// (ErrPeerDown) or the Conn closed (ErrClosed). It is called at most
// once, with the peer's session lock held, so it must not block or
// call back into the Conn. A delivered return disarms the watch
// without a call, as does Abandon.
type CallObserver interface {
	CallFailed(err error)
}

// rtoForLocked returns the retransmission interval for a fresh
// transfer to the session's peer. Caller holds s.mu.
func (c *Conn) rtoForLocked(s *session) time.Duration {
	if !c.opts.Adaptive {
		return c.opts.RetransmitInterval
	}
	if s.rtt.valid {
		return min(max(s.rtt.rto(), MinRTO), c.opts.maxRTO())
	}
	return c.opts.RetransmitInterval
}

// initTransferLocked stamps the adaptive-mode schedule onto a transfer
// about to make its initial transmission. Caller holds s.mu.
func (c *Conn) initTransferLocked(s *session, t *outTransfer, now time.Time) {
	t.firstSent = now
	t.deadline = now.Add(c.opts.maxRetryTime())
	t.rto = c.rtoForLocked(s)
	t.nextSend = now.Add(t.rto)
}

// Conn runs the paired message protocol over one transport endpoint.
type Conn struct {
	ep   transport.Endpoint
	opts Options
	tr   *trace.Local // nil when tracing is disabled

	// peers maps each peer to its session, copy-on-write: lock-free to
	// read, copied under peersMu to add a session, which is never removed.
	peers   atomic.Pointer[map[transport.Addr]*session]
	peersMu sync.Mutex

	// multiMu serializes multicast call-number allocation with the
	// registration and trace emission of the transfers it numbers, so
	// multicast msg.send events appear in call-number order.
	multiMu   sync.Mutex
	nextMulti uint32 // guarded by multiMu

	callBase uint32
	closed   atomic.Bool
	stats    counters

	incoming chan Message
	stop     chan struct{}
	wg       sync.WaitGroup
}

// counters is the internal all-atomic form of Stats, updated without
// any lock.
type counters struct {
	segmentsSent      atomic.Int64
	retransmits       atomic.Int64
	acksSent          atomic.Int64
	probesSent        atomic.Int64
	dupSegments       atomic.Int64
	messagesDelivered atomic.Int64
	deliveryDrops     atomic.Int64
	acksPiggybacked   atomic.Int64
	bundlesSent       atomic.Int64
	bundledFrames     atomic.Int64
}

// txScratch is the per-flush staging state: the datagram vector handed
// to the transport and the pooled bundle buffers to return afterwards.
// Pooling it keeps the steady-state flush path allocation-free.
type txScratch struct {
	dgrams []transport.Datagram
	bufs   []*[]byte
}

var txScratchPool = sync.Pool{New: func() any { return new(txScratch) }}

// transmitFrames packs acknowledgments and queued frames bound for one
// peer into as few datagrams as possible and hands them to the
// transport — in one batched operation when the endpoint supports it.
// Acknowledgments go first, so a receiver unpacking a bundle settles
// completed exchanges before seeing new data (a client's bundled
// [ack(return n), call n+1] keeps strictly serial workloads at one
// transfer in flight). Full-size segments can never share a datagram
// and are sent raw; a bundle that would carry a single frame is
// unwrapped and sent as a plain segment, byte-identical to the
// uncoalesced protocol. Retransmitted segments get the please-ack bit
// stamped onto the transmitted copy, never onto the stored original —
// other readers may hold it outside any lock.
func (c *Conn) transmitFrames(peer transport.Addr, acks []segHeader, frames []outFrame) {
	tx := txScratchPool.Get().(*txScratch)
	var (
		cur     *[]byte // bundle under construction
		curN    int     // frames packed into cur
		curAcks int     // ack frames among them
	)
	closeCur := func() {
		if cur == nil {
			return
		}
		buf := *cur
		if curN == 1 {
			// A lone frame needs no wrapper.
			tx.dgrams = append(tx.dgrams, transport.Datagram{To: peer,
				Data: buf[bundleHdrLen+bundleFrameHdrLen:]})
		} else {
			tx.dgrams = append(tx.dgrams, transport.Datagram{To: peer, Data: buf})
			c.stats.bundlesSent.Add(1)
			c.stats.bundledFrames.Add(int64(curN))
			if curAcks > 0 && curAcks < curN {
				c.stats.acksPiggybacked.Add(int64(curAcks))
			}
			if c.tr.EnabledFor(trace.KindBundleSend) {
				c.tr.Emit(trace.Event{Kind: trace.KindBundleSend, Peer: peer, N: curN})
			}
		}
		tx.bufs = append(tx.bufs, cur)
		cur, curN, curAcks = nil, 0, 0
	}
	pack := func(seg []byte, pa bool, isAck bool) {
		need := bundleFrameHdrLen + len(seg)
		if cur != nil && len(*cur)+need > transport.MaxDatagram {
			closeCur()
		}
		if cur == nil {
			bp := bundleBufs.Get().(*[]byte)
			*bp = append((*bp)[:0], bundleMagic, 0)
			cur = bp
		}
		b := *cur
		mark := len(b) + bundleFrameHdrLen
		b = appendBundleFrame(b, seg)
		if pa {
			b[mark+1] |= ctlPleaseAck
		}
		*cur = b
		curN++
		if isAck {
			curAcks++
		}
	}

	var hb [headerLen]byte
	for _, h := range acks {
		c.stats.acksSent.Add(1)
		if c.tr.EnabledFor(trace.KindAckSend) {
			c.tr.Emit(trace.Event{Kind: trace.KindAckSend, Peer: peer,
				MsgType: uint8(h.typ), CallNum: h.callNum,
				N: int(h.segNum), Total: int(h.totalSegs)})
		}
		h.put(hb[:])
		pack(hb[:], false, true)
	}
	for _, f := range frames {
		if f.seg == nil { // probe
			if c.tr.EnabledFor(trace.KindProbeSend) {
				c.tr.Emit(trace.Event{Kind: trace.KindProbeSend, Peer: peer,
					MsgType: uint8(f.h.typ), CallNum: f.h.callNum})
			}
			f.h.put(hb[:])
			pack(hb[:], false, false)
			continue
		}
		if !bundleFits(len(f.seg)) {
			closeCur() // preserve frame order across the raw send
			if f.pa {
				bp := bundleBufs.Get().(*[]byte)
				b := append((*bp)[:0], f.seg...)
				b[1] |= ctlPleaseAck
				*bp = b
				tx.dgrams = append(tx.dgrams, transport.Datagram{To: peer, Data: b})
				tx.bufs = append(tx.bufs, bp)
			} else {
				tx.dgrams = append(tx.dgrams, transport.Datagram{To: peer, Data: f.seg})
			}
			continue
		}
		pack(f.seg, f.pa, false)
	}
	closeCur()

	switch {
	case len(tx.dgrams) == 0:
	case len(tx.dgrams) == 1:
		c.ep.Send(peer, tx.dgrams[0].Data)
	default:
		if bs, ok := c.ep.(transport.BatchSender); ok {
			bs.SendBatch(tx.dgrams)
		} else {
			for _, d := range tx.dgrams {
				c.ep.Send(d.To, d.Data)
			}
		}
	}

	for _, bp := range tx.bufs {
		bundleBufs.Put(bp)
	}
	for i := range tx.dgrams {
		tx.dgrams[i] = transport.Datagram{} // drop payload references
	}
	tx.dgrams = tx.dgrams[:0]
	tx.bufs = tx.bufs[:0]
	txScratchPool.Put(tx)
}

// connSeq and connSalt seed the default call number base so
// successive incarnations on one address cannot collide (see
// Options.CallBase) — the salt covers restarts of the whole OS
// process, the sequence covers restarts within it.
var (
	connSeq  atomic.Uint32
	connSalt = uint32(time.Now().UnixNano())
)

// New starts the protocol over ep. The caller must eventually Close
// the Conn, which also closes ep.
func New(ep transport.Endpoint, opts Options) *Conn {
	base := opts.CallBase
	if base == 0 {
		// Scatter successive incarnations across the 30-bit unicast
		// call number space (the top bit marks multicast numbers).
		base = ((connSeq.Add(1) * 0x9E3779B1) ^ connSalt) & 0x3FFF_FFFF
	}
	c := &Conn{
		ep:       ep,
		opts:     opts.withDefaults(),
		callBase: base,
		stop:     make(chan struct{}),
	}
	c.incoming = make(chan Message, c.opts.IncomingBuffer)
	c.peers.Store(&map[transport.Addr]*session{})
	c.tr = trace.NewLocal(c.opts.Trace, ep.Addr(), trace.NextIncarnation())
	if d, ok := ep.(transport.Dispatcher); ok {
		// The endpoint invokes the protocol directly from its drain
		// goroutines, skipping the Recv channel and its per-datagram
		// goroutine wake. netsim endpoints cannot, so recvLoop stays.
		d.SetHandler(c.handlePacket)
		c.wg.Add(1)
		go c.timerLoop()
	} else {
		c.wg.Add(2)
		go c.recvLoop()
		go c.timerLoop()
	}
	return c
}

// session returns the per-peer state shard, creating it on first
// contact with peer.
func (c *Conn) session(peer transport.Addr) *session {
	if s := (*c.peers.Load())[peer]; s != nil {
		return s
	}
	c.peersMu.Lock()
	defer c.peersMu.Unlock()
	if s := (*c.peers.Load())[peer]; s != nil {
		return s
	}
	s := &session{
		peer:     peer,
		out:      make(map[sessKey]*outTransfer),
		in:       make(map[sessKey]*inTransfer),
		watches:  make(map[sessKey]*outTransfer),
		pend:     make(map[sessKey]pendAck),
		nextCall: c.callBase,
	}
	m := maps.Clone(*c.peers.Load())
	m[peer] = s
	c.peers.Store(&m)
	return s
}

// Addr returns the local transport address.
func (c *Conn) Addr() transport.Addr { return c.ep.Addr() }

// Tracer returns the connection's trace emitter (nil when tracing is
// disabled), stamped with this connection's address and incarnation.
// Higher layers share it so one process's events carry one identity.
func (c *Conn) Tracer() *trace.Local { return c.tr }

// Incoming returns the stream of reassembled messages. The channel is
// closed by Close.
func (c *Conn) Incoming() <-chan Message { return c.incoming }

// Stats returns a snapshot of the protocol counters.
func (c *Conn) Stats() Stats {
	var completed, watches int64
	for _, s := range *c.peers.Load() {
		s.mu.Lock()
		completed += int64(s.completed.Len())
		watches += int64(len(s.watches))
		s.mu.Unlock()
	}
	return Stats{
		CompletedRecords:  completed,
		Watches:           watches,
		SegmentsSent:      c.stats.segmentsSent.Load(),
		Retransmits:       c.stats.retransmits.Load(),
		AcksSent:          c.stats.acksSent.Load(),
		ProbesSent:        c.stats.probesSent.Load(),
		DupSegments:       c.stats.dupSegments.Load(),
		MessagesDelivered: c.stats.messagesDelivered.Load(),
		DeliveryDrops:     c.stats.deliveryDrops.Load(),
		AcksPiggybacked:   c.stats.acksPiggybacked.Load(),
		BundlesSent:       c.stats.bundlesSent.Load(),
		BundledFrames:     c.stats.bundledFrames.Load(),
	}
}

// RTT returns the smoothed round-trip estimate for peer, and whether
// the estimator has accepted any sample yet. Estimation is per-peer
// session state, so one peer's estimate never bleeds into another's.
func (c *Conn) RTT(peer transport.Addr) (time.Duration, bool) {
	s, ok := (*c.peers.Load())[peer]
	if !ok {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rtt.srtt, s.rtt.valid
}

// NextCallNum allocates a call number unique among exchanges between
// this process and peer (§4.2: call numbers identify each pair of
// messages among all those exchanged by a given pair of processes).
func (c *Conn) NextCallNum(peer transport.Addr) uint32 {
	s := c.session(peer)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextCall++
	return s.nextCall
}

// Close shuts the protocol down, failing pending sends with ErrClosed.
func (c *Conn) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	for _, s := range *c.peers.Load() {
		s.mu.Lock()
		for _, t := range s.out {
			c.completeOutLocked(s, t, ErrClosed)
		}
		for k, t := range s.watches {
			delete(s.watches, k)
			t.obs.CallFailed(ErrClosed)
		}
		s.mu.Unlock()
		// Stop the delayed-ack and coalesce timers and drop anything
		// still queued: the peer will learn nothing more from us, and
		// a timer firing after teardown must find nothing to do. A
		// callback already past Stop re-checks c.closed and bails.
		s.sendMu.Lock()
		if s.ackTimer != nil {
			s.ackTimer.Stop()
		}
		if s.paceTimer != nil {
			s.paceTimer.Stop()
		}
		s.ackArmed, s.paceArmed = false, false
		s.sendQ, s.sendSpare = nil, nil
		for k := range s.pend {
			delete(s.pend, k)
		}
		s.sendMu.Unlock()
	}
	close(c.stop)

	err := c.ep.Close()
	c.wg.Wait()
	close(c.incoming)
	return err
}

// register installs a fully built transfer into its session, starting
// its retransmission schedule, and reports how many transfers
// (including this one) the session then had in flight — the signal the
// coalescing pacer keys on. The post-unlock closed recheck covers the
// window where Close's teardown sweep ran before this session was
// published: either the sweep saw the session (and failed the
// transfer) or the recheck fires — no transfer outlives Close.
func (c *Conn) register(s *session, t *outTransfer) (int, error) {
	k := mkKey(t.typ, t.callNum)
	s.mu.Lock()
	if c.closed.Load() {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	if _, dup := s.out[k]; dup {
		s.mu.Unlock()
		return 0, errDupCallNum
	}
	s.out[k] = t
	inFlight := len(s.out)
	c.initTransferLocked(s, t, time.Now())
	s.mu.Unlock()
	if c.closed.Load() {
		s.mu.Lock()
		c.completeOutLocked(s, t, ErrClosed)
		s.mu.Unlock()
		return 0, ErrClosed
	}
	return inFlight, nil
}

// Send reliably transmits one message to peer, blocking until every
// segment is acknowledged (explicitly or implicitly), the context is
// cancelled, or the peer is presumed crashed.
func (c *Conn) Send(ctx context.Context, to transport.Addr, typ MsgType, callNum uint32, msg []byte) error {
	t, err := c.StartSend(to, typ, callNum, msg)
	if err != nil {
		return err
	}
	return c.Await(ctx, t)
}

// Await blocks until a transfer completes or the context is cancelled;
// cancellation abandons the transfer.
func (c *Conn) Await(ctx context.Context, t *outTransfer) error {
	select {
	case <-t.done:
		return t.err
	case <-ctx.Done():
		s := c.session(t.peer)
		s.mu.Lock()
		k := mkKey(t.typ, t.callNum)
		if cur, ok := s.out[k]; ok && cur == t {
			delete(s.out, k)
			t.endWire()
		}
		s.mu.Unlock()
		return ctx.Err()
	}
}

// ErrNoMulticast reports that the underlying endpoint cannot
// multicast.
var ErrNoMulticast = errors.New("pairedmsg: endpoint does not support multicast")

// Transfer is the caller-visible handle of an asynchronous reliable
// send: Done is closed when every segment is acknowledged or the
// transfer fails, after which Err reports the outcome.
type Transfer interface {
	Done() <-chan struct{}
	Err() error
}

// nextMulticastLocked allocates a call number for a multicast
// exchange. Multicast numbers live in the upper half of the call
// number space so they can never collide with the per-peer unicast
// counters; within one pair of processes every exchange still bears a
// unique number, as §4.2 requires. Caller holds multiMu.
func (c *Conn) nextMulticastLocked() uint32 {
	if c.nextMulti == 0 {
		c.nextMulti = c.callBase
	}
	c.nextMulti++
	return 0x8000_0000 | (c.nextMulti & 0x7FFF_FFFF)
}

// BeginCall allocates the next unicast call number for peer and
// registers a call-message transfer under it, without transmitting.
// Allocation, registration, and the msg.send trace event happen in one
// session critical section, so the per-peer trace order always matches
// call-number order no matter how many callers race — the property the
// monotone-call-numbers conformance check verifies. The caller reads
// the number with CallNum, installs any reply routing keyed by it, and
// then calls Transmit; nothing is on the wire before that, so a reply
// can never arrive before its routing exists. It is BeginObservedCall
// without an observer: the returned transfer's Done and Err report how
// the call message fared, and nothing watches for the return.
func (c *Conn) BeginCall(to transport.Addr, msg []byte) (*outTransfer, error) {
	return c.BeginObservedCall(to, msg, nil)
}

// BeginObservedCall is BeginCall for a caller awaiting the return: a
// failed call transfer is reported to obs, and once the call message is
// acknowledged the Conn probes the peer until the return is delivered
// (§4.2.3), reporting a presumed crash to obs. The caller then needs
// no goroutine or channel per exchange; it abandons an exchange it has
// stopped waiting for with Abandon. A nil obs gives BeginCall's
// transfer.
func (c *Conn) BeginObservedCall(to transport.Addr, msg []byte, obs CallObserver) (*outTransfer, error) {
	t := &outTransfer{peer: to, typ: Call, obs: obs}
	if obs == nil {
		t.done = make(chan struct{})
	}
	if err := t.fill(Call, 0, msg); err != nil {
		return nil, err
	}
	s := c.session(to)
	s.mu.Lock()
	if c.closed.Load() {
		s.mu.Unlock()
		t.endWire()
		t.wireDone()
		return nil, ErrClosed
	}
	s.nextCall++
	for {
		if _, dup := s.out[mkKey(Call, s.nextCall)]; !dup {
			break
		}
		s.nextCall++ // wrapped onto a number still in flight: skip it
	}
	t.stampCallNum(s.nextCall)
	s.out[mkKey(Call, t.callNum)] = t
	t.pace = len(s.out) >= paceInFlightMin
	c.initTransferLocked(s, t, time.Now())
	if c.tr.EnabledFor(trace.KindMsgSend) {
		c.tr.Emit(trace.Event{Kind: trace.KindMsgSend, Peer: to,
			MsgType: uint8(Call), CallNum: t.callNum, N: len(t.segs)})
	}
	s.mu.Unlock()
	if c.closed.Load() { // see register for why this recheck is needed
		s.mu.Lock()
		c.completeOutLocked(s, t, ErrClosed)
		s.mu.Unlock()
		t.wireDone() // Transmit will never run to release the hold
		return nil, ErrClosed
	}
	c.stats.segmentsSent.Add(int64(len(t.segs)))
	return t, nil
}

// Transmit performs the initial transmission of a transfer begun with
// BeginCall, all segments with no control bits set (§4.2.2). The
// segments go through the session's coalescing queue, carrying any
// pending acknowledgment to the same peer with them.
func (c *Conn) Transmit(t *outTransfer) {
	s := c.session(t.peer)
	s.sendMu.Lock()
	for _, seg := range t.segs {
		t.wireRefs.Add(1)
		s.sendQ = append(s.sendQ, outFrame{seg: seg, t: t})
	}
	c.flushOrSchedule(s, t.pace)
	t.wireDone() // release the pre-transmission hold taken by fill
}

// BeginCallMulticast is the multicast analog of BeginObservedCall: it
// allocates one multicast call number and registers a call transfer to
// every member of group under it, observed by the matching entry of
// obs, without transmitting; a nil entry gives that member BeginCall's
// unobserved transfer. The returned transfers parallel group.
// Retransmission and acknowledgment remain per-recipient, because
// delivery reliability varies from recipient to recipient (§2.2). The
// caller installs reply routing and then calls TransmitMulticast.
func (c *Conn) BeginCallMulticast(group []transport.Addr, msg []byte, obs []CallObserver) ([]Transfer, uint32, error) {
	if _, ok := c.ep.(transport.Multicaster); !ok {
		return nil, 0, ErrNoMulticast
	}
	segs, err := segmentMessage(Call, 0, msg)
	if err != nil {
		return nil, 0, err
	}

	c.multiMu.Lock()
	defer c.multiMu.Unlock()
	if c.closed.Load() {
		return nil, 0, ErrClosed
	}
	callNum := c.nextMulticastLocked()
	for _, s := range segs {
		binary.BigEndian.PutUint32(s[callNumOff:], callNum)
	}
	transfers := make([]Transfer, len(group))
	registered := make([]*outTransfer, 0, len(group))
	for i, to := range group {
		t := &outTransfer{peer: to, typ: Call, callNum: callNum, segs: segs, obs: obs[i]}
		if t.obs == nil {
			t.done = make(chan struct{})
		}
		if _, err := c.register(c.session(to), t); err != nil {
			for _, r := range registered {
				rs := c.session(r.peer)
				rs.mu.Lock()
				c.completeOutLocked(rs, r, ErrClosed)
				rs.mu.Unlock()
			}
			return nil, 0, err
		}
		if c.tr.EnabledFor(trace.KindMsgSend) {
			c.tr.Emit(trace.Event{Kind: trace.KindMsgSend, Peer: to,
				MsgType: uint8(Call), CallNum: callNum, N: len(segs)})
		}
		transfers[i] = t
		registered = append(registered, t)
	}
	c.stats.segmentsSent.Add(int64(len(segs))) // one multicast op per segment
	return transfers, callNum, nil
}

// TransmitMulticast performs the initial transmission of transfers
// begun with BeginCallMulticast: one multicast operation per segment
// reaches the whole group (§4.3.3 — m+n messages instead of m·n).
func (c *Conn) TransmitMulticast(group []transport.Addr, transfers []Transfer) {
	if len(transfers) == 0 {
		return
	}
	mc := c.ep.(transport.Multicaster)
	for _, s := range transfers[0].(*outTransfer).segs {
		mc.Multicast(group, s)
	}
}

// StartSend begins a reliable transfer without blocking; servers use
// it to send return messages while continuing to serve (§4.3.2).
func (c *Conn) StartSend(to transport.Addr, typ MsgType, callNum uint32, msg []byte) (*outTransfer, error) {
	t := &outTransfer{peer: to, typ: typ, callNum: callNum, done: make(chan struct{})}
	if err := t.fill(typ, callNum, msg); err != nil {
		return nil, err
	}
	s := c.session(to)
	inFlight, err := c.register(s, t)
	if err != nil {
		t.endWire()
		t.wireDone()
		return nil, err
	}
	c.stats.segmentsSent.Add(int64(len(t.segs)))

	if c.tr.EnabledFor(trace.KindMsgSend) {
		c.tr.Emit(trace.Event{Kind: trace.KindMsgSend, Peer: to,
			MsgType: uint8(typ), CallNum: callNum, N: len(t.segs)})
	}
	// Initial transmission of all segments with no control bits set
	// (§4.2.2), through the coalescing queue so a pending ack to the
	// same peer rides along.
	s.sendMu.Lock()
	for _, seg := range t.segs {
		t.wireRefs.Add(1)
		s.sendQ = append(s.sendQ, outFrame{seg: seg, t: t})
	}
	c.flushOrSchedule(s, inFlight >= paceInFlightMin)
	t.wireDone() // release the pre-transmission hold taken by fill
	return t, nil
}

// Done exposes the completion channel for use with select.
func (t *outTransfer) Done() <-chan struct{} { return t.done }

// Err reports the transfer outcome; valid only after Done is closed.
func (t *outTransfer) Err() error { return t.err }

// Abandon forgets an observed call whose caller stopped waiting: the
// call transfer, if still unacknowledged, stops retransmitting, and the
// liveness watch, if armed, stops probing. Nothing is reported to the
// observer after Abandon returns.
func (c *Conn) Abandon(to transport.Addr, callNum uint32) {
	s := c.session(to)
	k := mkKey(Call, callNum)
	s.mu.Lock()
	if t, ok := s.out[k]; ok && t.obs != nil {
		delete(s.out, k)
		t.endWire()
	}
	delete(s.watches, k)
	s.mu.Unlock()
}

func (c *Conn) recvLoop() {
	defer c.wg.Done()
	for pkt := range c.ep.Recv() {
		c.handlePacket(pkt)
	}
}

// handlePacket processes one incoming datagram — the receive entry
// point for both the Recv-channel loop and a Dispatcher endpoint's
// drain goroutines — and releases the packet's pooled buffer (if any)
// when done. Segments stored for reassembly retain their own reference
// first, so the release here only ends the packet-wide hold.
func (c *Conn) handlePacket(pkt transport.Packet) {
	if len(pkt.Data) > 0 && pkt.Data[0] == bundleMagic {
		// A coalesced datagram: unpack and handle each segment in
		// order, so an ack packed ahead of a data segment settles
		// the older exchange before the new one is seen. Frames
		// alias pkt.Data, which the receiver owns (transport.Packet).
		from, buf := pkt.From, pkt.Buf
		decodeBundle(pkt.Data, func(frame []byte) {
			c.handleSegment(from, frame, buf)
		})
	} else {
		c.handleSegment(pkt.From, pkt.Data, pkt.Buf)
	}
	if pkt.Buf != nil {
		pkt.Buf.Release()
	}
}

// handleSegment dispatches one decoded segment — plain or unpacked
// from a bundle — to the ack, probe, or data path. buf is the pooled
// transport buffer the segment aliases, nil for fresh-buffer delivery.
func (c *Conn) handleSegment(from transport.Addr, data []byte, buf *transport.Buf) {
	h, payload, err := decodeSegment(data)
	if err != nil {
		return // garbled: treated as lost (§2.2)
	}
	switch {
	case h.ack:
		c.handleAck(from, h)
	case h.totalSegs == 0:
		c.handleProbe(from, h)
	default:
		c.handleData(from, h, payload, buf)
	}
}

// handleAck processes an explicit acknowledgment: all segments with
// numbers <= the acknowledgment number have been received (§4.2.2).
func (c *Conn) handleAck(from transport.Addr, h segHeader) {
	s := c.session(from)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.aliveLocked(h.callNum)
	t, ok := s.out[mkKey(h.typ, h.callNum)]
	if !ok {
		return
	}
	if int(h.segNum) > t.acked {
		t.acked = int(h.segNum)
		t.attempts = 0 // progress resets the crash countdown
		t.deadline = time.Now().Add(c.opts.maxRetryTime())
	}
	if t.acked >= len(t.segs) {
		c.completeOutLocked(s, t, nil)
	}
}

// handleProbe answers a please-ack control segment with the current
// acknowledgment state for that exchange, telling the prober both
// "alive" and "here is how much I have" (§4.2.3). A probe also
// re-offers a reassembled message the incoming queue refused earlier.
func (c *Conn) handleProbe(from transport.Addr, h segHeader) {
	if !h.pleaseAck {
		return
	}
	s := c.session(from)
	k := mkKey(h.typ, h.callNum)
	s.mu.Lock()
	in := s.in[k]
	ackNum, total := 0, int(h.totalSegs)
	var dropped bool
	if in != nil {
		var deliveredNow bool
		if !in.delivered && in.have == in.total {
			deliveredNow, dropped = c.deliverLocked(in, from, h.typ, h.callNum)
		}
		ackNum, total = in.ackable(), in.total
		if deliveredNow {
			s.retireLocked(k, in)
		}
	} else if n, ok := s.completedLocked(k); ok {
		// The exchange already finished; answer from the tombstone.
		ackNum, total = n, n
	}
	s.mu.Unlock()
	if dropped {
		c.traceDrop(from, h.typ, h.callNum)
	}
	// The prober is waiting on this answer: flush it at once (it still
	// shares its datagram with anything already queued).
	c.queueAck(s, h.typ, h.callNum, ackNum, total, true)
}

func (c *Conn) handleData(from transport.Addr, h segHeader, payload []byte, buf *transport.Buf) {
	s := c.session(from)
	k := mkKey(h.typ, h.callNum)

	s.mu.Lock()
	s.aliveLocked(h.callNum)

	// A return segment implicitly acknowledges all segments of the
	// call bearing the same call number (§4.2.2).
	if h.typ == Return {
		if t, ok := s.out[mkKey(Call, h.callNum)]; ok {
			c.completeOutLocked(s, t, nil)
		}
	}

	in, ok := s.in[k]
	if !ok {
		if n, done := s.completedLocked(k); done {
			// Replayed segment of a finished exchange (§4.2.4): answer
			// from the tombstone without resurrecting transfer state.
			s.mu.Unlock()
			c.stats.dupSegments.Add(1)
			if c.tr.EnabledFor(trace.KindDupSegment) {
				c.tr.Emit(trace.Event{Kind: trace.KindDupSegment, Peer: from,
					MsgType: uint8(h.typ), CallNum: h.callNum, N: int(h.segNum)})
			}
			if h.pleaseAck {
				c.queueAck(s, h.typ, h.callNum, n, n, true)
			}
			return
		}
		in = newInTransfer(int(h.totalSegs))
		s.in[k] = in
	}

	var (
		deliveredNow bool
		dropped      bool
		gap          bool
		dup          bool
	)
	switch {
	case int(h.segNum) < 1 || int(h.segNum) > in.total:
		s.mu.Unlock()
		return // malformed
	case in.segs[h.segNum] != nil:
		dup = true
		// A duplicate of a fully reassembled message still waiting for
		// queue space is the sender's retransmission doing its job:
		// attempt the delivery again (backpressure recovery).
		if in.have == in.total {
			deliveredNow, dropped = c.deliverLocked(in, from, h.typ, h.callNum)
		}
	default:
		// The payload is kept without copying: either it sits in a
		// fresh buffer the receiver owns outright, or it aliases a
		// pooled buffer whose reference is retained here and released
		// when the stored bytes die. It is non-nil even when empty —
		// the datagram had a header prefix — which matters because nil
		// marks "missing".
		in.segs[h.segNum] = payload
		if buf != nil {
			buf.Retain()
			in.bufs[h.segNum] = buf
		}
		in.have++
		for in.ackNum < in.total && in.segs[in.ackNum+1] != nil {
			in.ackNum++
		}
		// An out-of-order arrival reveals a loss: acknowledge at once
		// so the sender retransmits the first missing segment rather
		// than waiting out its timer (§4.2.4).
		gap = int(h.segNum) > in.ackNum+1
		if in.have == in.total {
			deliveredNow, dropped = c.deliverLocked(in, from, h.typ, h.callNum)
		}
	}
	if dup {
		c.stats.dupSegments.Add(1)
	}
	ackNum, total := in.ackable(), in.total
	if deliveredNow {
		s.retireLocked(k, in)
	}
	s.mu.Unlock()

	if dup && c.tr.EnabledFor(trace.KindDupSegment) {
		c.tr.Emit(trace.Event{Kind: trace.KindDupSegment, Peer: from,
			MsgType: uint8(h.typ), CallNum: h.callNum, N: int(h.segNum)})
	}
	if dropped {
		c.traceDrop(from, h.typ, h.callNum)
	}

	// Acknowledgment policy: answer please-ack and gaps urgently (the
	// sender is retransmitting, or about to); acknowledge a completed
	// return message cumulatively behind the delayed-ack bound, giving
	// it a chance to piggyback on the next call to the same peer
	// instead of occupying its own datagram; let a completed call
	// message be acknowledged implicitly by the forthcoming return
	// (§4.2.4's postponement), unless the sender asked. A message
	// still parked by backpressure reports ackable() = total-1, so
	// these acks never finalize it.
	urgent := h.pleaseAck || gap
	if urgent || (deliveredNow && h.typ == Return) {
		c.queueAck(s, h.typ, h.callNum, ackNum, total, urgent)
	}
}

// deliverLocked assembles a completed inbound message (once) and
// offers it to the incoming queue without blocking. On refusal the
// assembled message stays parked in the transfer for the next attempt
// and the drop is counted; the caller emits the trace event outside
// the session lock. The msg.delivered event is emitted on the first
// completion only — before anything the receiver could do in response
// — so redelivery attempts never duplicate it. Caller holds the
// session lock.
func (c *Conn) deliverLocked(in *inTransfer, from transport.Addr, typ MsgType, callNum uint32) (delivered, dropped bool) {
	if !in.announced {
		if in.total == 1 {
			// Single segment: hand the payload up as-is, moving any
			// pooled-buffer reference into the message itself.
			in.assembled = in.segs[1]
			in.justBuf = in.bufs[1]
			in.bufs[1] = nil
		} else {
			size := 0
			for i := 1; i <= in.total; i++ {
				size += len(in.segs[i])
			}
			buf := make([]byte, 0, size)
			for i := 1; i <= in.total; i++ {
				buf = append(buf, in.segs[i]...)
			}
			in.assembled = buf
		}
		for i := 1; i <= in.total; i++ {
			in.segs[i] = []byte{} // free the payload, keep "seen"
			if b := in.bufs[i]; b != nil {
				b.Release() // multi-segment: payload copied out above
				in.bufs[i] = nil
			}
		}
		in.announced = true
		if c.tr.EnabledFor(trace.KindMsgDelivered) {
			c.tr.Emit(trace.Event{Kind: trace.KindMsgDelivered, Peer: from,
				MsgType: uint8(typ), CallNum: callNum, N: in.total})
		}
	}
	msg := Message{From: from, Type: typ, CallNum: callNum,
		Data: in.assembled, buf: in.justBuf}
	select {
	case c.incoming <- msg:
		in.delivered = true
		in.assembled = nil
		in.justBuf = nil // reference rides in the delivered Message now
		c.stats.messagesDelivered.Add(1)
		return true, false
	default:
		c.stats.deliveryDrops.Add(1)
		return false, true
	}
}

func (c *Conn) traceDrop(from transport.Addr, typ MsgType, callNum uint32) {
	if c.tr.EnabledFor(trace.KindDeliveryDrop) {
		c.tr.Emit(trace.Event{Kind: trace.KindDeliveryDrop, Peer: from,
			MsgType: uint8(typ), CallNum: callNum})
	}
}

// aliveLocked resets the probe miss counters of any watch on this
// call number. Caller holds s.mu.
func (s *session) aliveLocked(callNum uint32) {
	if w, ok := s.watches[mkKey(Call, callNum)]; ok {
		w.missed = 0
	}
}

// retireLocked ends a delivered inbound exchange: a tombstone takes
// over replay suppression, the record goes back to the pool, and a
// delivered return disarms the liveness watch on its call. Caller
// holds s.mu.
func (s *session) retireLocked(k sessKey, in *inTransfer) {
	delete(s.in, k)
	s.completed.Put(uint64(k))
	if in.total != 1 {
		s.completedSegs.Put(k, uint8(in.total))
	}
	recycleInTransfer(in)
	if k.typ() == Return {
		delete(s.watches, mkKey(Call, k.callNum()))
	}
}

// completedLocked reports whether exchange k finished within the
// replay window, and its segment count. Caller holds s.mu.
func (s *session) completedLocked(k sessKey) (total int, ok bool) {
	if _, ok = s.completed.Has(uint64(k)); ok {
		total = 1
		if n, _, multi := s.completedSegs.Get(k); multi {
			total = int(n)
		}
	}
	return total, ok
}

// ackDelay returns how long a non-urgent ack may wait for a segment
// to piggyback on. The bound must sit well below the peer's
// retransmission timeout, or delaying would masquerade as loss: in
// adaptive mode min(MinRTO/2, srtt/4) floored at 100µs, in fixed mode
// RetransmitInterval/8 capped at 5ms. Options.AckDelay overrides.
func (c *Conn) ackDelay(s *session) time.Duration {
	if d := c.opts.AckDelay; d > 0 {
		return d
	}
	if c.opts.Adaptive {
		d := MinRTO / 2
		if srtt := time.Duration(s.srttMicros.Load()) * time.Microsecond; srtt > 0 && srtt/4 < d {
			d = srtt / 4
		}
		if d < 100*time.Microsecond {
			d = 100 * time.Microsecond
		}
		return d
	}
	d := c.opts.RetransmitInterval / 8
	if d > 5*time.Millisecond {
		d = 5 * time.Millisecond
	}
	return d
}

// queueAck records a pending cumulative acknowledgment for one
// exchange, merged by maximum — ackable() only advances, so the
// freshest state subsumes older ones. Urgent acks (probe answers,
// please-ack responses, gap reports) flush at once; the rest wait up
// to ackDelay for an outbound segment to piggyback on, or go out
// together as one cumulative standalone datagram when the timer fires.
func (c *Conn) queueAck(s *session, typ MsgType, callNum uint32, ackNum, total int, urgent bool) {
	if c.opts.AckDelay < 0 {
		urgent = true // delaying disabled: every ack goes out at once
	}
	k := mkKey(typ, callNum)
	s.sendMu.Lock()
	if prev, ok := s.pend[k]; !ok || ackNum > prev.ackNum {
		if ok && prev.total > total {
			total = prev.total
		}
		s.pend[k] = pendAck{ackNum: ackNum, total: total}
	}
	if urgent {
		c.flushOrSchedule(s, false)
		return
	}
	if !s.ackArmed && !s.flushing {
		s.ackArmed = true
		d := c.ackDelay(s)
		if s.ackTimer == nil {
			s.ackTimer = time.AfterFunc(d, func() { c.kickFlush(s, false) })
		} else {
			s.ackTimer.Reset(d)
		}
	}
	s.sendMu.Unlock()
}

// flushOrSchedule decides how queued frames and pending acks leave the
// session: drained by the already-active flusher, deferred briefly to
// gather company (pace — only chosen by callers whose session has
// other transfers in flight, so a serial exchange is never held back),
// or drained now with the caller becoming the flusher.
//
// Pacing waits for a companion, not for the clock: the first paced
// enqueue arms the coalesce-window timer as a backstop, and the next
// paced enqueue — frames from another transfer wanting the same wire —
// flushes both at once. Under concurrent load the wait is therefore
// one inter-arrival gap, not the full window, which keeps the latency
// cost of coalescing near zero while still packing bundles. Caller
// holds s.sendMu, which is released.
func (c *Conn) flushOrSchedule(s *session, pace bool) {
	if s.flushing {
		s.sendMu.Unlock()
		return
	}
	if pace && c.opts.CoalesceWindow > 0 && !s.paceArmed {
		s.paceArmed = true
		if s.paceTimer == nil {
			s.paceTimer = time.AfterFunc(c.opts.CoalesceWindow, func() { c.kickFlush(s, true) })
		} else {
			s.paceTimer.Reset(c.opts.CoalesceWindow)
		}
		s.sendMu.Unlock()
		return
	}
	s.flushing = true
	s.sendMu.Unlock()
	c.flushLoop(s)
}

// kickFlush is the delayed-ack / coalesce timer callback: it starts a
// flush unless one is active, the queue emptied meanwhile, or the Conn
// closed under it.
func (c *Conn) kickFlush(s *session, pace bool) {
	s.sendMu.Lock()
	if pace {
		s.paceArmed = false
	} else {
		s.ackArmed = false
	}
	if c.closed.Load() || s.flushing || (len(s.sendQ) == 0 && len(s.pend) == 0) {
		s.sendMu.Unlock()
		return
	}
	s.flushing = true
	s.sendMu.Unlock()
	c.flushLoop(s)
}

// flushLoop drains the session's send queue and pending acks until
// both are empty, transmitting outside the lock. Exactly one flusher
// runs per session (s.flushing); enqueuers that find it active just
// leave their frames — the single-flusher discipline is also what
// keeps the per-exchange ack sequence monotone on the wire. Work
// enqueued during a transmission is picked up by the next iteration,
// so a burst arriving while the wire is busy coalesces naturally.
func (c *Conn) flushLoop(s *session) {
	var acks []segHeader
	for {
		s.sendMu.Lock()
		if c.closed.Load() {
			s.sendQ = nil
			for k := range s.pend {
				delete(s.pend, k)
			}
		}
		if len(s.sendQ) == 0 && len(s.pend) == 0 {
			s.flushing = false
			s.sendMu.Unlock()
			return
		}
		frames := s.sendQ
		if s.sendSpare != nil {
			s.sendQ = s.sendSpare[:0]
		} else {
			s.sendQ = nil
		}
		s.sendSpare = frames // recycled as the active queue next drain
		acks = acks[:0]
		for k, pa := range s.pend {
			acks = append(acks, segHeader{
				typ:       k.typ(),
				ack:       true,
				totalSegs: uint8(pa.total),
				segNum:    uint8(pa.ackNum),
				callNum:   k.callNum(),
			})
			delete(s.pend, k)
		}
		if s.ackArmed {
			s.ackTimer.Stop()
			s.ackArmed = false
		}
		if s.paceArmed {
			s.paceTimer.Stop()
			s.paceArmed = false
		}
		s.sendMu.Unlock()
		c.transmitFrames(s.peer, acks, frames)
		// The transport has consumed every frame: drop the wire
		// references (freeing pooled backings whose transfers already
		// ended) and clear the recycled slice's stale payload pointers.
		for i := range frames {
			t := frames[i].t
			frames[i] = outFrame{}
			if t != nil {
				t.wireDone()
			}
		}
	}
}

// completeOutLocked finishes an outbound transfer: an observed call
// that failed is reported, one that was acknowledged moves to the watch
// table until its return is delivered. Caller holds the session lock
// of t's peer.
func (c *Conn) completeOutLocked(s *session, t *outTransfer, err error) {
	k := mkKey(t.typ, t.callNum)
	if s.out[k] != t {
		return
	}
	delete(s.out, k)
	t.endWire()
	if err == nil && c.opts.Adaptive && !t.retx && !t.firstSent.IsZero() {
		// Karn's rule: only exchanges that were never retransmitted
		// yield an unambiguous round-trip sample.
		rtt := time.Since(t.firstSent)
		s.rtt.sample(rtt)
		s.srttMicros.Store(s.rtt.srtt.Microseconds())
		if c.tr.EnabledFor(trace.KindRTTSample) {
			c.tr.Emit(trace.Event{Kind: trace.KindRTTSample, Peer: t.peer,
				MsgType: uint8(t.typ), CallNum: t.callNum, Dur: rtt})
		}
	}
	if err == ErrPeerDown && c.tr.EnabledFor(trace.KindCrashSuspect) {
		c.tr.Emit(trace.Event{Kind: trace.KindCrashSuspect, Peer: t.peer,
			MsgType: uint8(t.typ), CallNum: t.callNum,
			Attempt: t.attempts, Err: err.Error(), Detail: "retry exhaustion"})
	}
	t.err = err
	switch {
	case t.obs == nil:
		close(t.done)
	case err != nil:
		t.obs.CallFailed(err)
	default:
		t.missed = 0
		t.nextProbe = time.Now().Add(c.opts.ProbeInterval)
		s.watches[k] = t
	}
}

// timerLoop drives retransmission, probing, and replay-record expiry.
func (c *Conn) timerLoop() {
	defer c.wg.Done()
	tick := c.opts.RetransmitInterval / 4
	if p := c.opts.ProbeInterval / 4; p < tick {
		tick = p
	}
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
			c.timerPass()
		}
	}
}

func (c *Conn) timerPass() {
	for _, s := range *c.peers.Load() {
		c.timerPassSession(s)
	}
}

// timerPassSession runs one retransmission/probe/expiry pass over a
// single peer session. Segment references are collected under the
// session lock and enqueued for transmission outside it; stored
// segments are never mutated after creation, so reading them unlocked
// is safe — the flusher stamps the please-ack bit onto the transmitted
// copy. Everything a pass produces for one peer — retransmissions for
// k transfers, probes, any pending acks — leaves in one coalesced
// flush, so a tick costs one datagram per peer instead of one per
// segment.
func (c *Conn) timerPassSession(s *session) {
	var frames []outFrame

	s.mu.Lock()
	// Clock read under the lock, not at the tick: the previous
	// session's sends run before this one's collection, and the
	// conformance checker derives retransmit gaps from trace
	// timestamps — scheduling against a clock reading older than the
	// emitted stamps would make legitimately-paced retransmits look
	// faster than the RTO floor.
	now := time.Now()
	for _, t := range s.out {
		if now.Before(t.nextSend) {
			continue
		}
		t.attempts++
		if c.opts.Adaptive {
			// Crash declaration is bounded by wall time, not pass
			// count, so exponential backoff cannot delay detection.
			if now.After(t.deadline) {
				c.completeOutLocked(s, t, ErrPeerDown)
				continue
			}
			t.retx = true
			t.rto = min(2*t.rto, c.opts.maxRTO())
			// Backoff means a non-increasing retransmission rate until
			// progress: if scheduling stalls stretched the gap actually
			// kept beyond the RTO, don't speed back up — schedule the
			// next retransmit no sooner than that observed gap.
			interval := t.rto
			if !t.lastRetx.IsZero() {
				if kept := now.Sub(t.lastRetx); kept > interval {
					interval = kept
				}
			}
			t.nextSend = now.Add(interval)
			t.lastRetx = now
		} else {
			if t.attempts > c.opts.MaxRetries {
				c.completeOutLocked(s, t, ErrPeerDown)
				continue
			}
			t.nextSend = now.Add(c.opts.RetransmitInterval)
		}
		// Retransmit the first unacknowledged segment with please-ack
		// set (§4.2.2), or all of them under RetransmitAll (§4.2.4).
		last := t.acked + 1
		if c.opts.Strategy == RetransmitAll {
			last = len(t.segs)
		}
		nsegs := 0
		for i := t.acked + 1; i <= last && i <= len(t.segs); i++ {
			t.wireRefs.Add(1)
			frames = append(frames, outFrame{seg: t.segs[i-1], pa: true, t: t})
			nsegs++
		}
		c.stats.retransmits.Add(int64(nsegs))
		c.stats.segmentsSent.Add(int64(nsegs))
		// Stamped with the pass's own clock reading — the one nextSend
		// was checked and rescheduled against — so the conformance
		// checker's gap computation sees the schedule the timer kept,
		// not jitter from lock waits or sink contention.
		if c.tr.EnabledFor(trace.KindSegRetransmit) {
			c.tr.Emit(trace.Event{Kind: trace.KindSegRetransmit, T: now,
				Peer: s.peer, MsgType: uint8(t.typ), CallNum: t.callNum,
				Attempt: t.attempts, N: nsegs})
		}
	}
	for k, w := range s.watches {
		if now.Before(w.nextProbe) {
			continue
		}
		w.nextProbe = now.Add(c.opts.ProbeInterval)
		w.missed++
		if w.missed > c.opts.ProbeMissLimit {
			if c.tr.Enabled() {
				c.tr.Emit(trace.Event{Kind: trace.KindCrashSuspect,
					Peer: s.peer, MsgType: uint8(k.typ()), CallNum: k.callNum(),
					Attempt: w.missed - 1, Detail: "probe misses"})
			}
			delete(s.watches, k)
			w.obs.CallFailed(ErrPeerDown)
			continue
		}
		c.stats.probesSent.Add(1)
		frames = append(frames, outFrame{h: segHeader{
			typ:       k.typ(),
			pleaseAck: true,
			callNum:   k.callNum(),
		}, probe: true})
	}
	// Expire the oldest generation of completed-exchange records: a
	// record lives between one and one and a half CompletedTTL, after
	// which delayed duplicates can no longer arrive (§4.2.4).
	if !now.Before(s.nextRotate) {
		s.nextRotate = now.Add(c.opts.CompletedTTL / 2)
		s.completed.Rotate()
		s.completedSegs.Rotate()
	}
	s.mu.Unlock()

	if len(frames) > 0 {
		// Never paced: a retransmission is already late by one RTO, and
		// the whole pass coalesces per peer in this single flush.
		s.sendMu.Lock()
		s.sendQ = append(s.sendQ, frames...)
		c.flushOrSchedule(s, false)
	}
}
