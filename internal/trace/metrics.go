package trace

import (
	"sync"
	"sync/atomic"
	"time"

	"circus/internal/transport"
)

// latencyBuckets is the number of power-of-two call-latency buckets:
// bucket i covers [2^i, 2^(i+1)) microseconds, with the final bucket
// absorbing everything slower (~34s and up).
const latencyBuckets = 26

// Metrics is a sink that aggregates instead of recording: per-kind
// event counters, per-peer wire traffic, per-troupe call counts, and
// a call-latency histogram fed by collation decisions. All hot-path
// updates are atomic adds; the per-peer and per-troupe maps take a
// mutex only on first sight of a key.
type Metrics struct {
	kinds [kindCount]atomic.Int64

	latency [latencyBuckets]atomic.Int64
	calls   atomic.Int64 // collated calls, = sum of latency buckets
	callErr atomic.Int64 // collations that returned an error

	violations atomic.Int64 // monitor-detected invariant breaches

	mu        sync.Mutex
	peers     map[transport.Addr]*PeerCounters
	troupes   map[uint64]*atomic.Int64
	violRules map[string]*atomic.Int64
	tables    func() TableGauges
}

// TableGauges sizes a process's at-most-once state: what it remembers
// so that nothing executes or is delivered twice. These are gauges read
// from the owning layers at snapshot time, not event counts.
type TableGauges struct {
	LiveCalls        int   // core: calls still collating or executing
	CallTombstones   int   // core: finished calls with a buffered return message
	CompletedRecords int64 // pairedmsg: completed exchanges remembered, all peers
}

// SetTableSource installs the function Snapshot reads the table gauges
// from; the process that owns the runtime wires it.
func (m *Metrics) SetTableSource(f func() TableGauges) {
	m.mu.Lock()
	m.tables = f
	m.mu.Unlock()
}

// PeerCounters aggregates wire-level traffic with one peer.
type PeerCounters struct {
	MsgsSent      atomic.Int64 // messages handed to the transport
	Retransmits   atomic.Int64 // segments resent
	AcksSent      atomic.Int64
	ProbesSent    atomic.Int64
	Suspects      atomic.Int64 // times the peer was declared down
	Delivered     atomic.Int64 // messages received fully from the peer
	DupSegments   atomic.Int64
	DeliveryDrops atomic.Int64 // reassembled messages the full incoming queue refused
	SpreadReads   atomic.Int64 // spread reads this peer served alone
}

// NewMetrics returns an empty aggregator.
func NewMetrics() *Metrics {
	return &Metrics{
		peers:     make(map[transport.Addr]*PeerCounters),
		troupes:   make(map[uint64]*atomic.Int64),
		violRules: make(map[string]*atomic.Int64),
	}
}

// ObserveViolation counts one runtime-monitor invariant breach against
// the named invariant. The monitor calls this from its violation
// callback (see monitor.Options.Metrics), so a metrics dashboard shows
// protocol-correctness breaches beside the traffic they occurred in.
func (m *Metrics) ObserveViolation(invariant string) {
	m.violations.Add(1)
	m.mu.Lock()
	c := m.violRules[invariant]
	if c == nil {
		c = &atomic.Int64{}
		m.violRules[invariant] = c
	}
	m.mu.Unlock()
	c.Add(1)
}

// Violations returns the total monitor-breach count.
func (m *Metrics) Violations() int64 { return m.violations.Load() }

func (m *Metrics) peer(a transport.Addr) *PeerCounters {
	m.mu.Lock()
	p := m.peers[a]
	if p == nil {
		p = &PeerCounters{}
		m.peers[a] = p
	}
	m.mu.Unlock()
	return p
}

// Emit aggregates one event.
func (m *Metrics) Emit(e Event) {
	if int(e.Kind) < len(m.kinds) {
		m.kinds[e.Kind].Add(1)
	}
	switch e.Kind {
	case KindMsgSend:
		m.peer(e.Peer).MsgsSent.Add(1)
	case KindSegRetransmit:
		m.peer(e.Peer).Retransmits.Add(int64(e.N))
	case KindAckSend:
		m.peer(e.Peer).AcksSent.Add(1)
	case KindProbeSend:
		m.peer(e.Peer).ProbesSent.Add(1)
	case KindCrashSuspect:
		if !e.Peer.IsZero() {
			m.peer(e.Peer).Suspects.Add(1)
		}
	case KindMsgDelivered:
		m.peer(e.Peer).Delivered.Add(1)
	case KindDupSegment:
		m.peer(e.Peer).DupSegments.Add(1)
	case KindDeliveryDrop:
		m.peer(e.Peer).DeliveryDrops.Add(1)
	case KindSpreadRead:
		if !e.Peer.IsZero() {
			m.peer(e.Peer).SpreadReads.Add(1)
		}
	case KindCollateDone:
		m.calls.Add(1)
		if e.Err != "" {
			m.callErr.Add(1)
		}
		m.latency[latencyBucket(e.Dur)].Add(1)
		if e.Troupe != 0 {
			m.mu.Lock()
			c := m.troupes[e.Troupe]
			if c == nil {
				c = &atomic.Int64{}
				m.troupes[e.Troupe] = c
			}
			m.mu.Unlock()
			c.Add(1)
		}
	}
}

func latencyBucket(d time.Duration) int {
	us := d.Microseconds()
	b := 0
	for us > 1 && b < latencyBuckets-1 {
		us >>= 1
		b++
	}
	return b
}

// LatencyBucketLow returns the inclusive lower bound of histogram
// bucket i.
func LatencyBucketLow(i int) time.Duration {
	return time.Duration(1<<uint(i)) * time.Microsecond
}

// Snapshot is a point-in-time copy of the aggregates.
type Snapshot struct {
	// Kinds maps each event kind to its count (zero entries omitted).
	Kinds map[Kind]int64
	// Peers maps each peer address to its wire counters.
	Peers map[transport.Addr]PeerSnapshot
	// Troupes maps troupe ID to collated-call count.
	Troupes map[uint64]int64
	// Calls and CallErrors count collation decisions and failures.
	Calls      int64
	CallErrors int64
	// Violations counts runtime-monitor invariant breaches, total and
	// per invariant (zero entries omitted).
	Violations     int64
	ViolationRules map[string]int64
	// Latency is the call-latency histogram: Latency[i] counts calls
	// in [LatencyBucketLow(i), LatencyBucketLow(i+1)).
	Latency [latencyBuckets]int64
	// Tables is the at-most-once state held right now (zero unless a
	// table source is installed).
	Tables TableGauges
}

// PeerSnapshot is the plain-value form of PeerCounters.
type PeerSnapshot struct {
	MsgsSent      int64
	Retransmits   int64
	AcksSent      int64
	ProbesSent    int64
	Suspects      int64
	Delivered     int64
	DupSegments   int64
	DeliveryDrops int64
	SpreadReads   int64
}

// Snapshot copies the current aggregates.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Kinds:          make(map[Kind]int64),
		Peers:          make(map[transport.Addr]PeerSnapshot),
		Troupes:        make(map[uint64]int64),
		ViolationRules: make(map[string]int64),
		Calls:          m.calls.Load(),
		CallErrors:     m.callErr.Load(),
		Violations:     m.violations.Load(),
	}
	for k := range m.kinds {
		if v := m.kinds[k].Load(); v != 0 {
			s.Kinds[Kind(k)] = v
		}
	}
	for i := range m.latency {
		s.Latency[i] = m.latency[i].Load()
	}
	m.mu.Lock()
	for a, p := range m.peers {
		s.Peers[a] = PeerSnapshot{
			MsgsSent:      p.MsgsSent.Load(),
			Retransmits:   p.Retransmits.Load(),
			AcksSent:      p.AcksSent.Load(),
			ProbesSent:    p.ProbesSent.Load(),
			Suspects:      p.Suspects.Load(),
			Delivered:     p.Delivered.Load(),
			DupSegments:   p.DupSegments.Load(),
			DeliveryDrops: p.DeliveryDrops.Load(),
			SpreadReads:   p.SpreadReads.Load(),
		}
	}
	for id, c := range m.troupes {
		s.Troupes[id] = c.Load()
	}
	for inv, c := range m.violRules {
		if v := c.Load(); v != 0 {
			s.ViolationRules[inv] = v
		}
	}
	tables := m.tables
	m.mu.Unlock()
	if tables != nil {
		s.Tables = tables() // takes the layers' locks: not under m.mu
	}
	return s
}

// Count returns the count for one kind.
func (m *Metrics) Count(k Kind) int64 {
	if int(k) >= len(m.kinds) {
		return 0
	}
	return m.kinds[k].Load()
}
