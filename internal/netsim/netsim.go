// Package netsim is an in-memory simulated internet.
//
// It stands in for the Berkeley research internet of §4.4.1 (six
// VAX-11/750s on one 10 Mb/s Ethernet): a datagram network whose
// packets may be lost, delayed, duplicated and reordered, and whose
// machines may crash (fail-stop, §2.1.1) or be partitioned from one
// another (§4.3.5). All fault injection is controlled and
// deterministic given a seed, which makes the protocol test suites
// reproducible in a way the 1985 testbed never was.
package netsim

import (
	"math/rand"
	"sync"
	"time"

	"circus/internal/precise"
	"circus/internal/transport"
)

// LinkConfig describes the behaviour of datagram delivery.
type LinkConfig struct {
	// LossRate is the probability in [0,1] that a datagram is dropped.
	LossRate float64
	// DupRate is the probability in [0,1] that a datagram is delivered
	// twice.
	DupRate float64
	// MinDelay and MaxDelay bound the uniformly distributed one-way
	// propagation delay. Zero means immediate delivery.
	MinDelay time.Duration
	MaxDelay time.Duration
	// BitsPerSecond, when nonzero, adds per-datagram serialization
	// delay of size/bandwidth — the 10 Mb/s Ethernet of §4.4.1 puts a
	// 1472-byte datagram on the wire in about 1.2 ms.
	BitsPerSecond int64
}

// Stats counts network activity. The replicated procedure call
// experiments (§4.3.3) compare datagram counts between repeated
// unicast (m·n) and multicast (m+n) implementations, so send
// operations and datagrams are counted separately.
type Stats struct {
	SendOps    int64 // Send and Multicast calls (the "sendmsg" count)
	Datagrams  int64 // individual datagrams put on the wire
	Delivered  int64
	Dropped    int64 // lost by fault injection, partition, crash or overflow
	Duplicated int64
	BytesSent  int64
}

// Network is a simulated internet. The zero value is not usable; call
// New.
type Network struct {
	mu        sync.Mutex
	rng       *rand.Rand
	link      LinkConfig
	perPair   map[[2]uint32]LinkConfig
	endpoints map[transport.Addr]*Endpoint
	nextHost  uint32
	nextPort  map[uint32]uint16
	crashed   map[uint32]bool
	txBusy    map[uint32]time.Time // per-host transmitter busy-until (bandwidth model)
	partition map[uint32]int       // host -> group; absent means group 0
	split     bool
	capture   func(transport.Packet) bool
	stats     Stats

	// Datagrams on a link with delay wait in queue, a min-heap by due
	// time and then send order, for the one delivery goroutine that
	// runs while the queue is not empty (deliverLoop). While it waits,
	// timer is set for wake, the earliest due time it has seen.
	queue      []delayed
	sent       uint64 // send sequence, the tie-break at equal due times
	delivering bool
	timer      *precise.Timer
	wake       time.Time
}

// New creates a network whose fault injection is driven by seed.
// The default link is perfect (no loss, no delay); tests and
// experiments configure faults explicitly via SetLink.
func New(seed int64) *Network {
	return &Network{
		rng:       rand.New(rand.NewSource(seed)),
		perPair:   make(map[[2]uint32]LinkConfig),
		endpoints: make(map[transport.Addr]*Endpoint),
		nextPort:  make(map[uint32]uint16),
		crashed:   make(map[uint32]bool),
		txBusy:    make(map[uint32]time.Time),
		partition: make(map[uint32]int),
	}
}

// SetLink sets the default link behaviour for all host pairs.
func (n *Network) SetLink(cfg LinkConfig) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.link = cfg
}

// SetLinkBetween overrides link behaviour for the unordered host pair
// (a, b).
func (n *Network) SetLinkBetween(a, b uint32, cfg LinkConfig) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.perPair[pairKey(a, b)] = cfg
}

func pairKey(a, b uint32) [2]uint32 {
	if a > b {
		a, b = b, a
	}
	return [2]uint32{a, b}
}

// NewHost allocates a fresh machine with an independent failure mode
// (§3.5.1: troupe members execute on machines that fail
// independently) and returns its host ID.
func (n *Network) NewHost() uint32 {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nextHost++
	// Host IDs start at 0x0a000001 ("10.0.0.1") so that the zero Addr
	// stays invalid and addresses print like internet addresses.
	id := 0x0a000000 + n.nextHost
	n.nextPort[id] = 1024
	return id
}

// Crash fail-stops a host: all its endpoints stop sending and
// receiving until Restart. Queued undelivered datagrams to it are
// dropped on arrival.
func (n *Network) Crash(host uint32) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.crashed[host] = true
}

// Restart clears the crashed state of a host. Endpoints bound before
// the crash resume working; the paper's model (§6.4) instead creates a
// fresh process, which callers model by binding new endpoints.
func (n *Network) Restart(host uint32) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.crashed, host)
}

// Crashed reports whether host is currently fail-stopped.
func (n *Network) Crashed(host uint32) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.crashed[host]
}

// Partition splits the network into the given groups of hosts; hosts
// in different groups cannot exchange datagrams (§4.3.5). Hosts not
// named fall into group 0 together with any hosts of groups[0].
func (n *Network) Partition(groups ...[]uint32) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partition = make(map[uint32]int)
	for i, g := range groups {
		for _, h := range g {
			n.partition[h] = i
		}
	}
	n.split = true
}

// Heal removes any partition.
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partition = make(map[uint32]int)
	n.split = false
}

// Stats returns a snapshot of the network counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// ResetStats zeroes the network counters.
func (n *Network) ResetStats() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats = Stats{}
}

// SetCapture installs a capture hook for deterministic schedule
// exploration: fn sees every datagram at the moment of transmission,
// before fault injection, and returning true claims it — the datagram
// goes nowhere until (unless) the holder re-injects it with Inject.
// fn runs with the network lock held, so it must not call back into
// the network. A nil fn uninstalls the hook.
func (n *Network) SetCapture(fn func(transport.Packet) bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.capture = fn
}

// Inject delivers a previously captured datagram now, bypassing fault
// injection and the capture hook. The usual destination rules still
// apply: a crashed or partitioned destination drops it.
func (n *Network) Inject(pkt transport.Packet) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.deliverLocked(pkt)
}

// recvBuffer is the per-endpoint incoming queue length; datagrams
// arriving at a full queue are dropped, like a full socket buffer.
const recvBuffer = 4096

// Endpoint is a simulated datagram socket bound to one host and port.
// Delivered datagrams wait on its receive channel: for Recv's reader,
// or for the one goroutine SetHandler starts to drain it into the
// handler.
type Endpoint struct {
	net     *Network
	addr    transport.Addr
	recv    chan transport.Packet
	drained chan struct{} // closed when the drain goroutine returns; guarded by net.mu
	closed  bool          // guarded by net.mu
}

var (
	_ transport.Endpoint    = (*Endpoint)(nil)
	_ transport.Multicaster = (*Endpoint)(nil)
	_ transport.BatchSender = (*Endpoint)(nil)
)

// Listen binds a new endpoint on host. Port 0 selects an unused port.
func (n *Network) Listen(host uint32, port uint16) (*Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if port == 0 {
		for {
			port = n.nextPort[host]
			n.nextPort[host]++
			if _, used := n.endpoints[transport.Addr{Host: host, Port: port}]; !used {
				break
			}
		}
	}
	addr := transport.Addr{Host: host, Port: port}
	if _, used := n.endpoints[addr]; used {
		return nil, errAddrInUse
	}
	ep := &Endpoint{
		net:  n,
		addr: addr,
		recv: make(chan transport.Packet, recvBuffer),
	}
	n.endpoints[addr] = ep
	return ep, nil
}

var errAddrInUse = transportError("address already in use")

type transportError string

func (e transportError) Error() string { return "netsim: " + string(e) }

// Addr returns the bound address.
func (e *Endpoint) Addr() transport.Addr { return e.addr }

// Recv returns the incoming datagram channel, for readers that install
// no handler.
func (e *Endpoint) Recv() <-chan transport.Packet { return e.recv }

// SetHandler installs fn as the exclusive delivery path: it starts one
// goroutine that drains the receive channel into fn, one packet at a
// time in arrival order. Call it at most once.
func (e *Endpoint) SetHandler(fn func(transport.Packet)) {
	n := e.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if !e.closed {
		e.drained = make(chan struct{})
		go e.drain(fn, e.drained)
	}
}

func (e *Endpoint) drain(fn func(transport.Packet), done chan struct{}) {
	defer close(done)
	for pkt := range e.recv {
		fn(pkt)
	}
}

// Close unbinds the endpoint and closes its receive channel. With a
// handler installed, it then waits for the drain goroutine to hand up
// what was queued, so the handler never runs after Close returns;
// Close must not be called from the handler.
func (e *Endpoint) Close() error {
	n := e.net
	n.mu.Lock()
	if !e.closed {
		e.closed = true
		delete(n.endpoints, e.addr)
		close(e.recv)
	}
	drained := e.drained
	n.mu.Unlock()
	if drained != nil {
		<-drained
	}
	return nil
}

// Send transmits one datagram, subject to the configured link faults.
func (e *Endpoint) Send(to transport.Addr, data []byte) error {
	if len(data) > transport.MaxDatagram {
		return transport.ErrTooLarge
	}
	n := e.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if e.closed {
		return transport.ErrClosed
	}
	n.stats.SendOps++
	n.transmitLocked(e, to, data)
	return nil
}

// SendBatch hands several datagrams to the network in one send
// operation, the simulator's analog of sendmmsg(2): one SendOps
// increment (the "sendmsg" count the paper's Table 4.2 charges per
// system call), while each datagram still counts toward Datagrams and
// faces fault injection independently.
func (e *Endpoint) SendBatch(dgrams []transport.Datagram) error {
	for _, d := range dgrams {
		if len(d.Data) > transport.MaxDatagram {
			return transport.ErrTooLarge
		}
	}
	n := e.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if e.closed {
		return transport.ErrClosed
	}
	n.stats.SendOps++
	for _, d := range dgrams {
		n.transmitLocked(e, d.To, d.Data)
	}
	return nil
}

// Multicast delivers data to every member of group in a single send
// operation (§4.3.3). Fault injection applies independently per
// recipient, matching the paper's assumption that broadcast delivery
// reliability may vary from recipient to recipient (§2.2).
func (e *Endpoint) Multicast(group []transport.Addr, data []byte) error {
	if len(data) > transport.MaxDatagram {
		return transport.ErrTooLarge
	}
	n := e.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if e.closed {
		return transport.ErrClosed
	}
	n.stats.SendOps++
	for _, to := range group {
		n.transmitLocked(e, to, data)
	}
	return nil
}

// pktBufs backs simulated datagrams with pooled storage: a delivery
// copies the payload into a pooled buffer instead of a fresh
// allocation, and the receiver's Release returns it for the next
// datagram (transport.Packet pooled contract). Receivers that never
// release — closed endpoints, dropped queues — just feed the GC.
var pktBufs transport.BufPool

// transmitLocked decides the fate of one datagram. Caller holds n.mu.
func (n *Network) transmitLocked(e *Endpoint, to transport.Addr, data []byte) {
	n.stats.Datagrams++
	n.stats.BytesSent += int64(len(data))
	if n.crashed[e.addr.Host] {
		n.stats.Dropped++
		return
	}
	if n.capture != nil {
		pkt := transport.Packet{From: e.addr, To: to, Data: append([]byte(nil), data...)}
		if n.capture(pkt) {
			return
		}
	}
	cfg := n.link
	if c, ok := n.perPair[pairKey(e.addr.Host, to.Host)]; ok {
		cfg = c
	}
	if n.rng.Float64() < cfg.LossRate {
		n.stats.Dropped++
		return
	}
	copies := 1
	if cfg.DupRate > 0 && n.rng.Float64() < cfg.DupRate {
		copies = 2
		n.stats.Duplicated++
	}
	for i := 0; i < copies; i++ {
		delay := cfg.MinDelay
		if cfg.MaxDelay > cfg.MinDelay {
			delay += time.Duration(n.rng.Int63n(int64(cfg.MaxDelay - cfg.MinDelay)))
		}
		if cfg.BitsPerSecond > 0 {
			// The sender's transmitter is a shared serial resource:
			// back-to-back datagrams queue behind one another, as on
			// the 10 Mb/s Ethernet of §4.4.1.
			tx := time.Duration(int64(len(data)) * 8 * int64(time.Second) / cfg.BitsPerSecond)
			now := time.Now()
			start := now
			if busy := n.txBusy[e.addr.Host]; busy.After(now) {
				start = busy
			}
			done := start.Add(tx)
			n.txBusy[e.addr.Host] = done
			delay += done.Sub(now)
		}
		b := pktBufs.Get()
		nb := copy(b.Bytes(), data)
		pkt := transport.Packet{From: e.addr, To: to, Data: b.Bytes()[:nb], Buf: b}
		if delay <= 0 {
			n.deliverLocked(pkt)
		} else {
			n.enqueueLocked(time.Now().Add(delay), pkt)
		}
	}
}

// A delayed datagram waits in Network.queue until due.
type delayed struct {
	due time.Time
	seq uint64
	pkt transport.Packet
}

func (d *delayed) before(e *delayed) bool {
	return d.due.Before(e.due) || d.due.Equal(e.due) && d.seq < e.seq
}

// enqueueLocked puts a datagram on the wire until due: it starts the
// delivery goroutine if none runs, or moves its wake earlier if this
// datagram is due first. Caller holds n.mu.
func (n *Network) enqueueLocked(due time.Time, pkt transport.Packet) {
	n.sent++
	n.queue = append(n.queue, delayed{due: due, seq: n.sent, pkt: pkt})
	for i := len(n.queue) - 1; i > 0; { // sift up
		p := (i - 1) / 2
		if !n.queue[i].before(&n.queue[p]) {
			break
		}
		n.queue[i], n.queue[p] = n.queue[p], n.queue[i]
		i = p
	}
	switch {
	case !n.delivering:
		n.delivering = true
		go n.deliverLoop()
	case n.timer != nil && due.Before(n.wake):
		n.wake = due
		n.timer.Set(due)
	}
}

// popLocked removes the earliest datagram from the queue. Caller holds
// n.mu.
func (n *Network) popLocked() transport.Packet {
	q := n.queue
	pkt := q[0].pkt
	last := len(q) - 1
	q[0] = q[last]
	q[last] = delayed{}
	q = q[:last]
	for i := 0; ; { // sift down
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && q[c+1].before(&q[c]) {
			c++
		}
		if !q[c].before(&q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	n.queue = q
	return pkt
}

// deliverLoop is the network's one delivery goroutine. It hands every
// due datagram to deliverLocked, in due-time order and in send order
// at equal due times, then waits for the next due time on a precise
// timer, and returns when the queue is empty.
func (n *Network) deliverLoop() {
	t := precise.NewTimer()
	n.mu.Lock()
	n.timer = t
	for {
		now := time.Now()
		for len(n.queue) > 0 && !n.queue[0].due.After(now) {
			n.deliverLocked(n.popLocked())
		}
		if len(n.queue) == 0 {
			break
		}
		if due := n.queue[0].due; !due.Equal(n.wake) {
			n.wake = due
			t.Set(due)
		}
		n.mu.Unlock()
		t.Wait()
		n.mu.Lock()
	}
	n.delivering = false
	n.timer = nil
	n.wake = time.Time{}
	n.mu.Unlock()
	t.Release()
}

// deliverLocked hands a datagram to its destination endpoint if the
// destination is up, reachable and has buffer space; a dropped
// datagram's pooled buffer is released here, the one place every drop
// path funnels through. Caller holds n.mu.
func (n *Network) deliverLocked(pkt transport.Packet) {
	if n.crashed[pkt.To.Host] || n.crashed[pkt.From.Host] {
		n.dropLocked(pkt)
		return
	}
	if n.split && n.partition[pkt.From.Host] != n.partition[pkt.To.Host] {
		n.dropLocked(pkt)
		return
	}
	dst, ok := n.endpoints[pkt.To]
	if !ok || dst.closed {
		n.dropLocked(pkt)
		return
	}
	select {
	case dst.recv <- pkt:
		n.stats.Delivered++
	default:
		n.dropLocked(pkt)
	}
}

func (n *Network) dropLocked(pkt transport.Packet) {
	n.stats.Dropped++
	if pkt.Buf != nil {
		pkt.Buf.Release()
	}
}
