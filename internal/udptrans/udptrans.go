// Package udptrans provides a transport.Endpoint backed by real UDP
// sockets, the same substrate the Circus implementation used under
// Berkeley 4.2BSD (§4.2). It exists so that the protocol stack can be
// exercised between genuine operating-system processes on one machine
// (the paper's repro band: multi-process on one laptop); the test
// suites mostly use internal/netsim for determinism.
//
// There is one path: socket → drain goroutine → handler. The
// endpoint's one drain goroutine pulls bursts of datagrams into pooled
// buffers (recvmmsg on 64-bit Linux, one read per datagram elsewhere)
// and hands each to the consumer itself; the kernel's socket buffer is
// the only queue. Batched sends are one sendmmsg (a write loop
// elsewhere).
package udptrans

import (
	"encoding/binary"
	"fmt"
	"net"
	"net/netip"
	"sync/atomic"
	"syscall"

	"circus/internal/transport"
)

// Endpoint is a transport.Endpoint over one loopback UDP socket,
// drained by one goroutine, so every datagram is delivered in the
// order the kernel queued it.
type Endpoint struct {
	conn *net.UDPConn
	raw  syscall.RawConn // for sendmmsg/recvmmsg on platforms that have them
	addr transport.Addr
	recv chan transport.Packet

	// handler, once set, takes delivery exclusively (transport.Dispatcher).
	handler atomic.Pointer[func(transport.Packet)]

	drained chan struct{} // closed when the drain goroutine returns
	closed  atomic.Bool
}

// pool recycles receive buffers across every endpoint of the process
// (sync.Pool underneath is per-processor already), so a short-lived
// endpoint starts on its predecessors' buffers.
var pool transport.BufPool

var (
	_ transport.Endpoint    = (*Endpoint)(nil)
	_ transport.BatchSender = (*Endpoint)(nil)
	_ transport.Multicaster = (*Endpoint)(nil)
	_ transport.Dispatcher  = (*Endpoint)(nil)
)

// Listen binds one UDP socket on 127.0.0.1. Port 0 selects a free port.
func Listen(port uint16) (*Endpoint, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: int(port)})
	if err != nil {
		return nil, err
	}
	raw, err := conn.SyscallConn()
	if err != nil {
		conn.Close()
		return nil, err
	}
	ap := conn.LocalAddr().(*net.UDPAddr).AddrPort()
	a, ok := toAddr(ap)
	if !ok {
		conn.Close()
		return nil, fmt.Errorf("udptrans: %v is not an IPv4 address", ap.Addr())
	}
	// 1024: a Recv() consumer gets about the slack a default kernel
	// socket buffer gives a handler, a few hundred small datagrams.
	e := &Endpoint{conn: conn, raw: raw, addr: a,
		recv: make(chan transport.Packet, 1024), drained: make(chan struct{})}
	go e.drain()
	return e, nil
}

// toAddr converts a UDP address to the transport's 32-bit-host form;
// ok is false for anything that is not IPv4: transport.Addr cannot
// represent a 16-byte address, and the AF_INET sockaddr encoding on
// the batch send path would silently truncate it.
func toAddr(ap netip.AddrPort) (a transport.Addr, ok bool) {
	ip := ap.Addr().Unmap()
	if !ip.Is4() {
		return transport.Addr{}, false
	}
	ip4 := ip.As4()
	return transport.Addr{Host: binary.BigEndian.Uint32(ip4[:]), Port: ap.Port()}, true
}

func toAddrPort(a transport.Addr) netip.AddrPort {
	var ip4 [4]byte
	binary.BigEndian.PutUint32(ip4[:], a.Host)
	return netip.AddrPortFrom(netip.AddrFrom4(ip4), a.Port)
}

// Addr returns the bound loopback address.
func (e *Endpoint) Addr() transport.Addr { return e.addr }

// Recv returns the incoming datagram channel; unused once a Dispatcher
// handler is installed.
func (e *Endpoint) Recv() <-chan transport.Packet { return e.recv }

// SetHandler installs fn as the exclusive delivery path
// (transport.Dispatcher). The drain goroutine invokes fn one packet at
// a time, in arrival order.
func (e *Endpoint) SetHandler(fn func(transport.Packet)) {
	e.handler.Store(&fn)
}

// deliver hands one packet up from the drain goroutine: to the
// handler if one is installed, else to the Recv channel without
// blocking. While the consumer works the kernel queues what follows;
// when either queue is full the datagram is dropped and the paired
// message protocol recovers by retransmission.
func (e *Endpoint) deliver(pkt transport.Packet) {
	if h := e.handler.Load(); h != nil {
		(*h)(pkt)
		return
	}
	select {
	case e.recv <- pkt:
	default:
		pkt.Buf.Release()
	}
}

// check validates one outbound datagram. The zero Addr is the only
// value of transport.Addr the AF_INET wire encoding cannot carry
// (every non-zero Host/Port pair is a valid IPv4 destination), and
// sending to it would otherwise surface as the kernel's cryptic EINVAL
// — or, on the batch path, as a datagram to 0.0.0.0.
func check(to transport.Addr, data []byte) error {
	if len(data) > transport.MaxDatagram {
		return transport.ErrTooLarge
	}
	if to.IsZero() {
		return fmt.Errorf("udptrans: cannot encode %v as an AF_INET destination", to)
	}
	return nil
}

// Send transmits one UDP datagram.
func (e *Endpoint) Send(to transport.Addr, data []byte) error {
	if err := check(to, data); err != nil {
		return err
	}
	if e.closed.Load() {
		return transport.ErrClosed
	}
	_, err := e.conn.WriteToUDPAddrPort(data, toAddrPort(to))
	return err
}

// SendBatch transmits several datagrams in as few system calls as the
// platform allows: one sendmmsg(2) per batch on 64-bit Linux, a write
// loop elsewhere. The paper's cost accounting (Table 4.2) charges each
// datagram a full sendmsg; batching the coalesced flush of the paired
// message layer amortizes that per-call overhead.
func (e *Endpoint) SendBatch(dgrams []transport.Datagram) error {
	for i := range dgrams {
		if err := check(dgrams[i].To, dgrams[i].Data); err != nil {
			return err
		}
	}
	if e.closed.Load() {
		return transport.ErrClosed
	}
	return e.sendBatch(dgrams)
}

// Multicast sends data to every group member; UDP has no true
// multicast primitive here, so this is a batched unicast fan-out
// (§4.3.3's software multicast), one kernel crossing via SendBatch.
func (e *Endpoint) Multicast(group []transport.Addr, data []byte) error {
	dgrams := make([]transport.Datagram, len(group))
	for i, to := range group {
		dgrams[i] = transport.Datagram{To: to, Data: data}
	}
	return e.SendBatch(dgrams)
}

// Close shuts the socket and waits for the drain goroutine to observe
// it, so the Dispatcher handler is never invoked after Close returns;
// then the Recv channel closes.
func (e *Endpoint) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	err := e.conn.Close()
	<-e.drained
	close(e.recv)
	return err
}

// ListenSharded is Listen for shards == 1 and an error for any other
// count: an endpoint owns one socket. Like UsingIOUring, it is kept
// only because benchmark/probes.go, frozen for this change, calls it;
// the next [benchmark] PR removes the call and this function with it.
func ListenSharded(port uint16, shards int) (*Endpoint, error) {
	if shards != 1 {
		return nil, fmt.Errorf("udptrans: %d sockets requested; an endpoint owns one", shards)
	}
	return Listen(port)
}

// UsingIOUring is kept only because benchmark/probes.go, frozen for
// this change, calls it; the io_uring sender is gone. The next
// [benchmark] PR removes the call and this method with it.
func (e *Endpoint) UsingIOUring() bool { return false }
