//go:build linux && (amd64 || arm64)

package udptrans

import (
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"

	"circus/internal/transport"
)

// Batched datagram I/O via sendmmsg(2)/recvmmsg(2). Each coalesced
// flush from the paired message layer becomes one system call instead
// of one per datagram, and the drain loop empties bursts in one call.
// Restricted to 64-bit Linux where syscall.Msghdr matches the kernel's
// struct msghdr layout (32-bit ABIs differ).

// recvBatchSize is how many datagrams one recvmmsg call may drain.
const recvBatchSize = 16

// mmsghdr mirrors the kernel's struct mmsghdr: a msghdr plus the
// returned datagram length, padded to an 8-byte boundary.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// putSockaddr fills sa with the AF_INET form of a; port and host are
// stored big-endian as the kernel expects. Every transport.Addr is
// encodable — Host is a 32-bit IPv4 address by construction — except
// the zero Addr, which Send/SendBatch reject (see check) before
// any sockaddr is built, so a datagram can never silently go to
// 0.0.0.0. (IPv6 peers cannot reach this encoding at all: toAddr
// refuses to shrink a 16-byte address into Host.)
func putSockaddr(sa *syscall.RawSockaddrInet4, a transport.Addr) {
	sa.Family = syscall.AF_INET
	p := (*[2]byte)(unsafe.Pointer(&sa.Port))
	p[0] = byte(a.Port >> 8)
	p[1] = byte(a.Port)
	sa.Addr[0] = byte(a.Host >> 24)
	sa.Addr[1] = byte(a.Host >> 16)
	sa.Addr[2] = byte(a.Host >> 8)
	sa.Addr[3] = byte(a.Host)
}

// fromSockaddr is putSockaddr's inverse for received datagrams; ok is
// false for a non-IPv4 source, which the caller skips (the transport
// cannot name such a peer, so no protocol above could reply to it).
func fromSockaddr(sa *syscall.RawSockaddrInet4) (transport.Addr, bool) {
	if sa.Family != syscall.AF_INET {
		return transport.Addr{}, false
	}
	return transport.Addr{
		Host: uint32(sa.Addr[0])<<24 | uint32(sa.Addr[1])<<16 |
			uint32(sa.Addr[2])<<8 | uint32(sa.Addr[3]),
		Port: uint16(sa.Port>>8) | uint16(sa.Port)<<8,
	}, true
}

// sendBatchMax is the largest batch a pooled sendScratch holds; the
// paired message layer's coalesced flushes are far smaller.
const sendBatchMax = 16

// sendScratch is the kernel-facing state of one sendmmsg batch. It is
// pooled, and its write callback bound once, so a warm batch of up to
// sendBatchMax datagrams allocates nothing.
type sendScratch struct {
	sasArr  [sendBatchMax]syscall.RawSockaddrInet4
	iovsArr [sendBatchMax]syscall.Iovec
	hdrsArr [sendBatchMax]mmsghdr
	sas     []syscall.RawSockaddrInet4 // the arrays, or larger ones for a larger batch
	iovs    []syscall.Iovec
	batch   []mmsghdr // the headers being sent
	sent    int
	err     error
	calls   *atomic.Int64         // the endpoint's sendCalls
	write   func(fd uintptr) bool // s.sendmmsg
}

var sendScratches = sync.Pool{New: func() any {
	s := new(sendScratch)
	s.write = s.sendmmsg
	return s
}}

// scratch takes a pooled sendScratch sized for n datagrams.
func (e *Endpoint) scratch(n int) *sendScratch {
	s := sendScratches.Get().(*sendScratch)
	if n <= sendBatchMax {
		s.sas, s.iovs, s.batch = s.sasArr[:n], s.iovsArr[:n], s.hdrsArr[:n]
	} else {
		s.sas = make([]syscall.RawSockaddrInet4, n)
		s.iovs = make([]syscall.Iovec, n)
		s.batch = make([]mmsghdr, n)
	}
	s.calls = &e.sendCalls
	return s
}

// put addresses datagram i of the batch: data to to.
func (s *sendScratch) put(i int, to transport.Addr, data []byte) {
	putSockaddr(&s.sas[i], to)
	s.iovs[i] = syscall.Iovec{}
	if len(data) > 0 {
		s.iovs[i].Base = &data[0]
	}
	s.iovs[i].SetLen(len(data))
	h := &s.batch[i].hdr
	h.Name = (*byte)(unsafe.Pointer(&s.sas[i]))
	h.Namelen = uint32(unsafe.Sizeof(s.sas[i]))
	h.Iov = &s.iovs[i]
	h.Iovlen = 1
}

// sendBatch transmits the datagrams with as few sendmmsg calls as the
// socket buffer allows, waiting for writability between partial sends.
// Every message carries its own destination, so a flush to mixed
// peers is still one call.
func (e *Endpoint) sendBatch(dgrams []transport.Datagram) error {
	s := e.scratch(len(dgrams))
	for i := range dgrams {
		s.put(i, dgrams[i].To, dgrams[i].Data)
	}
	return e.send(s)
}

// multicast is sendBatch of data to every member of group.
func (e *Endpoint) multicast(group []transport.Addr, data []byte) error {
	s := e.scratch(len(group))
	for i, to := range group {
		s.put(i, to, data)
	}
	return e.send(s)
}

// send transmits the batch s was filled with and pools s again.
func (e *Endpoint) send(s *sendScratch) error {
	s.sent, s.err = 0, nil
	err := e.raw.Write(s.write)
	if err == nil {
		err = s.err
	}
	// Drop the references to the caller's buffers before pooling.
	clear(s.iovsArr[:])
	s.sas, s.iovs, s.batch, s.err = nil, nil, nil, nil
	sendScratches.Put(s)
	return err
}

// sendmmsg is the raw write callback: it sends the rest of s.batch,
// reporting false to wait for writability after a partial send.
func (s *sendScratch) sendmmsg(fd uintptr) bool {
	for s.sent < len(s.batch) {
		s.calls.Add(1)
		n, _, errno := syscall.Syscall6(sysSENDMMSG, fd,
			uintptr(unsafe.Pointer(&s.batch[s.sent])), uintptr(len(s.batch)-s.sent), 0, 0, 0)
		if errno == syscall.EAGAIN {
			return false // wait for writability, then resume
		}
		if errno != 0 {
			s.err = errno
			return true
		}
		s.sent += int(n)
	}
	return true
}

// recvBatch is the endpoint's receive state for one recvmmsg drain
// loop: a window of pooled buffers the kernel scatters datagrams into.
// Handed-off buffers are replaced from the pool slot by slot, so a
// drained burst costs zero allocations once the pool is warm.
type recvBatch struct {
	bufs [recvBatchSize]*transport.Buf
	sas  [recvBatchSize]syscall.RawSockaddrInet4
	iovs [recvBatchSize]syscall.Iovec
	hdrs [recvBatchSize]mmsghdr
	idle *atomic.Int64 // counts recvmmsg calls that found the queue empty
}

func (rb *recvBatch) init() {
	for i := range rb.hdrs {
		rb.bufs[i] = pool.Get()
		rb.iovs[i].Base = &rb.bufs[i].Bytes()[0]
		rb.iovs[i].SetLen(transport.MaxDatagram)
		h := &rb.hdrs[i].hdr
		h.Name = (*byte)(unsafe.Pointer(&rb.sas[i]))
		h.Iov = &rb.iovs[i]
		h.Iovlen = 1
	}
}

// recv receives batches of up to recvBatchSize datagrams, one
// recvmmsg call each, handing slot i of each batch to deliver (which
// reads it via take), and blocks in the runtime poller while the
// socket is empty. It returns after a full batch, so that the caller
// calls again and a closed socket ends the loop, after a receive error
// other than EAGAIN, which the caller retries as well, and with an
// error once the socket is closed.
//
// A short batch found the queue empty, so the callback goes straight
// back to the poller instead of calling recvmmsg again only to get
// EAGAIN. That is safe inside one raw.Read: the poller is
// edge-triggered and only raw.Read's start clears its readiness, so a
// datagram that arrived since the short batch has already marked the
// socket ready and the wait returns at once.
func (rb *recvBatch) recv(raw syscall.RawConn, deliver func(i int)) error {
	return raw.Read(func(fd uintptr) bool {
		// Namelen is value-result; reset before every call.
		for i := range rb.hdrs {
			rb.hdrs[i].hdr.Namelen = uint32(unsafe.Sizeof(rb.sas[i]))
		}
		n, _, errno := syscall.Syscall6(sysRECVMMSG, fd,
			uintptr(unsafe.Pointer(&rb.hdrs[0])), recvBatchSize,
			syscall.MSG_DONTWAIT, 0, 0)
		if errno == syscall.EAGAIN {
			rb.idle.Add(1)
			return false // block in the poller until readable
		}
		if errno != 0 {
			return true
		}
		for i := 0; i < int(n); i++ {
			deliver(i)
		}
		return n == recvBatchSize
	})
}

// take hands slot i's datagram to the caller as a pooled-buffer packet
// (the caller inherits the buffer's reference) and re-arms the slot
// with a fresh buffer. ok is false for an undeliverable (non-IPv4)
// source; the slot keeps its buffer for the next drain.
func (rb *recvBatch) take(i int, to transport.Addr) (pkt transport.Packet, ok bool) {
	from, ok := fromSockaddr(&rb.sas[i])
	if !ok {
		return transport.Packet{}, false
	}
	n := int(rb.hdrs[i].n)
	if n > transport.MaxDatagram {
		n = transport.MaxDatagram
	}
	buf := rb.bufs[i]
	rb.bufs[i] = pool.Get()
	rb.iovs[i].Base = &rb.bufs[i].Bytes()[0]
	return transport.Packet{From: from, To: to, Data: buf.Bytes()[:n], Buf: buf}, true
}

// release returns the window's unconsumed buffers to the pool when the
// drain loop exits.
func (rb *recvBatch) release() {
	for i, b := range rb.bufs {
		if b != nil {
			b.Release()
			rb.bufs[i] = nil
		}
	}
}

// drain is the endpoint's receive goroutine: recvmmsg bursts into
// pooled buffers, each handed straight to the consumer. It returns
// when the socket is closed.
func (e *Endpoint) drain() {
	defer close(e.drained)
	rb := recvBatch{idle: &e.idleRecvs}
	rb.init()
	defer rb.release()
	deliver := func(i int) {
		if pkt, ok := rb.take(i, e.addr); ok {
			e.deliver(pkt)
		}
	}
	for rb.recv(e.raw, deliver) == nil {
	}
}
