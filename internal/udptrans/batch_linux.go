//go:build linux && (amd64 || arm64)

package udptrans

import (
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

// sendBatch transmits the datagrams with as few sendmmsg calls as the
// socket buffer allows, waiting for writability between partial sends.
// Every message carries its own destination, so a flush to mixed
// peers is still one call.
func (e *Endpoint) sendBatch(dgrams []transport.Datagram) error {
	sas := make([]syscall.RawSockaddrInet4, len(dgrams))
	iovs := make([]syscall.Iovec, len(dgrams))
	hdrs := make([]mmsghdr, len(dgrams))
	for i := range dgrams {
		d := &dgrams[i]
		putSockaddr(&sas[i], d.To)
		if len(d.Data) > 0 {
			iovs[i].Base = &d.Data[0]
		}
		iovs[i].SetLen(len(d.Data))
		h := &hdrs[i].hdr
		h.Name = (*byte)(unsafe.Pointer(&sas[i]))
		h.Namelen = uint32(unsafe.Sizeof(sas[i]))
		h.Iov = &iovs[i]
		h.Iovlen = 1
	}
	sent := 0
	var sysErr error
	err := e.raw.Write(func(fd uintptr) bool {
		for sent < len(hdrs) {
			n, _, errno := syscall.Syscall6(sysSENDMMSG, fd,
				uintptr(unsafe.Pointer(&hdrs[sent])), uintptr(len(hdrs)-sent), 0, 0, 0)
			if errno == syscall.EAGAIN {
				return false // wait for writability, then resume
			}
			if errno != 0 {
				sysErr = errno
				return true
			}
			sent += int(n)
		}
		return true
	})
	if err != nil {
		return err
	}
	return sysErr
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

// recv drains up to recvBatchSize datagrams in one recvmmsg call,
// blocking in the runtime poller until the socket is readable. It
// reports n received datagrams (slot i's source, payload, and buffer
// are read via take) or an error once the socket is closed.
func (rb *recvBatch) recv(raw syscall.RawConn) (int, error) {
	got := 0
	err := raw.Read(func(fd uintptr) bool {
		// Namelen is value-result; reset before every call.
		for i := range rb.hdrs {
			rb.hdrs[i].hdr.Namelen = uint32(unsafe.Sizeof(rb.sas[i]))
		}
		n, _, errno := syscall.Syscall6(sysRECVMMSG, fd,
			uintptr(unsafe.Pointer(&rb.hdrs[0])), recvBatchSize,
			syscall.MSG_DONTWAIT, 0, 0)
		if errno == syscall.EAGAIN {
			return false // block in the poller until readable
		}
		if errno == 0 {
			got = int(n)
		}
		// Any other errno: report zero packets; the outer loop exits
		// via the closed-socket error from raw.Read or simply retries
		// on a transient fault.
		return true
	})
	return got, err
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
	var rb recvBatch
	rb.init()
	defer rb.release()
	for {
		got, err := rb.recv(e.raw)
		if err != nil {
			return
		}
		for i := 0; i < got; i++ {
			if pkt, ok := rb.take(i, e.addr); ok {
				e.deliver(pkt)
			}
		}
	}
}
