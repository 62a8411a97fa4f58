//go:build !linux || (!amd64 && !arm64)

package udptrans

import "circus/internal/transport"

// Fallback datagram I/O for platforms without sendmmsg/recvmmsg (or
// whose msghdr ABI we do not model): plain per-datagram system calls.
// The coalescing in the paired message layer still reduces datagram
// count; only the syscall amortization is lost.

func (s *socket) sendBatch(dgrams []transport.Datagram) error {
	for _, d := range dgrams {
		if _, err := s.conn.WriteToUDPAddrPort(d.Data, toAddrPort(d.To)); err != nil {
			return err
		}
	}
	return nil
}

// drain is the portable receive goroutine: one datagram per read,
// still into pooled buffers, so the upper layers see the identical
// delivery contract.
func (e *Endpoint) drain(s *socket) {
	defer e.drains.Done()
	for {
		buf := pool.Get()
		n, from, err := s.conn.ReadFromUDPAddrPort(buf.Bytes())
		if err != nil {
			buf.Release()
			return
		}
		a, ok := toAddr(from)
		if !ok {
			buf.Release()
			continue // non-IPv4 source: the transport cannot name it
		}
		e.deliver(transport.Packet{From: a, To: e.addr, Data: buf.Bytes()[:n], Buf: buf})
	}
}
