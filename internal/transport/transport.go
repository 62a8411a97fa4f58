// Package transport defines the datagram abstraction on which the
// paired message protocol is built.
//
// The paper (§2.2) assumes only that a network delivers packets
// unreliably: packets may be lost, delayed, duplicated, or garbled,
// and checksums turn garbled packets into lost ones. An Endpoint is a
// process's handle on such a network, analogous to a bound UDP socket
// in Berkeley 4.2BSD. Two implementations exist: internal/netsim (an
// in-memory simulated internet with fault injection) and
// internal/udptrans (real UDP on the loopback interface).
package transport

import (
	"errors"
	"fmt"
)

// MaxDatagram is the largest payload an Endpoint must accept in Send,
// mirroring an Ethernet MTU minus IP/UDP headers (§4.2.4: segments are
// sized to avoid IP fragmentation).
const MaxDatagram = 1472

// Addr identifies a process in the internet, as in §4.2.1: a 32-bit
// host address plus a 16-bit port number. The zero Addr is invalid.
type Addr struct {
	Host uint32
	Port uint16
}

// IsZero reports whether a is the invalid zero address.
func (a Addr) IsZero() bool { return a.Host == 0 && a.Port == 0 }

// String renders the address in dotted-quad:port form.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d:%d",
		byte(a.Host>>24), byte(a.Host>>16), byte(a.Host>>8), byte(a.Host), a.Port)
}

// Packet is one datagram as delivered to a receiver.
//
// When Buf is nil, Data is a fresh buffer owned by the receiver: the
// transport never reuses it, and no other delivery (including an
// injected duplicate) shares its backing array, so the receiver may
// retain or alias it freely.
//
// When Buf is non-nil, Data aliases Buf's pooled storage and the
// receiver holds one reference: it must call Buf.Release once the
// bytes are dead (and Buf.Retain for any alias that outlives its
// handler), after which Data must not be touched. Dropping the packet
// without releasing is safe — the buffer falls to the garbage
// collector instead of the pool — so pooled delivery is a strict
// optimization over the fresh-buffer contract, never a new hazard.
type Packet struct {
	From Addr
	To   Addr
	Data []byte
	Buf  *Buf
}

// ErrClosed is returned by operations on a closed Endpoint.
var ErrClosed = errors.New("transport: endpoint closed")

// ErrTooLarge is returned by Send when the payload exceeds MaxDatagram.
var ErrTooLarge = errors.New("transport: datagram exceeds maximum size")

// Endpoint is a bound datagram socket. Implementations must make Send
// non-blocking with respect to the receiver (datagrams are queued or
// dropped, never flow-controlled) and must deliver incoming datagrams
// on the channel returned by Recv until Close.
type Endpoint interface {
	// Addr returns the local address the endpoint is bound to.
	Addr() Addr

	// Send transmits one datagram. Delivery is unreliable: the
	// datagram may be lost, delayed, duplicated or reordered. Send
	// never blocks awaiting the receiver, and must not retain data
	// after it returns — callers may immediately reuse the buffer
	// (the paired message layer sends from pooled buffers).
	Send(to Addr, data []byte) error

	// Recv returns the channel of incoming datagrams. The channel is
	// closed when the endpoint is closed.
	Recv() <-chan Packet

	// Close releases the endpoint. Further Sends fail with ErrClosed.
	Close() error
}

// Multicaster is implemented by endpoints that support hardware-style
// multicast (§4.3.3): sending one datagram to a whole group in a
// single operation. The netsim transport implements it; plain UDP does
// not, which is exactly the distinction the paper's performance
// analysis turns on.
type Multicaster interface {
	// Multicast sends data to every address in group in one network
	// operation. Per-recipient delivery remains unreliable and
	// independent (§2.2).
	Multicast(group []Addr, data []byte) error
}

// Dispatcher is implemented by endpoints that can deliver incoming
// datagrams by invoking a handler from their own drain goroutine
// instead of queueing Packets on the Recv channel. A consumer that
// installs a handler takes delivery that way exclusively: nothing more
// arrives on Recv.
//
// The handler runs on the endpoint's receive goroutine, one packet at
// a time in arrival order (udptrans calls it from its one drain
// goroutine). It must not block indefinitely. After Close returns, the
// handler is never invoked again. Packet ownership is unchanged: the
// handler owns Data per the Packet contract.
type Dispatcher interface {
	SetHandler(fn func(Packet))
}

// Datagram is one (destination, payload) pair of a batched send.
type Datagram struct {
	To   Addr
	Data []byte
}

// BatchSender is implemented by endpoints that can hand several
// datagrams to the network in one operation — sendmmsg(2) on a real
// socket, a single locked pass in the simulator. The paper's cost
// breakdown (Table 4.2, §4.4.1) charges every datagram a full sendmsg;
// batching amortizes that per-operation cost across a whole
// retransmission tick or coalesced flush.
//
// The Send contract carries over per datagram: delivery stays
// unreliable and independent, the call never blocks awaiting any
// receiver, and no Data buffer is retained after SendBatch returns
// (callers send from pooled buffers).
type BatchSender interface {
	SendBatch(dgrams []Datagram) error
}
