// Package thread implements distributed threads of control (§3.2) and
// the thread ID propagation algorithm of §3.4.1.
//
// A thread begins in a base process; its ID is the machine ID plus the
// local process ID of that base process, and every call message bears
// the ID so that all call-stack segments of the distributed thread
// share it. In addition to the paper's ID, each call carries a call
// path: the sequence of per-frame call counters from the base of the
// stack down to the current call. Two call messages are part of the
// same replicated call if and only if they bear the same thread ID and
// call path — the call path plays the role of the paper's
// deterministic per-process call sequence number (§4.3.2), made
// hierarchical because a Go process multiplexes many threads over one
// endpoint where Circus ran one process per thread.
package thread

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
)

// ID uniquely identifies a distributed thread: the machine ID and
// local process ID of its base process (§3.4.1).
type ID struct {
	Host uint32
	Proc uint32
}

func (id ID) String() string { return fmt.Sprintf("thread(%d/%d)", id.Host, id.Proc) }

// Context is the per-segment bookkeeping of a distributed thread: the
// propagated ID, the call path prefix of the frame being executed, and
// the counter of calls made from this frame. Deterministic replicas
// executing the same frame allocate identical call paths, which is
// what lets a server collate the call messages of a replicated call
// (§4.3.2).
type Context struct {
	id     ID
	prefix []uint32

	mu   sync.Mutex
	next uint32
}

// NewRoot starts a fresh thread in a base process.
func NewRoot(id ID) *Context {
	return &Context{id: id}
}

// Child returns the context a server uses while executing an incoming
// call: same thread ID, prefix equal to the incoming call path, so
// that nested calls extend the path (§3.4.1: the server process
// assumes the caller's thread ID for the duration of the procedure).
func Child(id ID, path []uint32) *Context {
	prefix := append([]uint32(nil), path...)
	return &Context{id: id, prefix: prefix}
}

// Reset makes c the context Child(id, path) returns, in place and
// with path aliased rather than copied: a server reuses one Context
// per call record, and keeps path unchanged while c is in use. c must
// not be in use by anyone else.
func (c *Context) Reset(id ID, path []uint32) {
	c.id, c.prefix, c.next = id, path, 0
}

// ID returns the thread ID.
func (c *Context) ID() ID { return c.id }

// Key renders the thread ID and call path prefix of the frame as an
// opaque map key. Executions of the same replicated call at different
// troupe members carry equal thread IDs and call paths (§4.3.2), so
// their Keys are equal — which lets instrumented modules verify
// exactly-once execution per replicated call.
func (c *Context) Key() string { return PathKey(c.id, c.prefix) }

// NextCallPath allocates the call path for the next call made from
// this frame. Replicas in the same state calling in the same order get
// the same paths.
func (c *Context) NextCallPath() []uint32 {
	c.mu.Lock()
	c.next++
	n := c.next
	c.mu.Unlock()
	path := make([]uint32, len(c.prefix)+1)
	copy(path, c.prefix)
	path[len(c.prefix)] = n
	return path
}

// PathKey renders a thread ID and call path as a map key: each as a
// big-endian u32, built on the stack so the string is the one
// allocation.
func PathKey(id ID, path []uint32) string {
	var buf [64]byte
	b := binary.BigEndian.AppendUint32(buf[:0], id.Host)
	b = binary.BigEndian.AppendUint32(b, id.Proc)
	for _, p := range path {
		b = binary.BigEndian.AppendUint32(b, p)
	}
	return string(b)
}

type ctxKey struct{}

// NewContext attaches a thread context to a context.Context, the Go
// stand-in for the implicit extra parameter the paper threads through
// every remote procedure (§3.4.1).
func NewContext(parent context.Context, tc *Context) context.Context {
	return context.WithValue(parent, ctxKey{}, tc)
}

// FromContext extracts the thread context, or nil if none is attached.
func FromContext(ctx context.Context) *Context {
	tc, _ := ctx.Value(ctxKey{}).(*Context)
	return tc
}
