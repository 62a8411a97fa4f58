package core

import (
	"context"
	"sync"

	"circus/internal/thread"
	"circus/internal/transport"
)

// Module is the server side of an exported interface. Dispatch is
// invoked with the procedure number and externalized arguments and
// returns externalized results; the stub compiler's server skeletons
// implement it (§7.1), as does the reflection adapter in package
// circus. Dispatch must be deterministic for the module to be safely
// replicated (§3.3.2); returning ErrNoSuchProc signals an unknown
// procedure number. The call, its thread context and the argument
// bytes (args and call.Args()) are the runtime's and are reused once
// Dispatch returns: a module copies what it keeps.
type Module interface {
	Dispatch(call *ServerCall, proc uint16, args []byte) ([]byte, error)
}

// ModuleFunc adapts a function to the Module interface.
type ModuleFunc func(call *ServerCall, proc uint16, args []byte) ([]byte, error)

// Dispatch implements Module.
func (f ModuleFunc) Dispatch(call *ServerCall, proc uint16, args []byte) ([]byte, error) {
	return f(call, proc, args)
}

// StateProvider is implemented by modules that support the state
// transfer used when a new member joins a troupe (§6.4.1): GetState
// externalizes the module state; SetState internalizes it into a fresh
// replica. The runtime exposes them as the automatically generated
// get_state procedure of the paper.
type StateProvider interface {
	GetState() ([]byte, error)
	SetState(state []byte) error
}

// ArgPolicy selects when a server troupe member starts executing a
// many-to-one call (§4.3.4).
type ArgPolicy int

const (
	// ArgWaitAll waits for call messages from all members of the
	// client troupe — the unanimous default of Circus, providing
	// error detection at the cost of running at the speed of the
	// slowest client member.
	ArgWaitAll ArgPolicy = iota
	// ArgFirstCome executes as soon as the first call message
	// arrives; the return message is buffered and handed to the
	// remaining client members as their call messages arrive, making
	// execution appear instantaneous to slow members (§4.3.4).
	ArgFirstCome
	// ArgMajority waits for call messages from a majority of the
	// client troupe, the discipline §4.3.5 proposes to keep troupe
	// members in different network partitions from diverging.
	ArgMajority
)

// ExportOptions configures one exported module.
type ExportOptions struct {
	// Policy selects the many-to-one waiting discipline.
	Policy ArgPolicy
	// AllowDivergentArgs disables the error detection that rejects a
	// replicated call whose client troupe members sent different
	// argument messages. Modules using explicit replication set it:
	// their members legitimately send distinct values, which the
	// module collates itself via ServerCall.Args (§7.4, Figure 7.7).
	AllowDivergentArgs bool
}

// ServerCall is the context of one replicated procedure execution at
// one server troupe member, valid until Dispatch returns.
type ServerCall struct {
	rt           *Runtime
	ctx          context.Context
	thread       *thread.Context
	clientTroupe TroupeID
	module       uint16
	proc         uint16

	mu      sync.Mutex
	callers []transport.Addr
	args    [][]byte
}

// Context returns the context governing the execution; it is cancelled
// when the runtime shuts down.
func (sc *ServerCall) Context() context.Context { return sc.ctx }

// Thread returns the propagated thread context (§3.4.1); nested
// replicated calls made with Call extend its call path.
func (sc *ServerCall) Thread() *thread.Context { return sc.thread }

// ClientTroupe returns the troupe ID of the calling troupe, zero for
// an unreplicated caller.
func (sc *ServerCall) ClientTroupe() TroupeID { return sc.clientTroupe }

// Module returns the module number the call addressed.
func (sc *ServerCall) Module() uint16 { return sc.module }

// Proc returns the procedure number of the call.
func (sc *ServerCall) Proc() uint16 { return sc.proc }

// Callers returns the process addresses whose call messages had
// arrived when execution began, in arrival order.
func (sc *ServerCall) Callers() []transport.Addr {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return append([]transport.Addr(nil), sc.callers...)
}

// Args returns the argument messages received from the client troupe
// members, in arrival order. Under ArgWaitAll these are the arguments
// of every available client member; a module exported with explicit
// replication collates them itself — the argument generator of Figure
// 7.7. Under transparent replication, all entries are identical and
// Dispatch receives the first.
func (sc *ServerCall) Args() [][]byte {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return append([][]byte(nil), sc.args...)
}

// Runtime returns the runtime executing the call.
func (sc *ServerCall) Runtime() *Runtime { return sc.rt }

// Call makes a nested replicated procedure call on behalf of this
// execution: the thread ID and call path propagate (§3.4.1), and the
// client troupe ID of this member's own troupe is attached so the
// callee can collate the calls of this troupe's members (§4.3.2).
func (sc *ServerCall) Call(dest Troupe, proc uint16, args []byte, opts CallOptions) ([]byte, error) {
	opts.clientTroupe = sc.rt.TroupeIDOf(sc.module)
	opts.thread = sc.thread
	return sc.rt.Call(sc.ctx, dest, proc, args, opts)
}
