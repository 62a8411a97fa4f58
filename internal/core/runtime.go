package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"circus/internal/pairedmsg"
	"circus/internal/thread"
	"circus/internal/trace"
	"circus/internal/transport"
)

// Reserved procedure numbers handled by the runtime itself rather than
// the module. They implement the automatically generated procedures of
// the paper: the null "are you there?" probe used for binding-agent
// garbage collection (§6.1), get_state for initializing a new troupe
// member (§6.4.1), and set_troupe_id for atomic troupe ID changes
// (§6.2).
const (
	ProcPing        uint16 = 0xFFFF
	ProcGetState    uint16 = 0xFFFE
	ProcSetTroupeID uint16 = 0xFFFD
)

// Resolver maps a client troupe ID to the module addresses of its
// members, which tells a server handling a many-to-one call how many
// call messages to expect (§4.3.2). It is implemented by the binding
// agent client with a local cache, and by static tables in tests.
type Resolver interface {
	LookupByID(id TroupeID) ([]ModuleAddr, error)
}

// StaticResolver is a fixed troupe table.
type StaticResolver map[TroupeID][]ModuleAddr

// LookupByID implements Resolver.
func (s StaticResolver) LookupByID(id TroupeID) ([]ModuleAddr, error) {
	members, ok := s[id]
	if !ok {
		return nil, &UnknownTroupeError{ID: id}
	}
	return members, nil
}

// UnknownTroupeError reports a troupe ID the resolver has no record
// of.
type UnknownTroupeError struct{ ID TroupeID }

func (e *UnknownTroupeError) Error() string {
	return "core: unknown troupe " + TroupeID(e.ID).String()
}

// String renders a troupe ID.
func (id TroupeID) String() string {
	const hexdigits = "0123456789abcdef"
	buf := make([]byte, 16)
	for i := 15; i >= 0; i-- {
		buf[i] = hexdigits[id&0xf]
		id >>= 4
	}
	return "troupe:" + string(buf)
}

// Options configures a Runtime.
type Options struct {
	// Message tunes the paired message protocol.
	Message pairedmsg.Options
	// Resolver resolves client troupe IDs for many-to-one calls. Nil
	// means only unreplicated clients are supported until SetResolver.
	Resolver Resolver
	// ManyToOneTimeout bounds how long a server waits for the
	// remaining call messages of a replicated call after the first
	// arrives; crashed client members would otherwise stall the call
	// forever. Zero means 2 seconds.
	ManyToOneTimeout time.Duration
	// CallRetention is how long, at least, a completed execution's
	// buffered return message is kept for late client troupe members
	// (§4.3.4); it is dropped within 1.5 times that. It must cover the
	// longest a client goes on retrying one call. Zero means 60 seconds.
	CallRetention time.Duration
	// DefaultCallTimeout bounds calls whose CallOptions.Timeout is
	// zero, instead of letting them run unbounded and rely solely on
	// crash detection (§4.2.3) for termination. Zero means 60
	// seconds; NoTimeout restores the historical unbounded default.
	// Individual calls override it with CallOptions.Timeout, and opt
	// out with CallOptions.Timeout = NoTimeout.
	DefaultCallTimeout time.Duration
	// Multicast enables the multicast implementation of one-to-many
	// calls (§4.3.3) when the transport supports it: one send
	// operation reaches the whole server troupe, m+n messages instead
	// of m·n.
	Multicast bool
	// Trace, when set, receives structured events from both the
	// message layer and the call layer (call issued, member replies,
	// collation, execution, duplicate suppression). It is installed
	// into Message.Trace so one process's events share one identity.
	Trace trace.Sink
}

func (o Options) withDefaults() Options {
	if o.ManyToOneTimeout == 0 {
		o.ManyToOneTimeout = 2 * time.Second
	}
	if o.CallRetention == 0 {
		o.CallRetention = 60 * time.Second
	}
	if o.DefaultCallTimeout == 0 {
		o.DefaultCallTimeout = 60 * time.Second
	}
	return o
}

// Runtime is the replicated procedure call run-time system linked with
// each user program (§4.3): it owns the paired message connection,
// dispatches incoming calls to exported modules, and implements the
// one-to-many and many-to-one algorithms. Its dispatch workers (see
// dispatchLoop) take each completed call message straight off the
// connection's incoming queue, and the worker whose message readies a
// call executes it; the connection hands each return to the member leg
// awaiting it (see leg).
type Runtime struct {
	conn *pairedmsg.Conn
	opts Options
	tr   *trace.Local // shared with conn; nil when tracing is disabled

	// mu guards the read-mostly configuration state: the module table,
	// troupe IDs, and resolver are written at setup/reconfiguration
	// time and read on every incoming call, so readers take RLock.
	mu        sync.RWMutex
	modules   map[uint16]*export
	troupeIDs map[uint16]TroupeID
	resolver  Resolver
	nextMod   uint16
	closed    bool

	// callMu guards the call table (calltable.go): each call while it
	// collates and executes (the record behind each entry has its own
	// lock, serverCall.mu), and its return message afterwards, rotated
	// by rotateTimer.
	callMu      sync.Mutex
	calls       callTable
	rotateTimer *time.Timer

	// readers counts the dispatch workers reading the incoming queue,
	// as opposed to executing a call; at most readersMax read.
	readers    atomic.Int32
	readersMax int32

	nextThread uint32
	done       chan struct{}
	ctx        context.Context
	cancel     context.CancelFunc
	bg         sync.WaitGroup
}

type export struct {
	num  uint16
	mod  Module
	opts ExportOptions
}

// NewRuntime starts a runtime over ep.
func NewRuntime(ep transport.Endpoint, opts Options) *Runtime {
	if opts.Trace != nil && opts.Message.Trace == nil {
		opts.Message.Trace = opts.Trace
	}
	rt := &Runtime{
		conn:      pairedmsg.New(ep, opts.Message),
		opts:      opts.withDefaults(),
		modules:   make(map[uint16]*export),
		troupeIDs: make(map[uint16]TroupeID),
		resolver:  opts.Resolver,
		done:      make(chan struct{}),
	}
	rt.tr = rt.conn.Tracer() // same node identity and incarnation
	rt.nextThread = (threadSeq.Add(1) * 0x9E3779B1) ^
		(uint32(ep.Addr().Port) * 0x85EBCA6B) ^ threadSalt
	rt.ctx, rt.cancel = context.WithCancel(context.Background())
	rt.callMu.Lock()
	rt.rotateTimer = time.AfterFunc(rt.opts.CallRetention/2, rt.rotateCalls)
	rt.callMu.Unlock()
	rt.readersMax = int32(max(4, runtime.GOMAXPROCS(0)))
	for i := rt.readersMax; i > 0; i-- {
		rt.startWorker()
	}
	return rt
}

// rotateCalls expires the oldest generation of finished calls every
// half CallRetention, so a buffered return message (§4.3.4) lives
// between one and one and a half retention windows.
func (rt *Runtime) rotateCalls() {
	rt.callMu.Lock()
	defer rt.callMu.Unlock()
	rt.calls.rotate()
	select {
	case <-rt.done:
	default:
		rt.rotateTimer.Reset(rt.opts.CallRetention / 2)
	}
}

// CallTableStats sizes the many-to-one collation table and the client
// legs awaiting returns.
type CallTableStats struct {
	Live       int // calls still collating or executing
	Tombstones int // finished calls whose return message is buffered
	Pending    int // client legs in flight, their exchange still observed
}

// CallTable reports how much at-most-once state the runtime holds, and
// how many member legs of its own calls are in flight.
func (rt *Runtime) CallTable() CallTableStats {
	pending := int(rt.conn.Stats().Observed)
	rt.callMu.Lock()
	defer rt.callMu.Unlock()
	return CallTableStats{Live: rt.calls.live, Tombstones: rt.calls.tombstones(), Pending: pending}
}

// Addr returns the process address of this runtime.
func (rt *Runtime) Addr() transport.Addr { return rt.conn.Addr() }

// SetResolver installs the troupe resolver (typically the binding
// agent client) after construction.
func (rt *Runtime) SetResolver(r Resolver) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.resolver = r
}

// Export registers a module under the next free module number and
// returns its module address. The module number is an index into the
// table of exported interfaces managed by the export procedure (§4.3).
func (rt *Runtime) Export(m Module, opts ExportOptions) ModuleAddr {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	num := rt.nextMod
	for {
		if _, used := rt.modules[num]; !used {
			break
		}
		num++
	}
	rt.nextMod = num + 1
	rt.modules[num] = &export{num: num, mod: m, opts: opts}
	return ModuleAddr{Addr: rt.conn.Addr(), Module: num}
}

// ExportAt registers a module under a specific module number,
// replacing any previous export at that number.
func (rt *Runtime) ExportAt(num uint16, m Module, opts ExportOptions) ModuleAddr {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.modules[num] = &export{num: num, mod: m, opts: opts}
	return ModuleAddr{Addr: rt.conn.Addr(), Module: num}
}

// Unexport removes a module; subsequent calls to it report
// ErrNoSuchModule, stale-binding case 2 of §6.1.
func (rt *Runtime) Unexport(num uint16) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	delete(rt.modules, num)
	delete(rt.troupeIDs, num)
}

// PlantedRebindBug, when true, makes SetTroupeID additionally discard
// the runtime's many-to-one collation records, live and finished — a
// deliberately wrong "a rebind invalidates in-flight call state"
// change, kept behind this flag as the known defect the
// schedule-exploration regression test must rediscover. With a record
// gone, a replicated client member's call message arriving after a
// rebind no longer collates with its sibling's: the server executes the
// call a second time, breaking the at-most-once guarantee of §4.3.2.
// Never set outside tests.
var PlantedRebindBug = false

// SetTroupeID records the current troupe ID of an exported module; the
// member rejects calls bearing any other destination troupe ID (§6.2).
func (rt *Runtime) SetTroupeID(module uint16, id TroupeID) {
	rt.mu.Lock()
	rt.troupeIDs[module] = id
	rt.mu.Unlock()
	if PlantedRebindBug {
		rt.callMu.Lock()
		rt.calls = callTable{}
		rt.callMu.Unlock()
	}
}

// TroupeIDOf returns the module's current troupe ID, zero if none was
// set.
func (rt *Runtime) TroupeIDOf(module uint16) TroupeID {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.troupeIDs[module]
}

// threadSeq and threadSalt scramble each Runtime's thread ID base.
// Thread IDs must be unique per (machine, base process) — §3.4.1 —
// including across process incarnations: a restarted process that
// reused a predecessor's thread IDs and call paths would have its
// fresh calls answered from the servers' buffered return messages
// (the CallRetention window of §4.3.4) instead of executed.
var (
	threadSeq  atomic.Uint32
	threadSalt = uint32(time.Now().UnixNano())
)

// NewThread creates a fresh distributed thread rooted at this process
// (§3.4.1: the base process ID plus machine ID form the thread ID).
// The base process ID is drawn from a per-incarnation scrambled
// range, so threads of a restarted process never collide with its
// predecessor's.
func (rt *Runtime) NewThread() *thread.Context {
	n := atomic.AddUint32(&rt.nextThread, 1)
	id := thread.ID{
		Host: rt.conn.Addr().Host,
		Proc: n,
	}
	return thread.NewRoot(id)
}

// Close shuts the runtime down: pending calls fail, the connection and
// endpoint close.
func (rt *Runtime) Close() error {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return nil
	}
	rt.closed = true
	close(rt.done)
	rt.cancel()
	rt.mu.Unlock()
	rt.rotateTimer.Stop()
	err := rt.conn.Close()
	rt.bg.Wait()
	return err
}

// MessageStats exposes the paired message counters for the benchmark
// harness.
func (rt *Runtime) MessageStats() pairedmsg.Stats { return rt.conn.Stats() }

// Tracer returns the runtime's trace emitter (nil when tracing is
// disabled). The ringmaster client and public Node use it so their
// events carry the same node identity and incarnation as the
// message-layer events.
func (rt *Runtime) Tracer() *trace.Local { return rt.tr }

// dispatchLoop is one dispatch worker. NewRuntime starts
// max(4, GOMAXPROCS) of them, all reading the paired message layer's
// one bounded incoming queue, so any worker takes the next completed
// call message from any sender: calls are parsed, collated and answered
// concurrently, and the queue's withheld-ack backpressure is the only
// flow control between the message layer and the call layer. The
// loops end when Close closes the connection, which closes the queue.
//
// The worker whose message readies a call executes it, once the
// message is released (the call record holds copies of everything it
// needs). One invariant keeps the queue read however long modules
// block — in a nested call, a WAL fsync, a test gate: some worker is
// always reading it. A worker that leaves the queue as its last reader
// starts another first, and after the call it reads again unless
// readersMax workers already do, in which case it exits.
func (rt *Runtime) dispatchLoop() {
	defer rt.bg.Done()
	var scr callHeader
	for msg := range rt.conn.Incoming() {
		sc := rt.handleMsg(msg, &scr)
		if sc == nil {
			continue
		}
		if rt.readers.Add(-1) == 0 {
			rt.startWorker()
		}
		rt.execute(sc)
		if !rt.rejoinReaders() {
			return
		}
	}
}

// startWorker starts one more dispatch worker, counted as a reader.
func (rt *Runtime) startWorker() {
	rt.readers.Add(1)
	rt.bg.Add(1)
	go rt.dispatchLoop()
}

// rejoinReaders counts a worker that has executed a call among the
// readers again, or reports false when readersMax already read.
func (rt *Runtime) rejoinReaders() bool {
	for {
		n := rt.readers.Load()
		if n >= rt.readersMax {
			return false
		}
		if rt.readers.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// handleMsg handles one completed message and returns the call it
// readied, if any, for the worker to execute. scr is the worker's
// long-lived decode target, so the header struct and the call path's
// backing stay off the heap. A return reaches the queue only when no leg
// awaits it — its leg gave up and abandoned the exchange — and is
// dropped.
func (rt *Runtime) handleMsg(msg pairedmsg.Message, scr *callHeader) *serverCall {
	var sc *serverCall
	if msg.Type == pairedmsg.Call {
		sc = rt.handleCall(msg, scr)
	}
	// handleCall copies what it keeps, so nothing above retains
	// msg.Data: recycle its pooled backing (no-op when the transport
	// delivered a fresh buffer).
	msg.Release()
	return sc
}

// background runs f on a tracked goroutine so Close can wait for it.
func (rt *Runtime) background(f func()) {
	rt.bg.Add(1)
	go func() {
		defer rt.bg.Done()
		f()
	}()
}
