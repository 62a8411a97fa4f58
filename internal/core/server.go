package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"circus/internal/pairedmsg"
	"circus/internal/thread"
	"circus/internal/trace"
	"circus/internal/transport"
	"circus/internal/wire"
)

// serverCall collates the call messages of one replicated call at one
// server troupe member (§4.3.2). Two call messages are part of the
// same replicated call if and only if they bear the same thread ID and
// call path; the client troupe ID tells the member how many call
// messages to expect.
//
// Records are the call table's and are reused: refs counts who holds
// one — the table while the call is live, each handler between its
// lookup and its last use, an armed availability timer, a pending
// membership lookup, the execution — and the last to let go hands it
// back (callTable.recycle). So a module must not keep the ServerCall,
// its thread context or its argument bytes past Dispatch.
type serverCall struct {
	mu       sync.Mutex
	refs     atomic.Int32
	hdr      callHeader
	tid      thread.ID
	exp      *export
	callers  []transport.Addr
	callNums []uint32 // parallel to callers (troupes are small: linear scan)
	args     [][]byte
	// In-place backing for the slices above, covering typical troupe
	// degrees and call paths; argBuf holds every caller's argument
	// bytes and keeps its capacity from call to call.
	callersArr  [4]transport.Addr
	callNumsArr [4]uint32
	argsArr     [4][]byte
	pathArr     [8]uint32
	argBuf      []byte
	expected    int // number of client troupe members; 0 until resolved
	started     bool
	timer       *time.Timer // availability timeout; stopped when started flips
	// finished and result serve only a handler that looked the record
	// up just before finishAndReply buried the call.
	finished bool
	result   []byte // encoded returnHeader

	// Where the table keeps the call, guarded by Runtime.callMu: its
	// index in callTable.calls, and while live its block and slot.
	idx  uint32
	blk  *block
	slot uint

	// thread and call are the context and ServerCall handed to the
	// module's Dispatch, held here so execute allocates neither.
	thread thread.Context
	call   ServerCall
}

// init makes a record the table just handed out the record of a fresh
// call, from the decoded header; the arguments come with each caller.
// Nothing stored aliases hdr, which is the decode scratch, or the
// message it views. The caller holds Runtime.callMu, which guards the
// call identity: the table reads it to move the record between
// generations. (The thread context and the ServerCall are set by
// execute, and a started call has no timer.)
func (sc *serverCall) init(hdr *callHeader, tid thread.ID, exp *export) {
	sc.hdr = *hdr
	sc.hdr.Path = append(sc.pathArr[:0], hdr.Path...)
	sc.hdr.Args = nil
	sc.tid, sc.exp = tid, exp
	sc.callers, sc.callNums, sc.args = sc.callersArr[:0], sc.callNumsArr[:0], sc.argsArr[:0]
	sc.argBuf = sc.argBuf[:0]
	sc.expected, sc.started, sc.finished = 0, false, false
}

// addArgs copies one caller's argument bytes into the record.
func (sc *serverCall) addArgs(a []byte) []byte {
	off := len(sc.argBuf)
	sc.argBuf = append(sc.argBuf, a...)
	return sc.argBuf[off:len(sc.argBuf):len(sc.argBuf)]
}

// markStartedLocked flips started and releases the availability
// timeout's timer, and the timer's reference if it had not fired.
// Caller holds sc.mu and a reference of its own.
func (sc *serverCall) markStartedLocked() {
	sc.started = true
	if sc.timer != nil {
		if sc.timer.Stop() {
			sc.refs.Add(-1)
		}
		sc.timer = nil
	}
}

// release drops one reference to sc; the last hands it back to the
// table. The caller no longer holds sc.mu.
func (rt *Runtime) release(sc *serverCall) {
	if sc.refs.Add(-1) == 0 {
		rt.callMu.Lock()
		rt.calls.recycle(sc)
		rt.callMu.Unlock()
	}
}

// handleCall processes one incoming call message: the entry point of
// the many-to-one algorithm (Figure 4.4). It returns the call when this
// message readied it, for the dispatch worker to execute. hdr is the
// worker's decode scratch (see handleMsg): its path reuses the
// scratch's backing and its args view the message, which is released
// once this returns, so everything stored past this call is copied
// out of it, once.
func (rt *Runtime) handleCall(msg pairedmsg.Message, hdr *callHeader) *serverCall {
	if err := hdr.unmarshal(msg.Data); err != nil {
		rt.sendReturn(msg.From, msg.CallNum, returnHeader{Status: statusBadMessage})
		return nil
	}
	tid := thread.ID{Host: hdr.ThreadHost, Proc: hdr.ThreadProc}

	// Module and troupe lookups are read-mostly: every incoming call
	// takes this path, possibly on many dispatch workers at once, while
	// writes happen only at export/registration time.
	rt.mu.RLock()
	exp, haveModule := rt.modules[hdr.Module]
	myTroupe := rt.troupeIDs[hdr.Module]
	rt.mu.RUnlock()
	if !haveModule {
		rt.sendReturn(msg.From, msg.CallNum, returnHeader{Status: statusNoModule})
		return nil
	}
	// Incarnation check (§6.2): a member accepts a call only if it
	// bears the member's current troupe ID, which is the case only if
	// the client knows the correct membership of the troupe. A zero
	// destination ID skips the check (direct addressing); a zero local
	// ID means the member has not yet been registered.
	if hdr.DestTroupe != 0 && myTroupe != 0 && TroupeID(hdr.DestTroupe) != myTroupe {
		rt.sendReturn(msg.From, msg.CallNum, returnHeader{Status: statusBadTroupe})
		return nil
	}

	var kb [64]byte
	key := keyOf(tid, hdr.Path, hdr.Module, kb[:0])
	rt.callMu.Lock()
	sc, result, b0 := rt.calls.find(&key)
	switch {
	case sc != nil:
		sc.refs.Add(1)
	case result == nil:
		sc = rt.calls.add(&key, b0)
		sc.init(hdr, tid, exp)
	}
	rt.callMu.Unlock()
	if sc == nil {
		rt.replayReturn(msg, hdr, result)
		return nil
	}

	sc.mu.Lock()
	if sc.finished {
		// Finished between the lookup above and this lock.
		result = sc.result
		sc.mu.Unlock()
		rt.release(sc)
		rt.replayReturn(msg, hdr, result)
		return nil
	}
	seen := -1
	for i, a := range sc.callers {
		if a == msg.From {
			seen = i
			break
		}
	}
	if seen < 0 {
		args := sc.addArgs(hdr.Args)
		if len(sc.callers) == 0 {
			sc.hdr.Args = args
		}
		sc.callers = append(sc.callers, msg.From)
		sc.callNums = append(sc.callNums, msg.CallNum)
		sc.args = append(sc.args, args)
	} else {
		sc.callNums[seen] = msg.CallNum
	}
	first := seen < 0 && len(sc.callers) == 1
	if first && hdr.ClientTroupe == 0 {
		// An unreplicated client sends exactly one call message; no
		// membership lookup is needed.
		sc.expected = 1
	}
	sc.mu.Unlock()

	// Try to start before spending a timer on the call: the common case
	// — an unreplicated client, or the last expected member arriving —
	// starts right here, and a started call needs no availability
	// timeout at all. The call then keeps this handler's reference.
	if rt.maybeStart(sc) {
		return sc
	}
	if first {
		rt.armTimeout(sc)
		if hdr.ClientTroupe != 0 {
			// Resolve the client troupe membership (consulting a local
			// cache or the binding agent, §4.3.2) off the receive loop.
			ct := TroupeID(hdr.ClientTroupe) // hoisted: the closure must not read the scratch
			sc.refs.Add(1)
			rt.background(func() { rt.resolveExpected(sc, ct) })
		}
	}
	rt.release(sc)
	return nil
}

// replayReturn answers a call message that arrives after its call has
// finished. To a slow client troupe member execution appears
// instantaneous, because the return message is ready and waiting
// (§4.3.4) — already encoded, so the stored bytes are sent as they are.
func (rt *Runtime) replayReturn(msg pairedmsg.Message, hdr *callHeader, result []byte) {
	if rt.tr.EnabledFor(trace.KindDupCall) {
		// Sinks may retain events: never hand them the scratch path.
		rt.tr.Emit(trace.Event{Kind: trace.KindDupCall,
			Peer: msg.From, CallNum: msg.CallNum,
			ThreadHost: hdr.ThreadHost, ThreadProc: hdr.ThreadProc,
			Path: append([]uint32(nil), hdr.Path...), Troupe: hdr.DestTroupe,
			Module: hdr.Module, Proc: hdr.Proc})
	}
	rt.sendReturnEncoded(msg.From, msg.CallNum, result)
}

// resolveExpected learns how many call messages to expect as part of
// the many-to-one call (§4.3.2), and executes the call if that readies
// it. It holds a reference to sc, which the execution takes over.
func (rt *Runtime) resolveExpected(sc *serverCall, clientTroupe TroupeID) {
	expected := 1
	if clientTroupe != 0 {
		rt.mu.RLock()
		r := rt.resolver
		rt.mu.RUnlock()
		if r != nil {
			if members, err := r.LookupByID(clientTroupe); err == nil && len(members) > 0 {
				expected = len(members)
			}
		}
	}
	sc.mu.Lock()
	sc.expected = expected
	sc.mu.Unlock()
	if rt.maybeStart(sc) {
		rt.execute(sc)
		return
	}
	rt.release(sc)
}

// armTimeout starts execution after ManyToOneTimeout even if some
// client troupe members' call messages never arrive: the paper's
// server waits for all *available* members (§4.3.2), and a crashed
// member must not stall the call forever.
//
// Under ArgMajority the timeout never overrides the majority
// requirement: a member that has received only a minority of the
// expected messages may be in the smaller half of a partition, and
// §4.3.5's discipline exists precisely to keep it from diverging. Such
// a call stalls until the partition heals or more messages arrive.
//
// The timer holds a reference to sc until it fires or is stopped. The
// caller holds one too.
func (rt *Runtime) armTimeout(sc *serverCall) {
	// One AfterFunc timer instead of a goroutine parked on a
	// NewTimer: markStartedLocked stops it when the call starts, so a
	// long campaign does not accumulate one live timer per completed
	// call, and the common case costs no goroutine at all.
	sc.refs.Add(1)
	t := time.AfterFunc(rt.opts.ManyToOneTimeout, func() { rt.timeoutFire(sc) })
	sc.mu.Lock()
	if sc.started {
		sc.mu.Unlock()
		if t.Stop() {
			sc.refs.Add(-1)
		}
		return
	}
	sc.timer = t
	sc.mu.Unlock()
}

// timeoutFire runs on the availability timer's goroutine when the
// timeout expires before the call starts.
func (rt *Runtime) timeoutFire(sc *serverCall) {
	// Register with the shutdown WaitGroup under a read lock: after
	// Close flips rt.closed (under the write lock) the timer fire is a
	// no-op, and because closed is still false while we hold the read
	// lock, Close cannot have reached its bg.Wait yet — the Add is
	// safely ordered before it.
	rt.mu.RLock()
	if rt.closed {
		rt.mu.RUnlock()
		rt.release(sc)
		return
	}
	rt.bg.Add(1)
	rt.mu.RUnlock()
	defer rt.bg.Done()

	sc.mu.Lock()
	floor := 1
	if sc.exp.opts.Policy == ArgMajority {
		floor = sc.expected/2 + 1
	}
	// Under ArgMajority an unresolved membership establishes no
	// majority.
	force := !sc.started && len(sc.callers) >= floor &&
		(sc.exp.opts.Policy != ArgMajority || sc.expected != 0)
	if force {
		sc.markStartedLocked()
	}
	sc.mu.Unlock()
	if force {
		rt.execute(sc)
		return
	}
	rt.release(sc)
}

// maybeStart marks the call started once the waiting discipline of the
// module's ArgPolicy is satisfied (§4.3.4, §4.3.5). It reports whether
// this invocation started it, in which case the caller executes it.
func (rt *Runtime) maybeStart(sc *serverCall) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	var need int
	switch sc.exp.opts.Policy {
	case ArgFirstCome:
		need = 1
	case ArgMajority:
		if sc.expected == 0 {
			return false // not resolved yet
		}
		need = sc.expected/2 + 1
	default: // ArgWaitAll
		if sc.expected == 0 {
			return false // not resolved yet
		}
		need = sc.expected
	}
	if sc.started || len(sc.callers) < need {
		return false
	}
	sc.markStartedLocked()
	return true
}

// execute performs the requested procedure exactly once and sends a
// return message containing the results to each member of the client
// troupe (§4.3.2). The server adopts the thread ID in the call header
// for the duration of the execution so that further remote calls
// propagate it (§3.4.1). The caller's reference to sc is the
// execution's, dropped once the call is buried.
func (rt *Runtime) execute(sc *serverCall) {
	sc.mu.Lock()
	hdr := sc.hdr
	tid := sc.tid
	exp := sc.exp
	// The slice headers are snapshot under the lock without copying:
	// elements below the snapshot length are never rewritten (late
	// call messages only append), so later growth is invisible here.
	callers := sc.callers
	args := sc.args
	sc.mu.Unlock()

	sc.thread.Reset(tid, hdr.Path)
	call := &sc.call
	*call = ServerCall{
		rt:           rt,
		ctx:          rt.ctx,
		thread:       &sc.thread,
		clientTroupe: TroupeID(hdr.ClientTroupe),
		module:       hdr.Module,
		proc:         hdr.Proc,
		callers:      callers,
		args:         args,
	}

	if rt.tr.EnabledFor(trace.KindCallStart) {
		// The at-most-once anchor: exactly one of these per (thread
		// ID, call path, module) per member incarnation (§4.3.4).
		rt.tr.Emit(trace.Event{Kind: trace.KindCallStart,
			ThreadHost: tid.Host, ThreadProc: tid.Proc, Path: append([]uint32(nil), hdr.Path...),
			Troupe: hdr.DestTroupe, Module: hdr.Module, Proc: hdr.Proc,
			N: len(callers)})
	}

	// Waiting for all messages and checking that they are identical is
	// analogous to providing error detection as well as transparent
	// error correction (§4.3.4): any inconsistency among the client
	// troupe's call messages is detected here.
	if exp.opts.Policy == ArgWaitAll && !exp.opts.AllowDivergentArgs {
		for _, a := range args[1:] {
			if !bytes.Equal(a, args[0]) {
				ret := returnHeader{Status: statusAppError,
					Payload: []byte("core: client troupe members sent different arguments")}
				rt.finishAndReply(sc, ret)
				return
			}
		}
	}

	var began time.Time
	done := rt.tr.EnabledFor(trace.KindCallDone)
	if done {
		began = time.Now()
	}
	var ret returnHeader
	res, err := rt.dispatch(exp, call, hdr.Proc, hdr.Args)
	if err != nil {
		ret = returnHeader{Status: statusAppError, Payload: []byte(err.Error())}
	} else {
		ret = returnHeader{Status: statusOK, Payload: res}
	}
	if done {
		e := trace.Event{Kind: trace.KindCallDone,
			ThreadHost: tid.Host, ThreadProc: tid.Proc, Path: append([]uint32(nil), hdr.Path...),
			Troupe: hdr.DestTroupe, Module: hdr.Module, Proc: hdr.Proc,
			Dur: time.Since(began)}
		if err != nil {
			e.Err = err.Error()
		}
		rt.tr.Emit(e)
	}
	rt.finishAndReply(sc, ret)
}

// finishAndReply buries the call — the table swaps its live record for
// the encoded return message, which answers later arrivals (§4.3.4)
// until it expires — and sends the return message to every client
// troupe member whose call message has arrived. It drops the
// execution's reference to sc.
func (rt *Runtime) finishAndReply(sc *serverCall, ret returnHeader) {
	// Holding sc.mu across the swap means a handler that found the
	// record live either added its caller before the snapshot below or
	// finds it finished. callMu nests inside sc.mu here and in no other
	// order.
	sc.mu.Lock()
	// callNums entries are rewritten in place when a client member
	// retransmits with a fresh call number, and the record may be
	// reused once released, so both are copied.
	var callersArr [4]transport.Addr
	var cnArr [4]uint32
	callers := append(callersArr[:0], sc.callers...)
	callNums := append(cnArr[:0], sc.callNums...)
	rt.callMu.Lock()
	encoded := rt.calls.bury(sc, &ret)
	sc.finished = true
	sc.result = encoded
	sc.mu.Unlock()
	if sc.refs.Add(-2) == 0 { // the table's reference and the execution's
		rt.calls.recycle(sc)
	}
	rt.callMu.Unlock()

	// One encode serves every client troupe member (and any late
	// arrival, via the table).
	for i, addr := range callers {
		rt.sendReturnEncoded(addr, callNums[i], encoded)
	}
}

// dispatch routes reserved procedure numbers to the runtime's own
// implementations and everything else to the module.
func (rt *Runtime) dispatch(exp *export, call *ServerCall, proc uint16, args []byte) ([]byte, error) {
	switch proc {
	case ProcPing:
		// The null "are you there?" procedure (§6.1).
		return nil, nil
	case ProcGetState:
		// get_state runs as a read-only operation copying the module
		// state to the caller (§6.4.1).
		sp, ok := exp.mod.(StateProvider)
		if !ok {
			return nil, fmt.Errorf("module %d does not support state transfer", exp.num)
		}
		return sp.GetState()
	case ProcSetTroupeID:
		var id uint64
		if err := wire.Unmarshal(args, &id); err != nil {
			return nil, err
		}
		rt.SetTroupeID(exp.num, TroupeID(id))
		return nil, nil
	default:
		return exp.mod.Dispatch(call, proc, args)
	}
}

// sendReturn transmits one return message; delivery reliability is the
// paired message layer's job, so failures here only mean the runtime
// is shutting down.
func (rt *Runtime) sendReturn(to transport.Addr, callNum uint32, ret returnHeader) {
	rt.sendReturnEncoded(to, callNum, ret.marshal())
}

// sendReturnEncoded transmits an already-encoded return message, so
// the reply fan-out and duplicate replay reuse one encoding.
func (rt *Runtime) sendReturnEncoded(to transport.Addr, callNum uint32, data []byte) {
	if rt.tr.EnabledFor(trace.KindReplySent) {
		e := trace.Event{Kind: trace.KindReplySent,
			Peer: to, CallNum: callNum, N: int(binary.BigEndian.Uint16(data))}
		rt.tr.Emit(e)
	}
	// An error only means the runtime is shutting down.
	_ = rt.conn.Reply(to, callNum, data)
}
