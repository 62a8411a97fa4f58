package core

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"circus/internal/collate"
	"circus/internal/pairedmsg"
	"circus/internal/thread"
	"circus/internal/trace"
	"circus/internal/transport"
)

// NoTimeout, as a CallOptions.Timeout or Options.DefaultCallTimeout,
// selects an unbounded call whose termination relies entirely on
// crash detection (§4.2.3) — the historical meaning of a zero
// timeout, which now falls back to the runtime's default bound.
const NoTimeout time.Duration = -1

// CallOptions tunes one replicated procedure call.
type CallOptions struct {
	// Collator constructs the collator applied to the set of return
	// messages; nil means the unanimous default of Circus (§4.3.4).
	Collator func(n int) collate.Collator
	// Timeout bounds the whole call. Zero applies the runtime's
	// DefaultCallTimeout; NoTimeout removes the bound, relying on
	// crash detection (§4.2.3) for termination.
	Timeout time.Duration
	// AsTroupe identifies the calling module's own troupe when the
	// call is not made from inside a ServerCall (whose nested calls
	// attach it automatically). Servers use it to collate the call
	// messages of all members of that troupe (§4.3.2).
	AsTroupe TroupeID
	// Thread supplies the thread context explicitly when the call is
	// not made from inside a ServerCall and the context.Context does
	// not carry one. Replicated callers must supply equal thread IDs
	// and call paths for their calls to collate as one (§4.3.2).
	Thread *thread.Context

	// clientTroupe and thread are filled by ServerCall.Call when a
	// troupe member makes a nested call on behalf of a propagated
	// thread.
	clientTroupe TroupeID
	thread       *thread.Context
}

// CallEach performs the one-to-many half of a replicated procedure
// call (§4.3.1): the same call message goes to every member of the
// server troupe, and the returned channel yields one item per member —
// its return message, or the error that befell it. The channel is the
// "generator of messages from a troupe" of Figure 7.11, the basis of
// explicit replication (§7.4). Each item owns its Data.
//
// Regardless of how many items the caller consumes, every server
// troupe member receives the call: exactly-once execution at all
// members does not depend on the client's collation policy.
func (rt *Runtime) CallEach(ctx context.Context, dest Troupe, proc uint16, args []byte, opts CallOptions) <-chan collate.Item {
	items := make(chan collate.Item, len(dest.Members))
	if len(dest.Members) == 0 {
		rt.callHeader(ctx, dest, proc, args, &opts, 0)
		return items
	}
	cs := rt.newCallState(dest.Members, false)
	cs.each = items
	rt.issue(ctx, cs, dest, proc, args, opts)
	return items
}

// issue sends a call's message to every leg of cs and arms its
// deadline and context watch. The call message is identical for every
// member that shares a module number — the common case, since troupe
// members are replicas of one module — so the header is marshalled
// once and all members get the same bytes, or one multicast.
func (rt *Runtime) issue(ctx context.Context, cs *callState, dest Troupe, proc uint16, args []byte, opts CallOptions) {
	hdr := rt.callHeader(ctx, dest, proc, args, &opts, len(cs.legs))
	same := true
	for i := range cs.legs[1:] {
		if cs.legs[i+1].m.Module != cs.legs[0].m.Module {
			same = false
			break
		}
	}
	if !same || !rt.multicastEach(cs, hdr) {
		var shared []byte
		if same {
			hdr.Module = cs.legs[0].m.Module
			shared = hdr.marshal()
		}
		for i := range cs.legs {
			l := &cs.legs[i]
			data := shared
			if !same {
				hdr.Module = l.m.Module
				data = hdr.marshal()
			}
			l.call(data)
		}
	}
	cs.issued(ctx, rt.timeout(opts))
}

// callHeader resolves the thread a call runs on, takes its next call
// path, records the call as issued, and returns the call message's
// header, all but the module number.
func (rt *Runtime) callHeader(ctx context.Context, dest Troupe, proc uint16, args []byte, opts *CallOptions, n int) callHeader {
	tc := opts.thread
	if tc == nil {
		tc = opts.Thread
	}
	if tc == nil {
		tc = thread.FromContext(ctx)
	}
	if tc == nil {
		tc = rt.NewThread()
	}
	if opts.clientTroupe == 0 {
		opts.clientTroupe = opts.AsTroupe
	}
	path := tc.NextCallPath()
	if rt.tr.EnabledFor(trace.KindCallIssued) {
		rt.tr.Emit(trace.Event{Kind: trace.KindCallIssued,
			Troupe: uint64(dest.ID), Proc: proc,
			ThreadHost: tc.ID().Host, ThreadProc: tc.ID().Proc, Path: path,
			N: n})
	}
	return callHeader{
		ThreadHost:   tc.ID().Host,
		ThreadProc:   tc.ID().Proc,
		Path:         path,
		ClientTroupe: uint64(opts.clientTroupe),
		DestTroupe:   uint64(dest.ID), // incarnation check applies (§6.2)
		Proc:         proc,
		Args:         args,
	}
}

// timeout is the bound on a call made with opts; zero or less means
// none.
func (rt *Runtime) timeout(opts CallOptions) time.Duration {
	if opts.Timeout == 0 {
		return rt.opts.DefaultCallTimeout
	}
	return opts.Timeout
}

// multicastEach attempts the multicast implementation of the
// one-to-many call (§4.3.3): when the runtime has multicast enabled,
// the endpoint supports it, and every member shares a module number
// (so the call message is identical for all), the call message is
// transmitted to the whole troupe in one network operation — m+n
// messages instead of m·n. It reports whether it took responsibility
// for the call; the caller has checked the module numbers.
func (rt *Runtime) multicastEach(cs *callState, hdr callHeader) bool {
	if !rt.opts.Multicast || len(cs.legs) < 2 {
		return false
	}
	hdr.Module = cs.legs[0].m.Module
	data := hdr.marshal()
	group, obs := cs.groupArr[:0], cs.obsArr[:0]
	for i := range cs.legs {
		group, obs = append(group, cs.legs[i].m.Addr), append(obs, &cs.legs[i])
	}
	// Two-phase send: AppendCallMulticast allocates the call number and
	// registers the transfers without transmitting, so every leg knows
	// its call number before any call message is on the wire.
	transfers, callNum, err := rt.conn.AppendCallMulticast(cs.transfersArr[:0], group, data, obs)
	if err != nil {
		return false // no multicast support (or closing): fall back to unicast
	}
	for i := range cs.legs {
		cs.legs[i].callNum = callNum
	}
	rt.conn.TransmitMulticast(group, transfers)
	return true
}

// A callState is the client side of one replicated call in flight: a
// leg per server troupe member, the collator their items go to (or
// CallEach's channel), and the call's deadline. No goroutine waits on
// a leg; the event that ends it finishes it (see leg), and adds its
// item to the call under the state's lock while the message layer
// still holds the return it came in. The caller parks once, until the
// collator decides. States are pooled: the call's last holder to let
// go — its caller, its last leg, or a deadline or context watch that
// fired — recycles it.
type callState struct {
	rt      *Runtime
	legs    []leg
	legsArr [4]leg // typical troupe degrees, no heap growth
	// open counts unfinished legs, plus one while the call is being
	// issued; refs counts the holders: open > 0, the caller until it
	// has read the decision, and the deadline and the caller-context
	// watch while armed.
	open    atomic.Int32
	refs    atomic.Int32
	timer   *time.Timer // the deadline, created once per pooled state
	stopCtx func() bool // disarms the caller-context watch; nil if none

	// Collation, under mu. Every item reaches rc, if set; then either
	// CallEach's channel (each), or, until the decision, col. pending
	// counts the waited-for legs not yet heard from; when col decides,
	// or pending reaches zero, the call is decided and its caller
	// woken on wake, which belongs to the pooled state.
	mu           sync.Mutex
	each         chan<- collate.Item
	col          collate.Collator
	unan         collate.UnanimousCollator // the default col, reset per call
	lone         loneCollator              // CallMember's col
	rc           *ResilientCaller
	pending      int
	decided      bool
	stale        bool           // a member rejected the binding before the decision
	got          []collate.Item // the items col saw, without their Data
	gotArr       [4]collate.Item
	wake         chan struct{}
	groupArr     [4]transport.Addr // multicastEach's group, observers and transfers
	obsArr       [4]pairedmsg.CallObserver
	transfersArr [4]pairedmsg.Transfer
}

var callStatePool = sync.Pool{New: func() any { return &callState{wake: make(chan struct{}, 1)} }}

// newCallState takes a pooled state with a leg per member; caller
// tells whether a caller will await the decision.
func (rt *Runtime) newCallState(members []ModuleAddr, caller bool) *callState {
	cs := callStatePool.Get().(*callState)
	cs.rt = rt
	if len(members) <= len(cs.legsArr) {
		cs.legs = cs.legsArr[:len(members)]
	} else {
		cs.legs = make([]leg, len(members))
	}
	for i, m := range members {
		l := &cs.legs[i]
		l.cs, l.idx, l.m, l.waited = cs, i, m, true
		l.done.Store(false)
	}
	cs.got = cs.gotArr[:0]
	cs.open.Store(int32(len(members)) + 1)
	refs := int32(1)
	if caller {
		refs++
	}
	cs.refs.Store(refs)
	return cs
}

// collate readies cs to collate with opts' collator, and, for a
// resilient caller rc, chooses the legs it waits for: those of the
// members rc does not suspect, or all of them if it suspects every
// one — suspicion is only a hint. A suspected member still gets the
// call message, and its item still reaches rc, but it is evidence, not
// input.
func (cs *callState) collate(opts CallOptions, rc *ResilientCaller) {
	active := len(cs.legs)
	if rc != nil {
		cs.rc = rc
		active = 0
		for i := range cs.legs {
			l := &cs.legs[i]
			l.waited = !rc.sus.Suspected(l.m)
			if l.waited {
				active++
			}
		}
		if active == 0 {
			for i := range cs.legs {
				cs.legs[i].waited = true
			}
			active = len(cs.legs)
		}
	}
	cs.pending = active
	if opts.Collator != nil {
		cs.col = opts.Collator(active)
	} else {
		cs.unan.Reset(active)
		cs.col = &cs.unan
	}
}

// add is a leg's item reaching its call. It runs while the message
// layer still holds the return the item's Data views, so only a
// collator that keeps the bytes copies them, and CallEach's channel
// gets a copy of its own.
func (cs *callState) add(l *leg, it collate.Item) {
	if cs.rc != nil {
		cs.rc.observe(l.m, it.Err)
	}
	wake := false
	cs.mu.Lock()
	switch {
	case cs.each != nil:
		it.Data = bytes.Clone(it.Data)
		cs.each <- it // never blocks: a slot per member
	case !cs.decided:
		if _, ok := it.Err.(*StaleBindingError); ok {
			cs.stale = true
		}
		if !l.waited {
			break
		}
		cs.pending--
		cs.got = append(cs.got, collate.Item{Member: it.Member, Err: it.Err})
		if cs.col.Add(it) || cs.pending == 0 {
			cs.decided, wake = true, true
		}
	}
	cs.mu.Unlock()
	if wake {
		cs.wake <- struct{}{} // the caller holds cs until it has this
	}
}

// await parks the caller until the call is decided, reads the
// decision, and lets go of the state. n is the number of items the
// collator saw; stale reports a stale-binding rejection before the
// decision.
func (cs *callState) await() (res []byte, n int, stale bool, err error) {
	<-cs.wake
	res, err = cs.col.Result()
	if err != nil && errors.Is(err, collate.ErrAllFailed) {
		err = summarizeFailure(cs.got)
	}
	n, stale = len(cs.got), cs.stale
	cs.release()
	return res, n, stale, err
}

// loneCollator is CallMember's: the member's item decides, whatever it
// is.
type loneCollator struct{ it collate.Item }

func (c *loneCollator) Add(it collate.Item) bool {
	c.it = it
	c.it.Data = bytes.Clone(it.Data)
	return true
}

func (c *loneCollator) Result() ([]byte, error) { return c.it.Data, c.it.Err }

// issued ends the issuing of a call: every leg is now either finished
// or observing its exchange, whose call number it knows, so the call's
// deadline and its caller's context may finish the rest. Only a
// context that can end is watched.
func (cs *callState) issued(ctx context.Context, timeout time.Duration) {
	if timeout > 0 {
		cs.refs.Add(1)
		if cs.timer == nil {
			cs.timer = time.AfterFunc(timeout, cs.deadline)
		} else {
			cs.timer.Reset(timeout)
		}
	}
	if ctx.Done() != nil {
		cs.refs.Add(1)
		cs.stopCtx = context.AfterFunc(ctx, func() {
			cs.expire(ctx.Err())
			cs.release()
		})
	}
	cs.legDone()
}

// deadline is the deadline timer's body.
func (cs *callState) deadline() {
	cs.expire(context.DeadlineExceeded)
	cs.release()
}

// expire finishes every leg still open with err, abandoning its
// exchange.
func (cs *callState) expire(err error) {
	for i := range cs.legs {
		cs.legs[i].finish(collate.Item{Member: cs.legs[i].idx, Err: err}, true)
	}
}

// legDone counts one leg (or the issuing) finished; the last disarms
// the deadline and the context watch, each of which releases its hold
// itself if it already fired.
func (cs *callState) legDone() {
	if cs.open.Add(-1) != 0 {
		return
	}
	if cs.timer != nil && cs.timer.Stop() {
		cs.release()
	}
	if cs.stopCtx != nil && cs.stopCtx() {
		cs.release()
	}
	cs.release()
}

func (cs *callState) release() {
	if cs.refs.Add(-1) != 0 {
		return
	}
	cs.rt, cs.stopCtx, cs.each, cs.col, cs.rc = nil, nil, nil, nil, nil
	cs.unan.Reset(0)
	cs.lone = loneCollator{}
	cs.pending, cs.decided, cs.stale = 0, false, false
	clear(cs.gotArr[:])
	cs.got = nil
	clear(cs.legsArr[:])
	cs.legs = nil
	clear(cs.groupArr[:])
	clear(cs.obsArr[:])
	clear(cs.transfersArr[:])
	callStatePool.Put(cs)
}

// A leg is one member's share of a replicated call: its call message
// out, its return (or failure) back. It is the observer of its
// exchange, so the paired message layer hands it the return itself. It
// finishes exactly once, claimed by the CAS on done: the return arrives
// (Returned), the paired message layer reports the call failed or the
// member down (CallFailed), or the call gives up — its deadline passed,
// its caller's context ended, its message could not be sent (expire,
// call). Whichever comes first pushes the member's item.
//
// A recycled leg is never handed a stale return: the paired message
// layer calls an observer only while its exchange is registered, under
// the session lock, and a leg that ends any other way abandons its
// exchange under that lock before it pushes, which is what lets its
// callState be recycled.
type leg struct {
	cs      *callState
	idx     int
	m       ModuleAddr
	waited  bool // the collator waits for this member's item
	done    atomic.Bool
	callNum uint32 // set before the call message is transmitted
}

// call sends one leg's pre-marshalled call message. BeginObservedCall
// allocates the call number and registers the transfer with the leg as
// observer; the leg records the number before the message goes on the
// wire, and so before issued arms anything that may abandon it, and
// lets go of the transfer, which the message layer reuses, at
// Transmit. A closed runtime surfaces as ErrClosed from
// BeginObservedCall.
func (l *leg) call(data []byte) {
	conn := l.cs.rt.conn
	t, err := conn.BeginObservedCall(l.m.Addr, data, l)
	if err != nil {
		l.finish(collate.Item{Member: l.idx, Err: memberErr(err)}, false)
		return
	}
	l.callNum = t.CallNum()
	conn.Transmit(t)
}

// Returned implements pairedmsg.CallObserver: the member's return
// message arrived. The paired message layer holds the session lock and
// has already forgotten the exchange; the message's bytes are valid
// until Returned returns, which covers the item's way into the
// collator. A garbled return is dropped, as a lost one would be.
func (l *leg) Returned(msg pairedmsg.Message) {
	var ret returnHeader
	if err := ret.unmarshal(msg.Data); err != nil {
		return
	}
	if l.done.CompareAndSwap(false, true) {
		l.push(decodeReturn(l.idx, l.m, ret))
	}
}

// CallFailed implements pairedmsg.CallObserver: the call message was
// never acknowledged, or the member stopped answering probes while it
// computed (§4.2.3). The paired message layer holds the session lock
// and has already forgotten the exchange.
func (l *leg) CallFailed(err error) {
	l.finish(collate.Item{Member: l.idx, Err: memberErr(err)}, false)
}

// finish ends the leg with it unless it already ended. abandon tells
// the paired message layer to stop retransmitting or probing for it,
// and to hand the leg nothing more.
func (l *leg) finish(it collate.Item, abandon bool) {
	if !l.done.CompareAndSwap(false, true) {
		return
	}
	if abandon {
		l.cs.rt.conn.Abandon(l.m.Addr, l.callNum)
	}
	l.push(it)
}

// push hands the leg's item to its call; the leg may be recycled as
// soon as it returns. It never blocks, so it may run under the message
// layer's session lock.
func (l *leg) push(it collate.Item) {
	cs := l.cs
	cs.rt.traceReply(l.m, it)
	cs.add(l, it)
	cs.legDone()
}

// traceReply records one member's contribution to a replicated call
// as it is handed to the collator.
func (rt *Runtime) traceReply(m ModuleAddr, it collate.Item) {
	if !rt.tr.EnabledFor(trace.KindMemberReply) {
		return
	}
	e := trace.Event{Kind: trace.KindMemberReply,
		Peer: m.Addr, Module: m.Module, Member: it.Member}
	if it.Err != nil {
		e.Err = it.Err.Error()
	}
	rt.tr.Emit(e)
}

// Call performs a replicated procedure call and collates the results.
// With the default unanimous collator it waits for all members,
// demands identical return messages, and so detects any inconsistency
// among the troupe (§4.3.4); other collators trade that error
// detection for latency.
func (rt *Runtime) Call(ctx context.Context, dest Troupe, proc uint16, args []byte, opts CallOptions) ([]byte, error) {
	if dest.Degree() == 0 {
		return nil, ErrTroupeDown
	}
	var started time.Time
	traced := rt.tr.EnabledFor(trace.KindCollateDone)
	if traced {
		started = time.Now()
	}
	res, n, _, err := rt.collated(ctx, dest, proc, args, opts, nil)
	if traced {
		e := trace.Event{Kind: trace.KindCollateDone,
			Troupe: uint64(dest.ID), Proc: proc,
			N: n, Dur: time.Since(started)}
		if err != nil {
			e.Err = err.Error()
		}
		rt.tr.Emit(e)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// collated is the one collation path of a replicated call, Call's and
// a ResilientCaller's attempt's (rc): it issues the call to every
// member of dest and parks until the collator decides.
func (rt *Runtime) collated(ctx context.Context, dest Troupe, proc uint16, args []byte, opts CallOptions, rc *ResilientCaller) (res []byte, n int, stale bool, err error) {
	cs := rt.newCallState(dest.Members, true)
	cs.collate(opts, rc)
	rt.issue(ctx, cs, dest, proc, args, opts)
	return cs.await()
}

// CallMember performs a one-member procedure call: the call message
// goes to a single troupe member and that member's lone reply is
// returned directly, with no collation — one leg, whose item decides
// the call. It is the client half of a spread read (mesh routing a
// read to one replica):
// the member still deduplicates by thread ID and call path, so
// exactly-once execution holds per attempt, but none of the error
// detection of the replicated call applies — the caller has chosen to
// trust one member, and must bring its own staleness defense (the
// mesh layer's position token).
func (rt *Runtime) CallMember(ctx context.Context, dest Troupe, member int, proc uint16, args []byte, opts CallOptions) ([]byte, error) {
	if member < 0 || member >= len(dest.Members) {
		return nil, errors.New("core: member index out of range")
	}
	cs := rt.newCallState(dest.Members[member:member+1], true)
	cs.legs[0].idx = member
	cs.pending, cs.col = 1, &cs.lone
	rt.issue(ctx, cs, dest, proc, args, opts)
	res, _, _, err := cs.await()
	// Yield once the reply is in. Every hop of a one-member call readies
	// the next goroutine and blocks, so a caller looping on such calls
	// would hold a processor through the scheduler's run-next slot while
	// other runnable goroutines (replicated calls, fsync wake-ups) wait
	// behind it; see DESIGN.md "Hot path".
	runtime.Gosched()
	if err != nil {
		return nil, err
	}
	return res, nil
}

// summarizeFailure turns a set of items without a collated result into
// the most actionable error: a stale binding beats a crash report,
// because the client can recover from it by rebinding (§6.1); a troupe
// whose every member was presumed crashed (or that gave no item) is
// down; otherwise the first member's own error.
func summarizeFailure(items []collate.Item) error {
	var stale *StaleBindingError
	allDown := true
	for _, it := range items {
		var s *StaleBindingError
		if errors.As(it.Err, &s) {
			stale = s
		}
		if !errors.Is(it.Err, ErrMemberDown) {
			allDown = false
		}
	}
	switch {
	case stale != nil:
		return stale
	case allDown:
		return ErrTroupeDown
	}
	return items[0].Err
}

func memberErr(err error) error {
	if errors.Is(err, pairedmsg.ErrPeerDown) {
		return ErrMemberDown
	}
	if errors.Is(err, pairedmsg.ErrClosed) {
		return ErrClosed
	}
	return err
}

// decodeReturn turns a member's return header into its item. The
// payload views the message, which is released once the leg is done
// with it, so a collator that keeps it copies it (see package collate).
func decodeReturn(idx int, m ModuleAddr, ret returnHeader) collate.Item {
	switch ret.Status {
	case statusOK:
		return collate.Item{Member: idx, Data: ret.Payload}
	case statusAppError:
		return collate.Item{Member: idx, Err: &AppError{Msg: string(ret.Payload)}}
	case statusBadTroupe:
		return collate.Item{Member: idx, Err: &StaleBindingError{Member: m}}
	case statusNoModule:
		return collate.Item{Member: idx, Err: ErrNoSuchModule}
	default:
		return collate.Item{Member: idx, Err: errors.New("core: malformed call rejected by server")}
	}
}
