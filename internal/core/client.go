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
// explicit replication (§7.4).
//
// Regardless of how many items the caller consumes, every server
// troupe member receives the call: exactly-once execution at all
// members does not depend on the client's collation policy.
func (rt *Runtime) CallEach(ctx context.Context, dest Troupe, proc uint16, args []byte, opts CallOptions) <-chan collate.Item {
	items := make(chan collate.Item, len(dest.Members))
	hdr := rt.callHeader(ctx, dest, proc, args, &opts, len(dest.Members))
	if len(dest.Members) == 0 {
		return items
	}
	// The call message is identical for every member that shares a
	// module number — the common case, since troupe members are
	// replicas of one module — so the header is marshalled once and
	// all members get the same bytes, or one multicast.
	same := true
	for _, m := range dest.Members[1:] {
		if m.Module != dest.Members[0].Module {
			same = false
			break
		}
	}
	cs := rt.newCallState(items, dest.Members)
	if !same || !rt.multicastEach(cs, hdr) {
		var shared []byte
		if same {
			hdr.Module = dest.Members[0].Module
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
	return items
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
	group := make([]transport.Addr, len(cs.legs))
	obs := make([]pairedmsg.CallObserver, len(cs.legs))
	for i := range cs.legs {
		group[i], obs[i] = cs.legs[i].m.Addr, &cs.legs[i]
	}
	// Two-phase send: BeginCallMulticast allocates the call number and
	// registers the transfers without transmitting, so every leg knows
	// its call number before any call message is on the wire.
	transfers, callNum, err := rt.conn.BeginCallMulticast(group, data, obs)
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
// leg per server troupe member, the channel their items go to, and the
// call's deadline. No goroutine waits on a leg; the event that ends it
// finishes it (see leg). States are pooled: the call's last holder to
// let go — its last leg, or a deadline or context watch that fired —
// recycles it.
type callState struct {
	rt      *Runtime
	items   chan<- collate.Item
	legs    []leg
	legsArr [4]leg // typical troupe degrees, no heap growth
	// open counts unfinished legs, plus one while the call is being
	// issued; refs counts the holders: open > 0, and the deadline and
	// the caller-context watch while armed.
	open    atomic.Int32
	refs    atomic.Int32
	timer   *time.Timer // the deadline, created once per pooled state
	stopCtx func() bool // disarms the caller-context watch; nil if none
}

var callStatePool = sync.Pool{New: func() any { return new(callState) }}

func (rt *Runtime) newCallState(items chan<- collate.Item, members []ModuleAddr) *callState {
	cs := callStatePool.Get().(*callState)
	cs.rt, cs.items = rt, items
	if len(members) <= len(cs.legsArr) {
		cs.legs = cs.legsArr[:len(members)]
	} else {
		cs.legs = make([]leg, len(members))
	}
	for i, m := range members {
		l := &cs.legs[i]
		l.cs, l.idx, l.m = cs, i, m
		l.done.Store(false)
	}
	cs.open.Store(int32(len(members)) + 1)
	cs.refs.Store(1)
	return cs
}

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
	cs.rt, cs.items, cs.stopCtx = nil, nil, nil
	clear(cs.legsArr[:])
	cs.legs = nil
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
	done    atomic.Bool
	callNum uint32 // set before the call message is transmitted
}

// call sends one leg's pre-marshalled call message. BeginObservedCall
// allocates the call number and registers the transfer with the leg as
// observer; the leg records the number before the message goes on the
// wire, and so before issued arms anything that may abandon it. A
// closed runtime surfaces as ErrClosed from BeginObservedCall.
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
// has already forgotten the exchange. A garbled return is dropped, as
// a lost one would be.
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

// push hands the leg's item to the collator; the leg may be recycled
// as soon as it returns. It never blocks, since items has a slot per
// member, so it may run under the message layer's session lock.
func (l *leg) push(it collate.Item) {
	cs := l.cs
	cs.rt.traceReply(l.m, it)
	cs.items <- it
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
	n := dest.Degree()
	if n == 0 {
		return nil, ErrTroupeDown
	}
	mk := opts.Collator
	if mk == nil {
		mk = collate.Unanimous
	}
	c := mk(n)
	var started time.Time
	traced := rt.tr.EnabledFor(trace.KindCollateDone)
	if traced {
		started = time.Now()
	}
	items := rt.CallEach(ctx, dest, proc, args, opts)

	var gotArr [8]collate.Item // typical troupe degrees, no heap growth
	got := gotArr[:0]
	for i := 0; i < n; i++ {
		it, ok := <-items
		if !ok {
			break
		}
		got = append(got, it)
		if c.Add(it) {
			break
		}
	}
	res, err := c.Result()
	if err != nil && errors.Is(err, collate.ErrAllFailed) {
		err = summarizeFailure(got)
	}
	if traced {
		e := trace.Event{Kind: trace.KindCollateDone,
			Troupe: uint64(dest.ID), Proc: proc,
			N: len(got), Dur: time.Since(started)}
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

// CallMember performs a one-member procedure call: the call message
// goes to a single troupe member and that member's lone reply is
// returned directly, bypassing collation entirely — no collator, one
// leg. It is the client half of a spread read (mesh routing a read to
// one replica):
// the member still deduplicates by thread ID and call path, so
// exactly-once execution holds per attempt, but none of the error
// detection of the replicated call applies — the caller has chosen to
// trust one member, and must bring its own staleness defense (the
// mesh layer's position token).
func (rt *Runtime) CallMember(ctx context.Context, dest Troupe, member int, proc uint16, args []byte, opts CallOptions) ([]byte, error) {
	if member < 0 || member >= len(dest.Members) {
		return nil, errors.New("core: member index out of range")
	}
	items := make(chan collate.Item, 1)
	hdr := rt.callHeader(ctx, dest, proc, args, &opts, 1)
	hdr.Module = dest.Members[member].Module
	data := hdr.marshal()
	cs := rt.newCallState(items, dest.Members[member:member+1])
	cs.legs[0].idx = member
	cs.legs[0].call(data)
	cs.issued(ctx, rt.timeout(opts))
	it := <-items
	// Yield once the reply is in. Every hop of a one-member call readies
	// the next goroutine and blocks, so a caller looping on such calls
	// would hold a processor through the scheduler's run-next slot while
	// other runnable goroutines (replicated calls, fsync wake-ups) wait
	// behind it; see DESIGN.md "Hot path".
	runtime.Gosched()
	if it.Err != nil {
		return nil, it.Err
	}
	return it.Data, nil
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
// with it, so what escapes to the caller is copied here, once.
func decodeReturn(idx int, m ModuleAddr, ret returnHeader) collate.Item {
	switch ret.Status {
	case statusOK:
		return collate.Item{Member: idx, Data: bytes.Clone(ret.Payload)}
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
