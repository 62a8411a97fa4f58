package main

import (
	"sort"
	"sync"
	"time"

	"circus/internal/core"
	"circus/internal/mesh"
	"circus/internal/pairedmsg"
	"circus/internal/thread"
	"circus/internal/trace"
	"circus/internal/transport"
	"circus/internal/wal"
)

// The traced pass attributes one operation's time to layers using only
// what the program already emits: internal/trace events from every
// runtime, plus timing wrappers this file puts around core.Module and
// wal.FS. Nothing inside the program is changed, so some boundaries
// can only be joined by inference; joinSpans says which and how.

// tracedKinds are the events the span join reads; the sink's kind
// filter keeps the runtimes from building any other event.
var tracedKinds = trace.MaskOf(
	trace.KindCallIssued, trace.KindMsgSend, trace.KindMsgDelivered,
	trace.KindCallStart, trace.KindCallDone, trace.KindReplySent,
	trace.KindMemberReply)

// event is the part of a trace.Event the join needs, flattened so the
// sink appends without allocating.
type event struct {
	t       time.Time
	kind    trace.Kind
	msgType uint8
	n       int32
	node    transport.Addr
	peer    transport.Addr
	callNum uint32
	th      thread.ID
}

// modSpan is one Dispatch seen by a module wrapper.
type modSpan struct {
	node       transport.Addr
	th         thread.ID
	outer      bool // outside the guard (false: between guard and KV)
	proc       uint16
	start, end time.Time
}

// fsSpan is one Write or Sync seen by the disk wrapper.
type fsSpan struct {
	sync bool
	dur  time.Duration
}

// rootSpan is one whole operation as the load generator saw it.
type rootSpan struct {
	th         thread.ID
	kind       opKind
	start, end time.Time
	failed     bool
}

// tracer is the benchmark-owned trace.Sink of the traced pass, and the
// store its wrappers write to. Memory is bounded by the pass's
// operation cap.
type tracer struct {
	mu     sync.Mutex
	events []event
	mods   []modSpan
	fs     []fsSpan
	roots  []rootSpan
}

func newTracer() *tracer { return &tracer{events: make([]event, 0, 1<<18)} }

// sink returns the tracer as a trace.Sink restricted to tracedKinds; a
// nil tracer gives the nil sink, which leaves tracing off.
func (t *tracer) sink() trace.Sink {
	if t == nil {
		return nil
	}
	return trace.FilterKinds(t, tracedKinds)
}

// Emit implements trace.Sink.
func (t *tracer) Emit(e trace.Event) {
	ev := event{t: e.T, kind: e.Kind, msgType: e.MsgType, n: int32(e.N),
		node: e.Node, peer: e.Peer, callNum: e.CallNum,
		th: thread.ID{Host: e.ThreadHost, Proc: e.ThreadProc}}
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// reset discards what the warm-up of the traced system recorded.
func (t *tracer) reset() {
	t.mu.Lock()
	t.events, t.mods, t.fs, t.roots = t.events[:0], nil, nil, nil
	t.mu.Unlock()
}

func (t *tracer) root(th thread.ID, kind opKind, start, end time.Time, failed bool) {
	t.mu.Lock()
	t.roots = append(t.roots, rootSpan{th: th, kind: kind, start: start, end: end, failed: failed})
	t.mu.Unlock()
}

// timedModule times Dispatch around the module it wraps. One sits
// outside each guard and one between the guard and its KV; the guard's
// own time is the difference.
type timedModule struct {
	inner core.Module
	pos   mesh.Positioned // the KV, for the wrapper the guard asks for a position
	tr    *tracer
	node  transport.Addr
	outer bool
}

func (m *timedModule) Dispatch(call *core.ServerCall, proc uint16, args []byte) ([]byte, error) {
	start := time.Now()
	res, err := m.inner.Dispatch(call, proc, args)
	end := time.Now()
	m.tr.mu.Lock()
	m.tr.mods = append(m.tr.mods, modSpan{node: m.node, th: call.Thread().ID(), outer: m.outer, proc: proc, start: start, end: end})
	m.tr.mu.Unlock()
	return res, err
}

// Position implements mesh.Positioned for the wrapper under the guard.
func (m *timedModule) Position() int { return m.pos.Position() }

// timedFS times every Write and Sync of the files created through it.
type timedFS struct {
	wal.FS
	tr *tracer
}

func (f timedFS) Create(name string) (wal.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return timedFile{File: file, tr: f.tr}, nil
}

func (f timedFS) Sub(name string) wal.FS { return timedFS{FS: f.FS.Sub(name), tr: f.tr} }

type timedFile struct {
	wal.File
	tr *tracer
}

func (f timedFile) note(sync bool, start time.Time) {
	d := time.Since(start)
	f.tr.mu.Lock()
	f.tr.fs = append(f.tr.fs, fsSpan{sync: sync, dur: d})
	f.tr.mu.Unlock()
}

func (f timedFile) Write(p []byte) (int, error) {
	defer f.note(false, time.Now())
	return f.File.Write(p)
}

func (f timedFile) Sync() error {
	defer f.note(true, time.Now())
	return f.File.Sync()
}

// spanStats are the per-layer durations of the traced pass, one slice
// per span name, plus how many operations could be joined.
type spanStats struct {
	durs          map[string][]time.Duration
	ops           int     // successful primary operations seen
	joined        int     // of those, operations whose every boundary was found
	multiAttempt  int     // operations that issued more than one call (retry, bounce, escalation)
	unattribShare float64 // p50 unattributed / p50 root
}

type legKey struct {
	from, to transport.Addr
	typ      uint8
	callNum  uint32
}

type memberKey struct {
	th   thread.ID
	node transport.Addr
}

// leg is one member's part of an operation.
type leg struct {
	send, deliv, start, done time.Time
	reply                    time.Time
	outer, inner             time.Duration
	haveOuter, haveInner     bool
}

// joinSpans rebuilds each primary operation from the recorded events.
//
// Exact joins: call.issued, exec.start and exec.done carry the thread
// ID the load generator chose for the operation; msg.send and
// msg.delivered carry (node, peer, type, call number), which names one
// message on one leg.
//
// Inferred joins, each "needs an in-program span" to become exact:
//   - call number of a leg: exec.reply-sent (peer, call number) is
//     emitted by the goroutine that just emitted exec.done (thread), so
//     on each server node the oldest unpaired exec.done for that client
//     takes the reply-sent's call number;
//   - call.member-reply carries only the member's address: on each
//     client node the i-th member-reply for a peer takes the i-th
//     return message delivered from that peer.
//
// call.collated is not used: calls routed through a ResilientCaller (all
// mesh traffic) never emit it, so the collator's decision is part of
// core.return_us on every workload.
//
// A wrong inference swaps two operations that were within microseconds
// of each other on one node; an operation whose boundaries come out of
// order is counted as not joined and left out.
func (t *tracer) joinSpans(primary opKind) *spanStats {
	st := &spanStats{durs: make(map[string][]time.Duration)}
	events := t.events
	sort.SliceStable(events, func(i, j int) bool { return events[i].t.Before(events[j].t) })

	type issue struct {
		t      time.Time
		node   transport.Addr
		degree int32
		count  int
	}
	issued := make(map[thread.ID]*issue)
	for _, e := range events {
		if e.kind == trace.KindCallIssued && e.th.Host == tracedThreadHost {
			if is := issued[e.th]; is != nil {
				is.count++
			} else {
				issued[e.th] = &issue{t: e.t, node: e.node, degree: e.n, count: 1}
			}
		}
	}

	sendAt := make(map[legKey]time.Time)
	delivAt := make(map[legKey]time.Time)
	legs := make(map[memberKey]*leg)
	legCall := make(map[memberKey]uint32)
	pendingDone := make(map[[2]transport.Addr][]thread.ID) // (server, client) -> exec.done awaiting reply-sent
	returned := make(map[[2]transport.Addr][]uint32)       // (client, server) -> delivered returns awaiting member-reply
	replyAt := make(map[legKey]time.Time)                  // keyed as the call leg (client -> server)
	for _, e := range events {
		switch e.kind {
		case trace.KindMsgSend:
			k := legKey{e.node, e.peer, e.msgType, e.callNum}
			if _, dup := sendAt[k]; !dup {
				sendAt[k] = e.t
			}
		case trace.KindMsgDelivered:
			delivAt[legKey{e.peer, e.node, e.msgType, e.callNum}] = e.t
			if e.msgType == uint8(pairedmsg.Return) {
				k := [2]transport.Addr{e.node, e.peer}
				returned[k] = append(returned[k], e.callNum)
			}
		case trace.KindCallStart, trace.KindCallDone:
			is := issued[e.th]
			if is == nil {
				continue
			}
			mk := memberKey{e.th, e.node}
			l := legs[mk]
			if l == nil {
				l = &leg{}
				legs[mk] = l
			}
			if e.kind == trace.KindCallStart {
				l.start = e.t
			} else {
				l.done = e.t
				k := [2]transport.Addr{e.node, is.node}
				pendingDone[k] = append(pendingDone[k], e.th)
			}
		case trace.KindReplySent:
			k := [2]transport.Addr{e.node, e.peer}
			if q := pendingDone[k]; len(q) > 0 {
				legCall[memberKey{q[0], e.node}] = e.callNum
				pendingDone[k] = q[1:]
			}
		case trace.KindMemberReply:
			k := [2]transport.Addr{e.node, e.peer}
			if q := returned[k]; len(q) > 0 {
				replyAt[legKey{e.node, e.peer, uint8(pairedmsg.Call), q[0]}] = e.t
				returned[k] = q[1:]
			}
		}
	}

	for _, m := range t.mods {
		if l := legs[memberKey{m.th, m.node}]; l != nil {
			if m.outer {
				l.outer, l.haveOuter = m.end.Sub(m.start), true
			} else {
				l.inner, l.haveInner = m.end.Sub(m.start), true
			}
		}
	}
	legsOf := make(map[thread.ID][]*leg)
	for mk, l := range legs {
		is := issued[mk.th]
		call, ok := legCall[mk]
		if !ok {
			continue
		}
		k := legKey{is.node, mk.node, uint8(pairedmsg.Call), call}
		l.send, l.deliv, l.reply = sendAt[k], delivAt[k], replyAt[k]
		legsOf[mk.th] = append(legsOf[mk.th], l)
	}

	add := func(name string, d time.Duration) { st.durs[name] = append(st.durs[name], d) }
	for _, r := range t.roots {
		if r.failed || r.kind != primary {
			continue
		}
		st.ops++
		is := issued[r.th]
		if is == nil {
			continue
		}
		if is.count > 1 {
			st.multiAttempt++
			continue
		}
		ls := legsOf[r.th]
		if len(ls) != int(is.degree) {
			continue
		}
		slow, firstReply, lastSend := ls[0], ls[0].reply, ls[0].send
		for _, l := range ls[1:] {
			if l.reply.After(slow.reply) {
				slow = l
			}
			if l.reply.Before(firstReply) {
				firstReply = l.reply
			}
			if l.send.After(lastSend) {
				lastSend = l.send
			}
		}
		// The boundaries along the slowest member's path, in order.
		chain := []time.Time{r.start, is.t, slow.send, slow.deliv, slow.start, slow.done, slow.reply, r.end}
		ok := true
		for i := range chain {
			if chain[i].IsZero() || (i > 0 && chain[i].Before(chain[i-1])) {
				ok = false
			}
		}
		if !ok {
			continue
		}
		st.joined++
		add("span.root_us", r.end.Sub(r.start))
		add("mesh.route_us", is.t.Sub(r.start))
		add("core.fanout_us", lastSend.Sub(is.t))
		add("pairedmsg.request_wire_us", slow.deliv.Sub(slow.send))
		add("core.dispatch_wait_us", slow.start.Sub(slow.deliv))
		add("core.reply_path_us", slow.reply.Sub(slow.done))
		if is.degree > 1 {
			add("core.collate_wait_us", slow.reply.Sub(firstReply))
		}
		add("core.return_us", r.end.Sub(slow.reply))
		// Everything between consecutive boundaries has a name except the
		// execution itself, where only the wrappers' time is named.
		named := time.Duration(0)
		if slow.haveOuter {
			named = slow.outer
			if slow.haveInner {
				add("mesh.guard_us", slow.outer-slow.inner)
			}
		}
		add("span.unattributed_us", slow.done.Sub(slow.start)-named)
	}
	for _, m := range t.mods {
		if m.outer || m.th.Host != tracedThreadHost {
			continue
		}
		switch m.proc {
		case procGet:
			add("kv.exec_read_us", m.end.Sub(m.start))
		case procPut:
			add("kv_wal.exec_write_us", m.end.Sub(m.start))
		}
	}
	for _, f := range t.fs {
		if f.sync {
			add("wal.fsync_us", f.dur)
		} else {
			add("wal.write_us", f.dur)
		}
	}
	for _, d := range st.durs {
		sortDurations(d)
	}
	if root := quantile(st.durs["span.root_us"], 0.5); root > 0 {
		st.unattribShare = float64(quantile(st.durs["span.unattributed_us"], 0.5)) / float64(root)
	}
	return st
}
