package core

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"circus/internal/netsim"
	"circus/internal/pairedmsg"
	"circus/internal/thread"
	"circus/internal/tomb"
	"circus/internal/trace"
	"circus/internal/transport"
)

// clientPair is a two-member client troupe in front of one traced
// ArgFirstCome server: the first member's call message executes the
// call, the second's finds whatever the server kept of it.
type clientPair struct {
	server   *Runtime
	mod      *echoModule
	dest     Troupe
	c1, c2   *Runtime
	troupeID TroupeID
	rec      *trace.Recorder
}

func newClientPair(t *testing.T, seed int64, mutate func(*Options)) *clientPair {
	t.Helper()
	net := netsim.New(seed)
	resolver := StaticResolver{}
	p := &clientPair{mod: &echoModule{}, troupeID: 0xc11f, rec: trace.NewRecorder()}
	opts := fastOpts()
	opts.Resolver = resolver
	opts.Trace = p.rec
	if mutate != nil {
		mutate(&opts)
	}
	p.server = newRuntime(t, net, opts)
	p.dest = Troupe{Members: []ModuleAddr{p.server.Export(p.mod, ExportOptions{Policy: ArgFirstCome})}}
	p.c1, p.c2 = newRuntime(t, net, opts), newRuntime(t, net, opts)
	resolver[p.troupeID] = []ModuleAddr{{Addr: p.c1.Addr()}, {Addr: p.c2.Addr()}}
	return p
}

// call issues the logical call (tid, path) from one client member.
func (p *clientPair) call(rt *Runtime, tid thread.ID, path []uint32, args []byte) ([]byte, error) {
	prefix, last := path[:len(path)-1], path[len(path)-1]
	tc := thread.Child(tid, prefix)
	for i := uint32(1); i < last; i++ {
		tc.NextCallPath()
	}
	return rt.Call(context.Background(), p.dest, 1, args, CallOptions{thread: tc, clientTroupe: p.troupeID})
}

func kindIs(k trace.Kind) func(trace.Event) bool {
	return func(e trace.Event) bool { return e.Kind == k }
}

// waitBuried waits for the server to hold n tombstones and no live
// call: every call so far has been compacted.
func waitBuried(t *testing.T, rt *Runtime, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		ct := rt.CallTable()
		if ct.Live == 0 && ct.Tombstones == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("call table = %+v, want no live call and %d tombstones", ct, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLateMemberAnsweredFromTombstone: a client troupe member whose
// call message arrives after the call was compacted gets the buffered
// return message byte for byte, with exec.dup-call traced and no second
// exec.start (§4.3.4) — from the slab, from the large-result list, and
// through the string-keyed fallback for a call path deeper than the
// inline key.
func TestLateMemberAnsweredFromTombstone(t *testing.T) {
	deep := []uint32{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if k := keyOf(thread.ID{}, deep, 0, nil); k.deep == nil {
		t.Fatalf("a %d-component path fits the inline block key", len(deep))
	}
	cases := []struct {
		name string
		path []uint32
		size int
	}{
		{"slab", []uint32{4}, 16},
		{"empty", []uint32{5}, 0},
		{"large", []uint32{6}, 4 * slabMax},
		{"deep-path", deep, 16},
		{"deep-path-large", append(append([]uint32(nil), deep...), 2), 4 * slabMax},
	}
	p := newClientPair(t, 60, nil)
	tid := thread.ID{Host: 77, Proc: 3}
	for i, tc := range cases {
		args := bytes.Repeat([]byte{byte('a' + i)}, tc.size)
		first, err := p.call(p.c1, tid, tc.path, args)
		if err != nil {
			t.Fatalf("%s: first member: %v", tc.name, err)
		}
		waitBuried(t, p.server, i+1)
		late, err := p.call(p.c2, tid, tc.path, args)
		if err != nil {
			t.Fatalf("%s: late member: %v", tc.name, err)
		}
		if !bytes.Equal(first, args) || !bytes.Equal(late, first) {
			t.Fatalf("%s: first member got %d bytes, late member %d, want the %d sent",
				tc.name, len(first), len(late), len(args))
		}
		if got := p.mod.execs.Load(); got != int64(i+1) {
			t.Fatalf("%s: %d executions after %d calls", tc.name, got, i+1)
		}
		if starts, dups := p.rec.Count(kindIs(trace.KindCallStart)), p.rec.Count(kindIs(trace.KindDupCall)); starts != i+1 || dups != i+1 {
			t.Fatalf("%s: %d exec.start and %d exec.dup-call after %d calls", tc.name, starts, dups, i+1)
		}
	}
	if ct := p.server.CallTable(); ct.Live != 0 || ct.Tombstones != len(cases) {
		t.Fatalf("call table = %+v, want %d tombstones", ct, len(cases))
	}
}

// TestTombstoneSurvivesRotation: a tombstone answers after one rotation
// and after two, and is gone after the third — between one and one and
// a half retention windows after the call finished.
func TestTombstoneSurvivesRotation(t *testing.T) {
	p := newClientPair(t, 61, func(o *Options) { o.CallRetention = time.Hour })
	tid, path := thread.ID{Host: 77, Proc: 4}, []uint32{1}
	if _, err := p.call(p.c1, tid, path, []byte("once")); err != nil {
		t.Fatal(err)
	}
	waitBuried(t, p.server, 1)
	for rotation := 1; rotation <= 2; rotation++ {
		p.server.rotateCalls()
		got, err := p.call(p.c2, tid, path, []byte("once"))
		if err != nil || string(got) != "once" {
			t.Fatalf("after rotation %d: %q, %v", rotation, got, err)
		}
		if p.mod.execs.Load() != 1 {
			t.Fatalf("after rotation %d: re-executed", rotation)
		}
	}
	p.server.rotateCalls()
	if ct := p.server.CallTable(); ct.Tombstones != 0 {
		t.Fatalf("after the third rotation: %+v", ct)
	}
	// Past 1.5 retention windows the call is forgotten: a message
	// bearing its identity is a fresh call.
	if got, err := p.call(p.c2, tid, path, []byte("once")); err != nil || string(got) != "once" {
		t.Fatalf("after the third rotation: %q, %v", got, err)
	}
	if n := p.mod.execs.Load(); n != 2 {
		t.Fatalf("after the third rotation: %d executions, want a second", n)
	}
}

// TestRetryAfterCompactionDoesNotReExecute: the same logical call
// re-issued through a ResilientCaller — same thread ID and call path,
// fresh call number, which is what a client that lost the reply and
// kept its place in the thread sends — is answered from the tombstone.
// (A ResilientCaller's own retries draw a fresh call path each and are
// new calls by design; see resilient.go.)
func TestRetryAfterCompactionDoesNotReExecute(t *testing.T) {
	c, rec := newClusterTraced(t, 62, 3, ExportOptions{})
	rc := NewResilientCaller(c.client, c.troupe, ResilientOptions{MaxAttempts: 3, Seed: 1})
	tid := thread.ID{Host: 9, Proc: 62}
	for attempt := 1; attempt <= 3; attempt++ {
		got, err := rc.Call(context.Background(), 1, []byte("again"),
			CallOptions{thread: thread.Child(tid, []uint32{7})})
		if err != nil || string(got) != "again" {
			t.Fatalf("attempt %d: %q, %v", attempt, got, err)
		}
		for _, s := range c.servers {
			waitBuried(t, s, 1)
		}
	}
	if c.totalExecs() != 3 {
		t.Fatalf("%d executions at 3 members, want one each", c.totalExecs())
	}
	if dups := rec.Count(kindIs(trace.KindDupCall)); dups != 6 {
		t.Fatalf("%d exec.dup-call, want 2 re-issues at 3 members", dups)
	}
}

// TestHandlerRacingCompactionRepliesOnce: two client members send the
// same call at once to an ArgFirstCome server, so the second call
// message meets the first in every state — still collating, finished
// with its handler already holding the record that is being compacted
// underneath it, or already a tombstone. Whichever it is, the call
// executes once and every call message gets exactly one reply.
func TestHandlerRacingCompactionRepliesOnce(t *testing.T) {
	const calls = 200
	p := newClientPair(t, 63, nil)
	tid := thread.ID{Host: 77, Proc: 5}
	for i := 1; i <= calls; i++ {
		var wg sync.WaitGroup
		for _, rt := range []*Runtime{p.c1, p.c2} {
			wg.Add(1)
			go func(rt *Runtime) {
				defer wg.Done()
				if got, err := p.call(rt, tid, []uint32{uint32(i)}, []byte("r")); err != nil || string(got) != "r" {
					t.Errorf("call %d from %v: %q, %v", i, rt.Addr(), got, err)
				}
			}(rt)
		}
		wg.Wait()
	}
	if got := p.mod.execs.Load(); got != calls {
		t.Fatalf("%d executions of %d calls", got, calls)
	}
	type conv struct {
		peer    transport.Addr
		callNum uint32
	}
	replies := make(map[conv]int)
	for _, e := range p.rec.Events() {
		if e.Kind == trace.KindReplySent {
			replies[conv{e.Peer, e.CallNum}]++
		}
	}
	if len(replies) != 2*calls {
		t.Fatalf("%d call messages answered, want %d", len(replies), 2*calls)
	}
	for c, n := range replies {
		if n != 1 {
			t.Fatalf("call message %v/%d answered %d times", c.peer, c.callNum, n)
		}
	}
	waitBuried(t, p.server, calls)
}

// echoTroupe is a degree-3 echo troupe and one client on an instant
// netsim, as the benchmark's echo_serial workload builds it.
func echoTroupe(t *testing.T, opts Options) (client *Runtime, servers []*Runtime, tr Troupe) {
	t.Helper()
	net := netsim.New(64)
	for i := 0; i < 3; i++ {
		rt := newRuntime(t, net, opts)
		servers = append(servers, rt)
		tr.Members = append(tr.Members, rt.Export(&echoModule{}, ExportOptions{}))
	}
	return newRuntime(t, net, opts), servers, tr
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // a second cycle empties what the first moved to sync.Pool victims
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestRetainedHeapPerCall pins what this state costs: the live heap a
// finished degree-3 call leaves behind (three call tombstones, six
// completed-exchange records) and that it all goes once the windows
// have passed. It read 289 B per call while each tombstone was a map
// entry of its own, and 84 B with the block call table, whose bound is
// 10 % above that.
func TestRetainedHeapPerCall(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes under the race detector are not the program's")
	}
	if testing.Short() {
		t.Skip("50k calls")
	}
	msg := pairedmsg.Options{RetransmitInterval: 50 * time.Millisecond, MaxRetries: 20,
		ProbeInterval: 100 * time.Millisecond, ProbeMissLimit: 5}
	run := func(client *Runtime, tr Troupe, calls int) {
		t.Helper()
		args := []byte("0123456789abcdef")
		for i := 0; i < calls; i++ {
			if _, err := client.Call(context.Background(), tr, 1, args, CallOptions{}); err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
		}
	}
	held := func(client *Runtime, servers []*Runtime) (tombs int, completed int64) {
		for _, rt := range append(servers, client) {
			tombs += rt.CallTable().Tombstones
			completed += rt.MessageStats().CompletedRecords
		}
		return
	}

	t.Run("growth", func(t *testing.T) {
		const calls, maxPerCall = 50_000, 93 // reads 84 B
		client, servers, tr := echoTroupe(t, Options{Message: msg, ManyToOneTimeout: time.Second})
		run(client, tr, 100) // pools, sessions, worker goroutines
		base := liveHeap()
		run(client, tr, calls)
		perCall := float64(int64(liveHeap())-int64(base)) / calls
		tombs, completed := held(client, servers)
		t.Logf("%.0f B of live heap per call; %d tombstones, %d completed records", perCall, tombs, completed)
		if perCall > maxPerCall {
			t.Fatalf("%.0f B of live heap per finished call, want <= %d", perCall, maxPerCall)
		}
		if tombs != 3*(calls+100) {
			t.Fatalf("%d tombstones, want three per call: the heap bound measured too little", tombs)
		}
		if completed != 6*(calls+100) {
			t.Fatalf("%d completed records, want six per call: one exchange each way per member", completed)
		}
	})

	t.Run("expiry", func(t *testing.T) {
		const calls, window = 10_000, 200 * time.Millisecond
		msg := msg
		msg.CompletedTTL = window
		client, servers, tr := echoTroupe(t, Options{Message: msg, ManyToOneTimeout: time.Second, CallRetention: window})
		run(client, tr, 100)
		time.Sleep(2 * window)
		base := liveHeap()
		run(client, tr, calls)
		deadline := time.Now().Add(10 * window)
		for {
			tombs, completed := held(client, servers)
			if tombs == 0 && completed == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d tombstones and %d completed records left long after both windows", tombs, completed)
			}
			time.Sleep(window / 4)
		}
		if grown := int64(liveHeap()) - int64(base); grown > 16*calls {
			t.Fatalf("live heap %d B above baseline after both windows passed (%.1f B per call)",
				grown, float64(grown)/calls)
		}
	})
}

// TestCallTableKeyShapes replays calls of every key shape after they
// finished: the first call of consecutive fresh threads (blocks keyed
// by the Proc), consecutive calls of one frame, at the root and nested
// (blocks keyed by the last path component), and a path too deep for
// the inline key. Each run crosses block boundaries, every call carries
// its own arguments, so a late member answered with a neighbour's
// return message would see the wrong echo, and every call executes
// once.
func TestCallTableKeyShapes(t *testing.T) {
	const calls = 130 // crosses two block boundaries
	deep := []uint32{2, 3, 4, 5, 6, 7}
	shapes := []struct {
		name string
		id   func(i uint32) (thread.ID, []uint32)
	}{
		{"fresh-threads", func(i uint32) (thread.ID, []uint32) { return thread.ID{Host: 5, Proc: 0xfff0 + i}, []uint32{1} }},
		{"one-frame", func(i uint32) (thread.ID, []uint32) { return thread.ID{Host: 6, Proc: 9}, []uint32{i + 1} }},
		{"nested", func(i uint32) (thread.ID, []uint32) { return thread.ID{Host: 7, Proc: 9}, []uint32{3, i + 1} }},
		{"deep", func(i uint32) (thread.ID, []uint32) {
			return thread.ID{Host: 8, Proc: 9}, append(append([]uint32(nil), deep...), i+1)
		}},
	}
	p := newClientPair(t, 65, nil)
	execs := int64(0)
	for _, sh := range shapes {
		for i := uint32(0); i < calls; i++ {
			tid, path := sh.id(i)
			args := []byte(fmt.Sprintf("%s/%d", sh.name, i))
			if got, err := p.call(p.c1, tid, path, args); err != nil || !bytes.Equal(got, args) {
				t.Fatalf("%s %d: first member got %q, %v", sh.name, i, got, err)
			}
		}
		execs += calls
		for i := uint32(0); i < calls; i++ {
			tid, path := sh.id(i)
			args := []byte(fmt.Sprintf("%s/%d", sh.name, i))
			if got, err := p.call(p.c2, tid, path, args); err != nil || !bytes.Equal(got, args) {
				t.Fatalf("%s %d: late member got %q, %v", sh.name, i, got, err)
			}
		}
		if got := p.mod.execs.Load(); got != execs {
			t.Fatalf("%s: %d executions, want %d", sh.name, got, execs)
		}
	}
	waitBuried(t, p.server, int(execs))
}

// TestCallTableLiveCallOutlivesRotations: a call still executing when
// the generation it entered is dropped moves to the newest one, so a
// late member's call message still joins it instead of starting a
// second execution, and its return message is buried afterwards.
func TestCallTableLiveCallOutlivesRotations(t *testing.T) {
	var tab callTable
	tid, path := thread.ID{Host: 1, Proc: 70}, []uint32{4, 2}
	key := keyOf(tid, path, 3, nil)
	_, _, b0 := tab.find(&key)
	sc := tab.add(&key, b0)
	sc.init(&callHeader{ThreadHost: tid.Host, ThreadProc: tid.Proc, Path: path, Module: 3}, tid, nil)
	for r := 1; r <= 7; r++ {
		tab.rotate()
		if got, ret, _ := tab.find(&key); got != sc || ret != nil {
			t.Fatalf("after %d rotations: live %p, result %q; want the live record %p", r, got, ret, sc)
		}
	}
	want := (&returnHeader{Payload: []byte("late")}).marshal()
	if enc := tab.bury(sc, &returnHeader{Payload: []byte("late")}); !bytes.Equal(enc, want) {
		t.Fatalf("bury encoded %x, want %x", enc, want)
	}
	if got, ret, _ := tab.find(&key); got != nil || !bytes.Equal(ret, want) {
		t.Fatalf("after bury: live %p, result %x", got, ret)
	}
	if tab.live != 0 || tab.tombstones() != 1 {
		t.Fatalf("%d live, %d tombstones; want 0 and 1", tab.live, tab.tombstones())
	}
}

// FuzzCallTableMatchesTomb applies one decoded sequence of operations
// to a callTable and to oracles — a map of live calls and a tomb.Table
// of return messages, which keeps a record per call — and compares
// every answer. Each input byte is one operation: the top two bits
// pick enter-or-look-up, finish, or rotate, the low six a call
// identity from an alphabet of both key shapes, deep paths and block
// boundaries. Return messages vary in size so that chunks fill and
// large messages are kept apart.
func FuzzCallTableMatchesTomb(f *testing.F) {
	f.Add([]byte{0x00, 0x41, 0x01, 0x40, 0x80, 0x00, 0x80, 0x80, 0x00, 0x80, 0x00})
	// A neighbour entered after a rotation makes the newest block; the
	// finished call is in the older one.
	f.Add([]byte{0x00, 0x40, 0x80, 0x01, 0x00, 0x80, 0x02, 0x00, 0x01})
	f.Add([]byte{0x05, 0x06, 0x07, 0x08, 0x45, 0x46, 0x80, 0x47, 0x48, 0x05, 0x06, 0x80, 0x80, 0x07, 0x08})
	f.Add([]byte{0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x50, 0x51, 0x52, 0x53, 0x54, 0x55, 0x56, 0x57,
		0x80, 0x10, 0x11, 0x12, 0x13, 0x80, 0x14, 0x15, 0x80, 0x16, 0x17})
	f.Add([]byte{0x3F, 0x7F, 0x3E, 0x7E, 0x3D, 0x80, 0x7D, 0x3D, 0x80, 0x80, 0x80, 0x3D, 0x3E, 0x3F})
	f.Add([]byte{0x20, 0x21, 0x22, 0x23, 0x60, 0xC0, 0x61, 0xE1, 0x62, 0x80, 0x63, 0x80, 0x20, 0x21, 0x22, 0x23})
	type ident struct {
		tid    thread.ID
		path   []uint32
		module uint16
	}
	idents := func(i byte) ident {
		procs := [...]uint32{0, 1, 63, 64, 65, 127, 0xFFFFFFFF, 1 << 20}
		paths := [...][]uint32{{1}, {1, 1}, {2}, {63}, {64}, {5, 65}, {1, 1, 1, 1, 1, 1}, {1, 1, 1, 1, 1, 2}}
		return ident{thread.ID{Host: 9, Proc: procs[i&7]}, paths[i>>3&7], 0}
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		var tab callTable
		live := map[string]*serverCall{}
		var done tomb.Table[string, string]
		name := func(id ident) string { return fmt.Sprint(id.tid, id.path, id.module) }
		for i, op := range ops {
			id := idents(op & 63)
			key := keyOf(id.tid, id.path, id.module, nil)
			n := name(id)
			switch op >> 6 {
			case 0, 3: // look up, entering a fresh call
				sc, ret, b0 := tab.find(&key)
				want, isLive := live[n]
				wantRet, _, isDone := done.Get(n)
				switch {
				case isLive:
					if sc != want || ret != nil {
						t.Fatalf("op %d: %s: live %p, result %q; want live %p", i, n, sc, ret, want)
					}
				case isDone:
					if sc != nil || string(ret) != wantRet {
						t.Fatalf("op %d: %s: live %p, result %q; want result %q", i, n, sc, ret, wantRet)
					}
				default:
					if sc != nil || ret != nil {
						t.Fatalf("op %d: %s: live %p, result %q; want a fresh call", i, n, sc, ret)
					}
					sc = tab.add(&key, b0)
					sc.init(&callHeader{ThreadHost: id.tid.Host, ThreadProc: id.tid.Proc,
						Path: id.path, Module: id.module}, id.tid, nil)
					live[n] = sc
				}
			case 1: // finish
				sc, ok := live[n]
				if !ok {
					continue
				}
				size := []int{0, 9, 1000, 2 * slabMax}[i%4]
				ret := returnHeader{Payload: bytes.Repeat([]byte{byte(i)}, size)}
				enc := tab.bury(sc, &ret)
				if want := ret.marshal(); !bytes.Equal(enc, want) {
					t.Fatalf("op %d: %s: buried %x, want %x", i, n, enc, want)
				}
				if sc.refs.Add(-2) == 0 {
					tab.recycle(sc)
				}
				delete(live, n)
				done.Put(n, string(enc))
			case 2:
				tab.rotate()
				done.Rotate()
			}
			if tab.live != len(live) || tab.tombstones() != done.Len() {
				t.Fatalf("op %d: %d live and %d tombstones; the oracles hold %d and %d",
					i, tab.live, tab.tombstones(), len(live), done.Len())
			}
		}
	})
}
