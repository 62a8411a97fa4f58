package core

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"circus/internal/netsim"
	"circus/internal/pairedmsg"
	"circus/internal/thread"
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
	if n := len(appendCallKey(nil, thread.ID{}, deep, 0)); n <= callKeyLen {
		t.Fatalf("deep path renders a %d-byte key, which fits the %d-byte inline key", n, callKeyLen)
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
		p.server.rotateTombs()
		got, err := p.call(p.c2, tid, path, []byte("once"))
		if err != nil || string(got) != "once" {
			t.Fatalf("after rotation %d: %q, %v", rotation, got, err)
		}
		if p.mod.execs.Load() != 1 {
			t.Fatalf("after rotation %d: re-executed", rotation)
		}
	}
	p.server.rotateTombs()
	if ct := p.server.CallTable(); ct.Tombstones != 0 {
		t.Fatalf("after the third rotation: %+v", ct)
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
// have passed.
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
		const calls, maxPerCall = 50_000, 321 // reads 289 B
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
