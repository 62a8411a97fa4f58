package core

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"time"

	"circus/internal/netsim"
	"circus/internal/thread"
)

// TestThreeTierManyToMany chains troupes A(2) → B(3) → C(2): one
// driver call must execute exactly once at every member of every tier,
// with thread identity propagating through both hops (§3.4.1, §4.3.3).
func TestThreeTierManyToMany(t *testing.T) {
	net := netsim.New(81)
	resolver := StaticResolver{}
	opts := fastOpts()
	opts.Resolver = resolver

	build := func(id TroupeID, degree int, mk func(i int) Module) (Troupe, []*Runtime) {
		tr := Troupe{ID: id}
		var rts []*Runtime
		for i := 0; i < degree; i++ {
			rt := newRuntime(t, net, opts)
			addr := rt.Export(mk(i), ExportOptions{})
			rt.SetTroupeID(addr.Module, id)
			tr.Members = append(tr.Members, addr)
			rts = append(rts, rt)
		}
		resolver[id] = tr.Members
		return tr, rts
	}

	// Tier C: leaf echoes.
	var cMods []*echoModule
	troupeC, _ := build(0xc0de, 2, func(i int) Module {
		m := &echoModule{}
		cMods = append(cMods, m)
		return m
	})

	// Tier B: forwards to C.
	var bMods []*nestedModule
	troupeB, _ := build(0xb0de, 3, func(i int) Module {
		m := &nestedModule{downstream: troupeC}
		bMods = append(bMods, m)
		return m
	})

	// Tier A: forwards to B.
	var aMods []*nestedModule
	troupeA, _ := build(0xa0de, 2, func(i int) Module {
		m := &nestedModule{downstream: troupeB}
		aMods = append(aMods, m)
		return m
	})

	driver := newRuntime(t, net, opts)
	got, err := driver.Call(context.Background(), troupeA, 1, []byte("through three tiers"), CallOptions{
		Timeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatalf("chained call: %v", err)
	}
	if string(got) != "through three tiers" {
		t.Fatalf("got %q", got)
	}
	for i, m := range aMods {
		if m.execs.Load() != 1 {
			t.Errorf("A[%d] executed %d times", i, m.execs.Load())
		}
	}
	for i, m := range bMods {
		if m.execs.Load() != 1 {
			t.Errorf("B[%d] executed %d times (A's 2 members must collate)", i, m.execs.Load())
		}
	}
	for i, m := range cMods {
		if m.execs.Load() != 1 {
			t.Errorf("C[%d] executed %d times (B's 3 members must collate)", i, m.execs.Load())
		}
	}
}

// TestConcurrentThreadsShareServer: many root threads call the same
// troupe concurrently; every logical call executes exactly once and
// replies route to the right caller.
func TestConcurrentThreadsShareServer(t *testing.T) {
	c := newCluster(t, 82, 2, ExportOptions{})
	const threads = 16
	errs := make(chan error, threads)
	for i := 0; i < threads; i++ {
		i := i
		go func() {
			tc := c.client.NewThread()
			ctx := thread.NewContext(context.Background(), tc)
			arg := []byte{byte(i)}
			got, err := c.client.Call(ctx, c.troupe, 1, arg, CallOptions{})
			if err == nil && (len(got) != 1 || got[0] != byte(i)) {
				err = &AppError{Msg: "cross-wired reply"}
			}
			errs <- err
		}()
	}
	for i := 0; i < threads; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("thread: %v", err)
		}
	}
	if c.totalExecs() != threads*2 {
		t.Fatalf("execs = %d, want %d", c.totalExecs(), threads*2)
	}
}

// TestCallRetentionExpiry: a buffered many-to-one result must be
// purged after CallRetention; a later duplicate-looking call (same
// thread path) then re-executes — the documented bound on replay
// protection.
func TestCallRetentionExpiry(t *testing.T) {
	net := netsim.New(83)
	opts := fastOpts()
	opts.CallRetention = 80 * time.Millisecond
	server := newRuntime(t, net, opts)
	mod := &echoModule{}
	addr := server.Export(mod, ExportOptions{})
	tr := Troupe{Members: []ModuleAddr{addr}}
	client := newRuntime(t, net, opts)

	tid := thread.ID{Host: 9, Proc: 9}
	call := func() error {
		tc := thread.Child(tid, []uint32{4}) // same logical call each time
		_, err := client.Call(context.Background(), tr, 1, []byte("x"), CallOptions{thread: tc})
		return err
	}
	if err := call(); err != nil {
		t.Fatal(err)
	}
	if mod.execs.Load() != 1 {
		t.Fatalf("execs = %d", mod.execs.Load())
	}
	// Immediately replayed: answered from the buffer, no re-execution.
	if err := call(); err != nil {
		t.Fatal(err)
	}
	if mod.execs.Load() != 1 {
		t.Fatalf("buffered reply not used: execs = %d", mod.execs.Load())
	}
	// After the retention window the record is gone and the "call"
	// executes afresh.
	time.Sleep(250 * time.Millisecond)
	if err := call(); err != nil {
		t.Fatal(err)
	}
	if mod.execs.Load() != 2 {
		t.Fatalf("expired record not purged: execs = %d", mod.execs.Load())
	}
}

// TestResolverFailureFallsBackToSingleton: if the client troupe ID
// cannot be resolved, the server proceeds with the callers it has
// (availability over precision).
func TestResolverFailureFallsBackToSingleton(t *testing.T) {
	net := netsim.New(84)
	opts := fastOpts() // resolver knows nothing
	opts.Resolver = StaticResolver{}
	server := newRuntime(t, net, opts)
	mod := &echoModule{}
	addr := server.Export(mod, ExportOptions{})
	tr := Troupe{Members: []ModuleAddr{addr}}
	client := newRuntime(t, net, opts)

	got, err := client.Call(context.Background(), tr, 1, []byte("v"), CallOptions{
		AsTroupe: 0xdead, // unresolvable client troupe
	})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(got) != "v" {
		t.Fatalf("got %q", got)
	}
}

// TestCoLocatedTroupeMembers: two members of one troupe living in the
// same process (distinct module numbers) must each execute a
// replicated call exactly once — the collation key must include the
// module number, not just the thread identity.
func TestCoLocatedTroupeMembers(t *testing.T) {
	net := netsim.New(85)
	opts := fastOpts()
	server := newRuntime(t, net, opts)
	m1, m2 := &echoModule{}, &echoModule{}
	a1 := server.Export(m1, ExportOptions{})
	a2 := server.Export(m2, ExportOptions{})
	tr := Troupe{Members: []ModuleAddr{a1, a2}}

	client := newRuntime(t, net, opts)
	got, err := client.Call(context.Background(), tr, 1, []byte("both"), CallOptions{})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(got) != "both" {
		t.Fatalf("got %q", got)
	}
	if m1.execs.Load() != 1 || m2.execs.Load() != 1 {
		t.Fatalf("execs = %d, %d; want 1, 1", m1.execs.Load(), m2.execs.Load())
	}
}

// TestNestedCallsBeyondWorkerCount pins the dispatch workers' liveness
// invariant: some worker always reads the incoming queue. A middle-tier
// member takes three times as many concurrent calls as it keeps
// dispatch workers, and each execution blocks in a nested call to a
// back member whose executions wait on a gate. Every worker that runs
// a call blocks with it, so the later calls, and the nested returns
// once the gate opens, are only read if a worker that left the queue
// as its last reader started another.
func TestNestedCallsBeyondWorkerCount(t *testing.T) {
	calls := 3 * max(4, runtime.GOMAXPROCS(0))
	net := netsim.New(86)
	opts := fastOpts()
	back := newRuntime(t, net, opts)
	backTroupe, g := gate(t, []*Runtime{back}, 7)
	middle := newRuntime(t, net, opts)
	mod := &nestedModule{downstream: backTroupe}
	tr := Troupe{Members: []ModuleAddr{middle.Export(mod, ExportOptions{})}}
	driver := newRuntime(t, net, opts)

	errc := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func() {
			arg := []byte{byte(i)}
			got, err := driver.Call(context.Background(), tr, 1, arg, CallOptions{})
			if err == nil && !bytes.Equal(got, arg) {
				err = &AppError{Msg: "cross-wired reply"}
			}
			errc <- err
		}()
	}
	g.waitEntered(t, int64(calls))
	g.release()
	for i := 0; i < calls; i++ {
		select {
		case err := <-errc:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d calls completed after the gate opened", i, calls)
		}
	}
	if n := mod.execs.Load(); n != int64(calls) {
		t.Fatalf("middle executed %d calls, want %d", n, calls)
	}
}
