package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"circus/internal/collate"
)

// gateModule parks every call until open is closed, counting arrivals.
type gateModule struct {
	entered atomic.Int64
	open    chan struct{}
}

func (m *gateModule) Dispatch(call *ServerCall, proc uint16, args []byte) ([]byte, error) {
	m.entered.Add(1)
	<-m.open
	return args, nil
}

// gate exports a gateModule at module number num on each of servers and
// returns the troupe of them; the gates open when the test ends.
func gate(t *testing.T, servers []*Runtime, num uint16) (Troupe, *gateModule) {
	t.Helper()
	g := &gateModule{open: make(chan struct{})}
	var tr Troupe
	for _, s := range servers {
		tr.Members = append(tr.Members, s.ExportAt(num, g, ExportOptions{}))
	}
	t.Cleanup(func() { g.release() })
	return tr, g
}

func (g *gateModule) release() {
	select {
	case <-g.open:
	default:
		close(g.open)
	}
}

func (g *gateModule) waitEntered(t *testing.T, n int64) {
	t.Helper()
	waitFor(t, "calls to reach the gate", func() bool { return g.entered.Load() >= n })
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitDrained waits until the client holds no leg and no liveness
// watch: every exchange it started has ended or been abandoned.
func waitDrained(t *testing.T, rt *Runtime) {
	t.Helper()
	waitFor(t, "the client's legs and watches to drain", func() bool {
		return rt.CallTable().Pending == 0 && rt.MessageStats().Watches == 0
	})
}

func drainItems(t *testing.T, items <-chan collate.Item, n int) []collate.Item {
	t.Helper()
	var got []collate.Item
	for i := 0; i < n; i++ {
		select {
		case it := <-items:
			got = append(got, it)
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d items", i, n)
		}
	}
	return got
}

func TestLegContextCancelled(t *testing.T) {
	c := newCluster(t, 41, 3, ExportOptions{})
	tr, g := gate(t, c.servers, 7)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.client.Call(ctx, tr, 1, []byte("x"), CallOptions{})
		errc <- err
	}()
	g.waitEntered(t, 3)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	waitDrained(t, c.client)
}

func TestLegMemberDownAfterAck(t *testing.T) {
	c := newCluster(t, 42, 3, ExportOptions{})
	tr, g := gate(t, c.servers, 7)
	items := c.client.CallEach(context.Background(), tr, 1, []byte("x"), CallOptions{})
	g.waitEntered(t, 3)
	// The parked calls are acknowledged once the client asks; from
	// then on each leg is a liveness watch.
	waitFor(t, "three watches", func() bool { return c.client.MessageStats().Watches == 3 })
	c.net.Crash(tr.Members[1].Addr.Host)
	select {
	case it := <-items:
		if it.Member != 1 || !errors.Is(it.Err, ErrMemberDown) {
			t.Fatalf("first item %+v, want member 1 down", it)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("crash after the ack not detected")
	}
	g.release()
	for _, it := range drainItems(t, items, 2) {
		if it.Err != nil && it.Member != 1 {
			t.Fatalf("live member %d: %v", it.Member, it.Err)
		}
	}
	waitDrained(t, c.client)
}

func TestLegReturnBeforeAck(t *testing.T) {
	c := newCluster(t, 43, 3, ExportOptions{})
	for i := 0; i < 100; i++ {
		if _, err := c.client.Call(context.Background(), c.troupe, 1, []byte("x"), CallOptions{}); err != nil {
			t.Fatal(err)
		}
		// The return acknowledged the call and disarmed its watch in
		// one step, before the leg finished.
		if ct, w := c.client.CallTable(), c.client.MessageStats().Watches; ct.Pending != 0 || w != 0 {
			t.Fatalf("call %d: %d legs pending, %d watches after it returned", i, ct.Pending, w)
		}
	}
}

func TestLegCloseInFlight(t *testing.T) {
	c := newCluster(t, 44, 3, ExportOptions{})
	tr, g := gate(t, c.servers, 7)
	items := c.client.CallEach(context.Background(), tr, 1, []byte("x"), CallOptions{})
	g.waitEntered(t, 3)
	c.client.Close()
	for _, it := range drainItems(t, items, 3) {
		if !errors.Is(it.Err, ErrClosed) {
			t.Fatalf("member %d: %v, want ErrClosed", it.Member, it.Err)
		}
	}
	waitDrained(t, c.client)
}

func TestLegQuorumStraggler(t *testing.T) {
	c := newCluster(t, 45, 3, ExportOptions{})
	slow, g := gate(t, c.servers[2:], 7)
	tr := Troupe{Members: []ModuleAddr{c.troupe.Members[0], c.troupe.Members[1], slow.Members[0]}}
	got, err := c.client.Call(context.Background(), tr, 1, []byte("q"), CallOptions{Collator: collate.Majority})
	if err != nil || string(got) != "q" {
		t.Fatalf("majority call: %q, %v", got, err)
	}
	if p := c.client.CallTable().Pending; p != 1 {
		t.Fatalf("%d legs pending after the collator decided, want the straggler", p)
	}
	g.release()
	waitDrained(t, c.client)
}

func TestLegMulticast(t *testing.T) {
	c := newMulticastCluster(t, 46, 3)
	got, err := c.client.Call(context.Background(), c.troupe, 1, []byte("m"), CallOptions{})
	if err != nil || string(got) != "m" {
		t.Fatalf("multicast call: %q, %v", got, err)
	}
	waitDrained(t, c.client)

	tr, g := gate(t, c.servers, 7)
	items := c.client.CallEach(context.Background(), tr, 1, []byte("x"), CallOptions{Timeout: 200 * time.Millisecond})
	g.waitEntered(t, 3)
	for _, it := range drainItems(t, items, 3) {
		if !errors.Is(it.Err, context.DeadlineExceeded) {
			t.Fatalf("member %d: %v, want the deadline", it.Member, it.Err)
		}
	}
	waitDrained(t, c.client)
}

func TestLegCallMember(t *testing.T) {
	c := newCluster(t, 47, 3, ExportOptions{})
	got, err := c.client.CallMember(context.Background(), c.troupe, 2, 1, []byte("one"), CallOptions{})
	if err != nil || string(got) != "one" {
		t.Fatalf("CallMember: %q, %v", got, err)
	}
	if n := c.totalExecs(); n != 1 {
		t.Fatalf("%d executions, want 1", n)
	}
	tr, _ := gate(t, c.servers, 7)
	_, err = c.client.CallMember(context.Background(), tr, 1, 1, nil, CallOptions{Timeout: 100 * time.Millisecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("parked CallMember: %v, want the deadline", err)
	}
	waitDrained(t, c.client)
}

// TestLegLateReturnNeverReachesRecycledLeg: a leg that gave up
// abandons its exchange before its call state is recycled, so a return
// that arrives after the deadline is never handed to the leg of a later
// call that reuses the pooled state.
func TestLegLateReturnNeverReachesRecycledLeg(t *testing.T) {
	c := newCluster(t, 50, 3, ExportOptions{})
	tr, g := gate(t, c.servers, 7)
	items := c.client.CallEach(context.Background(), tr, 1, []byte("late"), CallOptions{Timeout: 50 * time.Millisecond})
	for _, it := range drainItems(t, items, 3) {
		if !errors.Is(it.Err, context.DeadlineExceeded) {
			t.Fatalf("gated member %d: %v, want the deadline", it.Member, it.Err)
		}
	}
	g.waitEntered(t, 3)
	for i := 0; i < 200; i++ {
		arg := fmt.Sprintf("call %d", i)
		items := c.client.CallEach(context.Background(), c.troupe, 1, []byte(arg), CallOptions{})
		if i == 0 {
			g.release() // the late returns race the calls that follow
		}
		seen := make(map[int]bool)
		for _, it := range drainItems(t, items, 3) {
			if it.Err != nil || string(it.Data) != arg || seen[it.Member] {
				t.Fatalf("%s: member %d answered %q, %v", arg, it.Member, it.Data, it.Err)
			}
			seen[it.Member] = true
		}
		select {
		case it := <-items:
			t.Fatalf("%s: a fourth item %+v", arg, it)
		default:
		}
	}
	waitDrained(t, c.client)
}

// TestGoroutinesGrowWithMembersNotCalls pins that a client's sequential
// calls leave no goroutine behind: after 10 000 degree-3 calls the
// process runs as many goroutines as after 100, give or take the
// dispatch workers that come and go as they execute calls.
func TestGoroutinesGrowWithMembersNotCalls(t *testing.T) {
	c := newCluster(t, 51, 3, ExportOptions{})
	calls := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := c.client.Call(context.Background(), c.troupe, 1, []byte("x"), CallOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	calls(100)
	after100 := runtime.NumGoroutine()
	calls(10000 - 100)
	slack := int(c.client.readersMax)
	waitFor(t, "the goroutine count to settle", func() bool {
		n := runtime.NumGoroutine()
		return n >= after100-slack && n <= after100+slack
	})
	t.Logf("goroutines: %d after 100 calls, %d after 10 000", after100, runtime.NumGoroutine())
}

// TestLegGoroutines pins that a call in flight costs its caller's
// goroutine and nothing more on the client: no goroutine per leg.
func TestLegGoroutines(t *testing.T) {
	const calls = 64
	c := newCluster(t, 48, 3, ExportOptions{})
	tr, g := gate(t, c.servers, 7)
	before := runtime.NumGoroutine()
	errc := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func() {
			_, err := c.client.Call(context.Background(), tr, 1, []byte("x"), CallOptions{})
			errc <- err
		}()
	}
	g.waitEntered(t, 3*calls)
	// Each parked execution holds one server goroutine; the rest of the
	// growth is the client's.
	client := runtime.NumGoroutine() - before - int(g.entered.Load())
	t.Logf("%d calls parked at degree 3: %d client goroutines", calls, client)
	if client > calls+16 {
		t.Errorf("%d client goroutines for %d calls in flight, want <= %d", client, calls, calls+16)
	}
	g.release()
	for i := 0; i < calls; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	waitDrained(t, c.client)
}

// TestDispatchWorkersRetireAfterBurst bounds the dispatch workers: a
// burst of executions parked at one member each hold a worker, and
// once the burst is released every worker beyond max(4, GOMAXPROCS)
// exits, so the process's goroutines return to their level before it.
func TestDispatchWorkersRetireAfterBurst(t *testing.T) {
	const calls, slack = 64, 4
	c := newCluster(t, 49, 1, ExportOptions{})
	tr, g := gate(t, c.servers, 7)
	if _, err := c.client.Call(context.Background(), c.troupe, 1, []byte("x"), CallOptions{}); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	errc := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func() {
			_, err := c.client.Call(context.Background(), tr, 1, []byte("x"), CallOptions{})
			errc <- err
		}()
	}
	g.waitEntered(t, calls)
	peak := runtime.NumGoroutine()
	g.release()
	for i := 0; i < calls; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before+slack {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 1 s after the burst, %d before it (%d at its peak), want <= %d",
				runtime.NumGoroutine(), before, peak, before+slack)
		}
		time.Sleep(time.Millisecond)
	}
	t.Logf("goroutines: %d before the burst, %d at its peak, %d after", before, peak, runtime.NumGoroutine())
}

// TestLegEarlyDecisionFeedsSuspicion: a first-come call decides on the
// first answer while a slow member is still executing. The caller
// returns on the decision and no goroutine waits for the straggler,
// yet the straggler's later ErrMemberDown — its member crashed — still
// reaches the ResilientCaller's suspicion tracker, from its leg.
func TestLegEarlyDecisionFeedsSuspicion(t *testing.T) {
	const calls = 32
	c := newCluster(t, 52, 3, ExportOptions{})
	slow, g := gate(t, c.servers[2:], 7)
	tr := Troupe{Members: []ModuleAddr{c.troupe.Members[0], c.troupe.Members[1], slow.Members[0]}}
	rc := NewResilientCaller(c.client, tr, ResilientOptions{Seed: 1})
	before := runtime.NumGoroutine()
	for i := 0; i < calls; i++ {
		got, err := rc.Call(context.Background(), 1, []byte("f"), CallOptions{Collator: collate.FirstCome})
		if err != nil || string(got) != "f" {
			t.Fatalf("call %d: %q, %v", i, got, err)
		}
	}
	g.waitEntered(t, calls)
	// Each parked execution holds one server goroutine; a goroutine per
	// call left waiting for the straggler would show beyond them.
	extra := runtime.NumGoroutine() - before - int(g.entered.Load())
	t.Logf("%d early-decided calls, stragglers parked: %d goroutines besides them", calls, extra)
	if extra > 8 {
		t.Errorf("%d goroutines beyond the parked executions after %d early-decided calls, want <= 8", extra, calls)
	}
	// The second fast member's leg of each call may still be ending.
	waitFor(t, "only the stragglers' legs to be pending", func() bool {
		return c.client.CallTable().Pending == calls
	})
	if rc.sus.Suspected(slow.Members[0]) {
		t.Fatal("the slow member is suspected before it crashed")
	}
	c.net.Crash(slow.Members[0].Addr.Host)
	waitDrained(t, c.client)
	if n := rc.Stats().Suspected; n != calls {
		t.Errorf("%d member-down observations, want one per straggler, %d", n, calls)
	}
	if !rc.sus.Suspected(slow.Members[0]) {
		t.Error("the crashed member is not suspected")
	}
}

// TestLegCallEachYieldsEveryItem: CallEach's channel is one sink on the
// call's collation path. It yields exactly one item per member — the
// slow member's too, after the others — and each item owns its Data,
// which later calls reusing the pooled call state and message buffers
// leave intact.
func TestLegCallEachYieldsEveryItem(t *testing.T) {
	c := newCluster(t, 53, 3, ExportOptions{})
	slow, g := gate(t, c.servers[2:], 7)
	tr := Troupe{Members: []ModuleAddr{c.troupe.Members[0], c.troupe.Members[1], slow.Members[0]}}
	items := c.client.CallEach(context.Background(), tr, 1, []byte("each"), CallOptions{})
	got := drainItems(t, items, 2)
	g.release()
	got = append(got, drainItems(t, items, 1)...)
	for i := 0; i < 50; i++ {
		if _, err := c.client.Call(context.Background(), c.troupe, 1, []byte("XXXX"), CallOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[int]bool)
	for _, it := range got {
		if it.Err != nil || string(it.Data) != "each" || seen[it.Member] {
			t.Fatalf("member %d: %q, %v", it.Member, it.Data, it.Err)
		}
		seen[it.Member] = true
	}
	if !seen[2] {
		t.Fatal("the slow member's item is missing")
	}
	select {
	case it := <-items:
		t.Fatalf("a fourth item %+v", it)
	default:
	}
	waitDrained(t, c.client)
}
