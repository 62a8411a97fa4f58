package circus

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"circus/internal/wire"
)

// world is a simulated internet with a binding agent, ready for
// exports and imports.
type world struct {
	t    *testing.T
	sim  *SimNetwork
	boot []ModuleAddr
}

func newWorld(t *testing.T, seed int64) *world {
	t.Helper()
	sim := NewSimNetwork(seed)
	binderNode, err := sim.NewNode()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { binderNode.Close() })
	addr, err := binderNode.ServeRingmaster()
	if err != nil {
		t.Fatal(err)
	}
	return &world{t: t, sim: sim, boot: []ModuleAddr{addr}}
}

func (w *world) node(opts ...Option) *Node {
	w.t.Helper()
	opts = append(opts, WithBinder(w.boot))
	n, err := w.sim.NewNode(opts...)
	if err != nil {
		w.t.Fatal(err)
	}
	w.t.Cleanup(func() { n.Close() })
	return n
}

// counter is an echo module counting executions.
type counter struct{ execs atomic.Int64 }

func (c *counter) Dispatch(call *ServerCall, proc uint16, args []byte) ([]byte, error) {
	switch proc {
	case 1:
		c.execs.Add(1)
		return args, nil
	default:
		return nil, ErrNoSuchProc
	}
}

func TestQuickstartFlow(t *testing.T) {
	w := newWorld(t, 1)
	var mods []*counter
	for i := 0; i < 3; i++ {
		n := w.node()
		m := &counter{}
		if _, err := n.Export("echo", m); err != nil {
			t.Fatalf("Export: %v", err)
		}
		mods = append(mods, m)
	}
	client := w.node()
	stub, err := client.Import(context.Background(), "echo")
	if err != nil {
		t.Fatalf("Import: %v", err)
	}
	if stub.Troupe().Degree() != 3 {
		t.Fatalf("degree = %d", stub.Troupe().Degree())
	}
	got, err := stub.Call(context.Background(), 1, []byte("hello"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
	for i, m := range mods {
		if m.execs.Load() != 1 {
			t.Errorf("member %d executed %d times", i, m.execs.Load())
		}
	}
}

func TestCallSurvivesMemberCrash(t *testing.T) {
	w := newWorld(t, 2)
	var nodes []*Node
	for i := 0; i < 3; i++ {
		n := w.node()
		if _, err := n.Export("svc", &counter{}); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	client := w.node()
	stub, err := client.Import(context.Background(), "svc")
	if err != nil {
		t.Fatal(err)
	}
	w.sim.Crash(nodes[1])
	got, err := stub.Call(context.Background(), 1, []byte("on"))
	if err != nil {
		t.Fatalf("Call with crashed member: %v", err)
	}
	if string(got) != "on" {
		t.Fatalf("got %q", got)
	}
}

func TestTransparentRebindAfterMembershipChange(t *testing.T) {
	w := newWorld(t, 3)
	n1 := w.node()
	if _, err := n1.Export("svc", &counter{}); err != nil {
		t.Fatal(err)
	}
	client := w.node()
	stub, err := client.Import(context.Background(), "svc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stub.Call(context.Background(), 1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	oldID := stub.Troupe().ID

	// Membership changes behind the stub's back.
	n2 := w.node()
	if _, err := n2.Export("svc", &counter{}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let set_troupe_id land

	got, err := stub.Call(context.Background(), 1, []byte("b"))
	if err != nil {
		t.Fatalf("call after membership change: %v", err)
	}
	if string(got) != "b" {
		t.Fatalf("got %q", got)
	}
	if stub.Troupe().ID == oldID {
		t.Fatal("stub did not rebind")
	}
	if stub.Troupe().Degree() != 2 {
		t.Fatalf("degree after rebind = %d", stub.Troupe().Degree())
	}
}

// kvModule is a replicated key-value module with state transfer.
type kvModule struct {
	data map[string]string
}

func newKV() *kvModule { return &kvModule{data: map[string]string{}} }

type kvArgs struct{ K, V string }

func (m *kvModule) Dispatch(call *ServerCall, proc uint16, args []byte) ([]byte, error) {
	var a kvArgs
	if err := Unmarshal(args, &a); err != nil {
		return nil, err
	}
	switch proc {
	case 1: // put
		m.data[a.K] = a.V
		return nil, nil
	case 2: // get
		v, ok := m.data[a.K]
		if !ok {
			return nil, &AppError{Msg: "no such key"}
		}
		return Marshal(v)
	default:
		return nil, ErrNoSuchProc
	}
}

func (m *kvModule) GetState() ([]byte, error) { return Marshal(m.data) }
func (m *kvModule) SetState(b []byte) error {
	m.data = map[string]string{}
	return Unmarshal(b, &m.data)
}

func TestJoinTroupeStateTransfer(t *testing.T) {
	w := newWorld(t, 4)
	n1 := w.node()
	if _, err := n1.Export("kv", newKV()); err != nil {
		t.Fatal(err)
	}
	client := w.node()
	stub, err := client.Import(context.Background(), "kv")
	if err != nil {
		t.Fatal(err)
	}
	ctx := client.Context(context.Background())
	put, _ := Marshal(kvArgs{K: "color", V: "red"})
	if _, err := stub.Call(ctx, 1, put); err != nil {
		t.Fatalf("put: %v", err)
	}

	// A new member joins with state transfer (§6.4.1).
	n2 := w.node()
	joined := newKV()
	if _, err := n2.JoinTroupe(context.Background(), "kv", joined); err != nil {
		t.Fatalf("JoinTroupe: %v", err)
	}
	if joined.data["color"] != "red" {
		t.Fatalf("state not transferred: %v", joined.data)
	}

	// The joined member participates in subsequent calls.
	stub2, err := client.Import(context.Background(), "kv")
	if err != nil {
		t.Fatal(err)
	}
	get, _ := Marshal(kvArgs{K: "color"})
	res, err := stub2.Call(client.Context(context.Background()), 2, get)
	if err != nil {
		t.Fatalf("get from extended troupe: %v", err)
	}
	var v string
	Unmarshal(res, &v)
	if v != "red" {
		t.Fatalf("got %q", v)
	}
	if stub2.Troupe().Degree() != 2 {
		t.Fatalf("degree = %d", stub2.Troupe().Degree())
	}
}

func TestJoinTroupeFreshName(t *testing.T) {
	w := newWorld(t, 5)
	n := w.node()
	if _, err := n.JoinTroupe(context.Background(), "fresh", newKV()); err != nil {
		t.Fatalf("JoinTroupe on fresh name: %v", err)
	}
}

func TestAppErrorSurfacesThroughStub(t *testing.T) {
	w := newWorld(t, 6)
	n := w.node()
	if _, err := n.Export("kv", newKV()); err != nil {
		t.Fatal(err)
	}
	client := w.node()
	stub, _ := client.Import(context.Background(), "kv")
	get, _ := Marshal(kvArgs{K: "ghost"})
	_, err := stub.Call(context.Background(), 2, get)
	var app *AppError
	if !errors.As(err, &app) || app.Msg != "no such key" {
		t.Fatalf("err = %v", err)
	}
}

func TestFirstComeOption(t *testing.T) {
	w := newWorld(t, 7)
	for i := 0; i < 3; i++ {
		if _, err := w.node().Export("e", &counter{}); err != nil {
			t.Fatal(err)
		}
	}
	client := w.node()
	stub, _ := client.Import(context.Background(), "e")
	got, err := stub.Call(context.Background(), 1, []byte("fast"), WithFirstCome())
	if err != nil || string(got) != "fast" {
		t.Fatalf("%q, %v", got, err)
	}
}

func TestMajorityMasksDivergence(t *testing.T) {
	w := newWorld(t, 8)
	// Two honest members, one diverging.
	honest := func() Module {
		return ModuleFunc(func(call *ServerCall, proc uint16, args []byte) ([]byte, error) {
			return []byte("v"), nil
		})
	}
	rogue := ModuleFunc(func(call *ServerCall, proc uint16, args []byte) ([]byte, error) {
		return []byte("DIVERGED"), nil
	})
	w.node().Export("m", honest())
	w.node().Export("m", honest())
	w.node().Export("m", rogue)

	client := w.node()
	stub, _ := client.Import(context.Background(), "m")

	// Unanimous detects the inconsistency.
	if _, err := stub.Call(context.Background(), 1, nil); !errors.Is(err, ErrDisagreement) {
		t.Fatalf("unanimous err = %v, want ErrDisagreement", err)
	}
	// Majority masks it.
	got, err := stub.Call(context.Background(), 1, nil, WithMajority())
	if err != nil || string(got) != "v" {
		t.Fatalf("majority: %q, %v", got, err)
	}
}

func TestCallEachGeneratorExplicitReplication(t *testing.T) {
	w := newWorld(t, 9)
	for i := 0; i < 3; i++ {
		i := i
		w.node().Export("gen", ModuleFunc(func(call *ServerCall, proc uint16, args []byte) ([]byte, error) {
			return []byte{byte(i)}, nil // members legitimately diverge
		}))
	}
	client := w.node()
	stub, _ := client.Import(context.Background(), "gen")
	items, n := stub.CallEach(context.Background(), 1, nil)
	if n != 3 {
		t.Fatalf("degree = %d", n)
	}
	seen := map[byte]bool{}
	for i := 0; i < n; i++ {
		it := <-items
		if it.Err != nil {
			t.Fatalf("item: %v", it.Err)
		}
		seen[it.Data[0]] = true
	}
	if len(seen) != 3 {
		t.Fatalf("replies = %v", seen)
	}
}

func TestGarbageCollectViaFacade(t *testing.T) {
	w := newWorld(t, 10)
	n1 := w.node()
	n1.Export("gc", &counter{})
	n2 := w.node()
	n2.Export("gc", &counter{})

	w.sim.Crash(n1)
	sweeper := w.node()
	removed, err := sweeper.GarbageCollect(context.Background(), 400*time.Millisecond)
	if err != nil {
		t.Fatalf("GarbageCollect: %v", err)
	}
	if removed != 1 {
		t.Fatalf("removed = %d", removed)
	}
	stub, err := sweeper.Import(context.Background(), "gc")
	if err != nil {
		t.Fatal(err)
	}
	if stub.Troupe().Degree() != 1 {
		t.Fatalf("degree after GC = %d", stub.Troupe().Degree())
	}
}

func TestPing(t *testing.T) {
	w := newWorld(t, 11)
	w.node().Export("p", &counter{})
	client := w.node()
	stub, _ := client.Import(context.Background(), "p")
	if err := stub.Ping(context.Background()); err != nil {
		t.Fatalf("Ping: %v", err)
	}
}

func TestImportUnknown(t *testing.T) {
	w := newWorld(t, 12)
	client := w.node()
	if _, err := client.Import(context.Background(), "nonesuch"); err == nil {
		t.Fatal("import of unregistered name succeeded")
	}
}

func TestNodeWithoutBinder(t *testing.T) {
	sim := NewSimNetwork(13)
	n, err := sim.NewNode()
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := n.Import(context.Background(), "x"); err == nil {
		t.Fatal("Import without binder succeeded")
	}
	if _, err := n.JoinTroupe(context.Background(), "x", newKV()); err == nil {
		t.Fatal("JoinTroupe without binder succeeded")
	}
	if _, err := n.GarbageCollect(context.Background(), time.Second); err == nil {
		t.Fatal("GarbageCollect without binder succeeded")
	}
}

func TestStubForStaticTroupe(t *testing.T) {
	sim := NewSimNetwork(14)
	server, err := sim.NewNode()
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	m := &counter{}
	addr, err := server.Export("static", m)
	if err != nil {
		t.Fatal(err)
	}
	client, err := sim.NewNode()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	stub := client.StubFor(Troupe{Members: []ModuleAddr{addr}})
	got, err := stub.Call(context.Background(), 1, []byte("direct"))
	if err != nil || string(got) != "direct" {
		t.Fatalf("%q, %v", got, err)
	}
}

func TestReplicatedBindingAgent(t *testing.T) {
	// A Ringmaster troupe of two members; exports and imports flow
	// through replicated calls to it.
	sim := NewSimNetwork(15)
	var boot []ModuleAddr
	for i := 0; i < 2; i++ {
		bn, err := sim.NewNode()
		if err != nil {
			t.Fatal(err)
		}
		defer bn.Close()
		addr, err := bn.ServeRingmaster()
		if err != nil {
			t.Fatal(err)
		}
		boot = append(boot, addr)
	}
	server, err := sim.NewNode(WithBinder(boot))
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	if _, err := server.Export("dual", &counter{}); err != nil {
		t.Fatalf("export via replicated binder: %v", err)
	}
	client, err := sim.NewNode(WithBinder(boot))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	stub, err := client.Import(context.Background(), "dual")
	if err != nil {
		t.Fatalf("import via replicated binder: %v", err)
	}
	if _, err := stub.Call(context.Background(), 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
}

func TestUDPNodes(t *testing.T) {
	// The same stack over real UDP sockets: multi-process on one
	// machine, the repro environment of the paper.
	binderNode, err := ListenUDP(0, WithTimers(20*time.Millisecond, 40*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer binderNode.Close()
	baddr, err := binderNode.ServeRingmaster()
	if err != nil {
		t.Fatal(err)
	}
	boot := []ModuleAddr{baddr}

	for i := 0; i < 2; i++ {
		s, err := ListenUDP(0, WithBinder(boot), WithTimers(20*time.Millisecond, 40*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.Export("udp-echo", &counter{}); err != nil {
			t.Fatal(err)
		}
	}
	client, err := ListenUDP(0, WithBinder(boot), WithTimers(20*time.Millisecond, 40*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	stub, err := client.Import(context.Background(), "udp-echo")
	if err != nil {
		t.Fatal(err)
	}
	got, err := stub.Call(context.Background(), 1, []byte("over udp"))
	if err != nil || string(got) != "over udp" {
		t.Fatalf("%q, %v", got, err)
	}
}

func TestMarshalRoundTripFacade(t *testing.T) {
	type point struct{ X, Y int32 }
	b, err := Marshal(point{3, -4})
	if err != nil {
		t.Fatal(err)
	}
	var p point
	if err := Unmarshal(b, &p); err != nil || p.X != 3 || p.Y != -4 {
		t.Fatalf("%+v, %v", p, err)
	}
	// wire and facade agree.
	b2, _ := wire.Marshal(point{3, -4})
	if string(b) != string(b2) {
		t.Fatal("facade Marshal diverges from wire.Marshal")
	}
}

func TestSimStats(t *testing.T) {
	w := newWorld(t, 16)
	w.node().Export("s", &counter{})
	client := w.node()
	stub, _ := client.Import(context.Background(), "s")
	stub.Call(context.Background(), 1, []byte("x"))
	sendOps, datagrams, delivered, _ := w.sim.Stats()
	if sendOps == 0 || datagrams == 0 || delivered == 0 {
		t.Fatalf("stats: %d %d %d", sendOps, datagrams, delivered)
	}
}

func ExampleNode_Export() {
	sim := NewSimNetwork(99)
	binder, _ := sim.NewNode()
	binder.ServeRingmaster()
	boot := binder.BinderAddrs()

	for i := 0; i < 3; i++ {
		n, _ := sim.NewNode(WithBinder(boot))
		n.Export("echo", ModuleFunc(func(call *ServerCall, proc uint16, args []byte) ([]byte, error) {
			return args, nil
		}))
	}

	client, _ := sim.NewNode(WithBinder(boot))
	stub, _ := client.Import(context.Background(), "echo")
	reply, _ := stub.Call(context.Background(), 1, []byte("hi troupe"))
	fmt.Println(string(reply))
	// Output: hi troupe
}

func TestWatchdogAgreement(t *testing.T) {
	w := newWorld(t, 17)
	for i := 0; i < 3; i++ {
		w.node().Export("wd", &counter{})
	}
	client := w.node()
	stub, _ := client.Import(context.Background(), "wd")
	data, verdict, err := stub.CallWatchdog(context.Background(), 1, []byte("v"))
	if err != nil {
		t.Fatalf("CallWatchdog: %v", err)
	}
	if string(data) != "v" {
		t.Fatalf("first reply %q", data)
	}
	select {
	case err := <-verdict:
		if err != nil {
			t.Fatalf("verdict = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog never reported")
	}
}

func TestWatchdogDetectsDivergence(t *testing.T) {
	w := newWorld(t, 18)
	w.node().Export("wd2", ModuleFunc(func(call *ServerCall, proc uint16, args []byte) ([]byte, error) {
		return []byte("a"), nil
	}))
	w.node().Export("wd2", ModuleFunc(func(call *ServerCall, proc uint16, args []byte) ([]byte, error) {
		return []byte("b"), nil
	}))
	client := w.node()
	stub, _ := client.Import(context.Background(), "wd2")
	_, verdict, err := stub.CallWatchdog(context.Background(), 1, nil)
	if err != nil {
		t.Fatalf("CallWatchdog: %v", err)
	}
	select {
	case err := <-verdict:
		if !errors.Is(err, ErrDisagreement) {
			t.Fatalf("verdict = %v, want ErrDisagreement", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog never reported")
	}
}

// TestWatchdogVerdictFromLateMember: CallWatchdog proceeds with the
// first result while one member is still executing, and the verdict
// waits for that member: its divergent answer, arriving after the
// caller has its result, is ErrDisagreement.
func TestWatchdogVerdictFromLateMember(t *testing.T) {
	w := newWorld(t, 21)
	for i := 0; i < 2; i++ {
		w.node().Export("wd4", ModuleFunc(func(call *ServerCall, proc uint16, args []byte) ([]byte, error) {
			return []byte("a"), nil
		}))
	}
	open := make(chan struct{})
	w.node().Export("wd4", ModuleFunc(func(call *ServerCall, proc uint16, args []byte) ([]byte, error) {
		<-open
		return []byte("b"), nil
	}))
	client := w.node()
	stub, _ := client.Import(context.Background(), "wd4")
	data, verdict, err := stub.CallWatchdog(context.Background(), 1, nil)
	if err != nil || string(data) != "a" {
		close(open)
		t.Fatalf("CallWatchdog: %q, %v", data, err)
	}
	select {
	case err := <-verdict:
		close(open)
		t.Fatalf("verdict %v before the late member answered", err)
	default:
	}
	close(open)
	select {
	case err := <-verdict:
		if !errors.Is(err, ErrDisagreement) {
			t.Fatalf("verdict = %v, want ErrDisagreement", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog never reported")
	}
}

func TestWatchdogAllFailed(t *testing.T) {
	w := newWorld(t, 19)
	n := w.node()
	n.Export("wd3", &counter{})
	client := w.node()
	stub, _ := client.Import(context.Background(), "wd3")
	w.sim.Crash(n)
	_, _, err := stub.CallWatchdog(context.Background(), 1, nil)
	if err == nil {
		t.Fatal("watchdog call to dead troupe succeeded")
	}
}

func TestMulticastNodeOption(t *testing.T) {
	// The facade multicast option: fewer send operations, same
	// exactly-once execution. All members must share a module number,
	// which they do when each node's first export is the service.
	sim := NewSimNetwork(20)
	binderNode, err := sim.NewNode()
	if err != nil {
		t.Fatal(err)
	}
	defer binderNode.Close()
	baddr, _ := binderNode.ServeRingmaster()
	boot := []ModuleAddr{baddr}

	var mods []*counter
	for i := 0; i < 3; i++ {
		n, err := sim.NewNode(WithBinder(boot))
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		m := &counter{}
		if _, err := n.Export("mc", m); err != nil {
			t.Fatal(err)
		}
		mods = append(mods, m)
	}
	client, err := sim.NewNode(WithBinder(boot), WithMulticast())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	stub, err := client.Import(context.Background(), "mc")
	if err != nil {
		t.Fatal(err)
	}
	got, err := stub.Call(context.Background(), 1, []byte("x"))
	if err != nil || string(got) != "x" {
		t.Fatalf("%q, %v", got, err)
	}
	for i, m := range mods {
		if m.execs.Load() != 1 {
			t.Errorf("member %d executed %d times", i, m.execs.Load())
		}
	}
}

func TestReplicatedTransactionalStoreFacade(t *testing.T) {
	w := newWorld(t, 21)
	for i := 0; i < 3; i++ {
		n := w.node()
		if _, err := n.Export("ledger", NewTransactionalStore(0)); err != nil {
			t.Fatal(err)
		}
	}
	client := w.node()
	stub, err := client.Import(context.Background(), "ledger")
	if err != nil {
		t.Fatal(err)
	}
	store := client.ReplicatedStoreFor(stub)

	err = store.Run(context.Background(), TxRetry{}, func(tx *ReplicatedTx) error {
		if err := tx.Set("alice", []byte{100}); err != nil {
			return err
		}
		return tx.Set("bob", []byte{50})
	})
	if err != nil {
		t.Fatalf("transaction: %v", err)
	}

	// Transfer inside a transaction: atomic across all three members.
	err = store.Run(context.Background(), TxRetry{}, func(tx *ReplicatedTx) error {
		a, _, err := tx.Get("alice")
		if err != nil {
			return err
		}
		b, _, err := tx.Get("bob")
		if err != nil {
			return err
		}
		if err := tx.Set("alice", []byte{a[0] - 30}); err != nil {
			return err
		}
		return tx.Set("bob", []byte{b[0] + 30})
	})
	if err != nil {
		t.Fatalf("transfer: %v", err)
	}

	var got []byte
	err = store.Run(context.Background(), TxRetry{}, func(tx *ReplicatedTx) error {
		a, _, err := tx.Get("alice")
		if err != nil {
			return err
		}
		b, _, err := tx.Get("bob")
		if err != nil {
			return err
		}
		got = []byte{a[0], b[0]}
		return nil
	})
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got[0] != 70 || got[1] != 80 {
		t.Fatalf("balances = %v, want [70 80]", got)
	}
}

// TestCrashReplaceLoop is the full Chapter 6 lifecycle, repeated: a
// member crashes, the garbage collector removes it from the binding
// agent, a replacement joins with state transfer, and client traffic
// flows throughout with transparent rebinding. State must survive
// every generation and all members must stay unanimous.
func TestCrashReplaceLoop(t *testing.T) {
	w := newWorld(t, 22)

	live := make([]*Node, 0, 3)
	for i := 0; i < 3; i++ {
		n := w.node()
		if _, err := n.JoinTroupe(context.Background(), "store", newKV()); err != nil {
			t.Fatal(err)
		}
		live = append(live, n)
	}
	client := w.node()
	stub, err := client.Import(context.Background(), "store")
	if err != nil {
		t.Fatal(err)
	}

	put := func(k, v string) {
		t.Helper()
		args, _ := Marshal(kvArgs{K: k, V: v})
		if _, err := stub.Call(client.Context(context.Background()), 1, args); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
	}
	get := func(k string) string {
		t.Helper()
		args, _ := Marshal(kvArgs{K: k})
		res, err := stub.Call(client.Context(context.Background()), 2, args)
		if err != nil {
			t.Fatalf("get %s: %v", k, err)
		}
		var v string
		Unmarshal(res, &v)
		return v
	}

	put("epoch", "0")
	for gen := 1; gen <= 3; gen++ {
		// Kill the oldest member.
		w.sim.Crash(live[0])
		live = live[1:]

		// Sweep it out of the binding agent.
		if _, err := client.GarbageCollect(context.Background(), 500*time.Millisecond); err != nil {
			t.Fatalf("gen %d gc: %v", gen, err)
		}

		// Service still answers during the degraded window.
		put("epoch", fmt.Sprint(gen))
		if got := get("epoch"); got != fmt.Sprint(gen) {
			t.Fatalf("gen %d: epoch = %q", gen, got)
		}

		// A replacement joins with state transfer (§6.4.1).
		repl := w.node()
		if _, err := repl.JoinTroupe(context.Background(), "store", newKV()); err != nil {
			t.Fatalf("gen %d join: %v", gen, err)
		}
		live = append(live, repl)

		// The extended troupe answers unanimously: the replacement's
		// transferred state agrees with the survivors'.
		if got := get("epoch"); got != fmt.Sprint(gen) {
			t.Fatalf("gen %d after join: epoch = %q", gen, got)
		}
	}
	if stub.Troupe().Degree() != 3 {
		t.Fatalf("final degree = %d, want 3", stub.Troupe().Degree())
	}
}
