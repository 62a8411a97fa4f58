package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"circus/internal/collate"
	"circus/internal/netsim"
	"circus/internal/pairedmsg"
	"circus/internal/thread"
	"circus/internal/trace"
	"circus/internal/wire"
)

func fastMsgOpts() pairedmsg.Options {
	return pairedmsg.Options{
		RetransmitInterval: 10 * time.Millisecond,
		MaxRetries:         15,
		ProbeInterval:      15 * time.Millisecond,
		ProbeMissLimit:     4,
	}
}

func fastOpts() Options {
	return Options{
		Message:          fastMsgOpts(),
		ManyToOneTimeout: 300 * time.Millisecond,
		CallRetention:    5 * time.Second,
	}
}

// echoModule counts executions and echoes its argument.
type echoModule struct {
	execs  atomic.Int64
	tag    string // appended to replies; lets tests fake divergent replicas
	refuse bool   // echo fails too; lets tests fake a refusing member
}

func (m *echoModule) Dispatch(call *ServerCall, proc uint16, args []byte) ([]byte, error) {
	switch {
	case proc == 1 && !m.refuse: // echo
		m.execs.Add(1)
		return append(append([]byte(nil), args...), m.tag...), nil
	case proc == 1 || proc == 2: // fail
		m.execs.Add(1)
		return nil, errors.New("deliberate failure")
	default:
		return nil, ErrNoSuchProc
	}
}

type cluster struct {
	t       *testing.T
	net     *netsim.Network
	servers []*Runtime
	mods    []*echoModule
	troupe  Troupe
	client  *Runtime
}

func newRuntime(t *testing.T, n *netsim.Network, opts Options) *Runtime {
	t.Helper()
	ep, err := n.Listen(n.NewHost(), 0)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(ep, opts)
	t.Cleanup(func() { rt.Close() })
	return rt
}

// newCluster builds a server troupe of degree n plus one unreplicated
// client, with troupe IDs assigned and a static resolver everywhere.
func newCluster(t *testing.T, seed int64, n int, exportOpts ExportOptions) *cluster {
	t.Helper()
	c, _ := newClusterTraced(t, seed, n, exportOpts)
	return c
}

// newClusterTraced is newCluster with a shared in-memory trace
// recorder attached to every runtime, so tests can wait for specific
// protocol events instead of polling or sleeping.
func newClusterTraced(t *testing.T, seed int64, n int, exportOpts ExportOptions) (*cluster, *trace.Recorder) {
	t.Helper()
	rec := trace.NewRecorder()
	c := &cluster{t: t, net: netsim.New(seed)}
	c.troupe = Troupe{ID: 0x1111}
	resolver := StaticResolver{}
	opts := fastOpts()
	opts.Resolver = resolver
	opts.Trace = rec
	for i := 0; i < n; i++ {
		rt := newRuntime(t, c.net, opts)
		mod := &echoModule{}
		addr := rt.Export(mod, exportOpts)
		rt.SetTroupeID(addr.Module, c.troupe.ID)
		c.servers = append(c.servers, rt)
		c.mods = append(c.mods, mod)
		c.troupe.Members = append(c.troupe.Members, addr)
	}
	resolver[c.troupe.ID] = c.troupe.Members
	c.client = newRuntime(t, c.net, opts)
	return c, rec
}

func (c *cluster) totalExecs() int64 {
	var total int64
	for _, m := range c.mods {
		total += m.execs.Load()
	}
	return total
}

func TestUnreplicatedCall(t *testing.T) {
	c := newCluster(t, 1, 1, ExportOptions{})
	got, err := c.client.Call(context.Background(), c.troupe, 1, []byte("hi"), CallOptions{})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(got) != "hi" {
		t.Fatalf("got %q", got)
	}
	if c.totalExecs() != 1 {
		t.Fatalf("executions = %d, want 1", c.totalExecs())
	}
}

func TestOneToManyExecutesAtAllMembers(t *testing.T) {
	c := newCluster(t, 2, 3, ExportOptions{})
	got, err := c.client.Call(context.Background(), c.troupe, 1, []byte("v"), CallOptions{})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(got) != "v" {
		t.Fatalf("got %q", got)
	}
	for i, m := range c.mods {
		if m.execs.Load() != 1 {
			t.Errorf("member %d executed %d times, want exactly once", i, m.execs.Load())
		}
	}
}

func TestSequentialCallsExactlyOnce(t *testing.T) {
	c := newCluster(t, 3, 3, ExportOptions{})
	tc := c.client.NewThread()
	ctx := thread.NewContext(context.Background(), tc)
	for i := 0; i < 5; i++ {
		arg := []byte{byte(i)}
		got, err := c.client.Call(ctx, c.troupe, 1, arg, CallOptions{})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if !bytes.Equal(got, arg) {
			t.Fatalf("call %d echoed %v", i, got)
		}
	}
	if c.totalExecs() != 15 {
		t.Fatalf("total executions = %d, want 15", c.totalExecs())
	}
}

func TestExactlyOnceUnderLossAndDuplication(t *testing.T) {
	c := newCluster(t, 4, 3, ExportOptions{})
	c.net.SetLink(netsim.LinkConfig{LossRate: 0.15, DupRate: 0.15})
	got, err := c.client.Call(context.Background(), c.troupe, 1, []byte("x"), CallOptions{
		Timeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(got) != "x" {
		t.Fatalf("got %q", got)
	}
	if c.totalExecs() != 3 {
		t.Fatalf("executions = %d, want 3 despite loss and duplication", c.totalExecs())
	}
}

func TestUnanimousDetectsDivergedReplica(t *testing.T) {
	c := newCluster(t, 5, 3, ExportOptions{})
	c.mods[1].tag = "DIVERGED" // simulate a nondeterministic member
	_, err := c.client.Call(context.Background(), c.troupe, 1, []byte("v"), CallOptions{})
	if !errors.Is(err, collate.ErrDisagreement) {
		t.Fatalf("err = %v, want ErrDisagreement", err)
	}
}

// TestUnanimousRefusalBesideResult: a refusal is a member's vote, not
// a crash, so one result beside two refusals is a disagreement.
func TestUnanimousRefusalBesideResult(t *testing.T) {
	c := newCluster(t, 5, 3, ExportOptions{})
	c.mods[1].refuse, c.mods[2].refuse = true, true
	got, err := c.client.Call(context.Background(), c.troupe, 1, []byte("v"), CallOptions{})
	if !errors.Is(err, collate.ErrDisagreement) {
		t.Fatalf("Call = %q, %v; want ErrDisagreement", got, err)
	}
}

// TestUnanimousStaleMembersDecide: one member still answers under the
// old troupe ID and two reject it as stale. The stale verdict decides
// the call, so the caller rebinds instead of trusting one execution.
func TestUnanimousStaleMembersDecide(t *testing.T) {
	c := newCluster(t, 5, 3, ExportOptions{})
	for i := 1; i < 3; i++ {
		c.servers[i].SetTroupeID(c.troupe.Members[i].Module, 0x2222)
	}
	got, err := c.client.Call(context.Background(), c.troupe, 1, []byte("v"), CallOptions{})
	var sbe *StaleBindingError
	if !errors.As(err, &sbe) {
		t.Fatalf("Call = %q, %v; want StaleBindingError", got, err)
	}
}

func TestMajorityMasksDivergedReplica(t *testing.T) {
	c := newCluster(t, 6, 3, ExportOptions{})
	c.mods[2].tag = "DIVERGED"
	got, err := c.client.Call(context.Background(), c.troupe, 1, []byte("v"), CallOptions{
		Collator: collate.Majority,
	})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(got) != "v" {
		t.Fatalf("majority = %q, want %q", got, "v")
	}
}

func TestFirstComeCollator(t *testing.T) {
	c := newCluster(t, 7, 3, ExportOptions{})
	got, err := c.client.Call(context.Background(), c.troupe, 1, []byte("quick"), CallOptions{
		Collator: collate.FirstCome,
	})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(got) != "quick" {
		t.Fatalf("got %q", got)
	}
	// Exactly-once at all members must hold even though the client
	// proceeded after the first reply.
	deadline := time.Now().Add(2 * time.Second)
	for c.totalExecs() != 3 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if c.totalExecs() != 3 {
		t.Fatalf("executions = %d, want 3", c.totalExecs())
	}
}

func TestMemberCrashMasked(t *testing.T) {
	c := newCluster(t, 8, 3, ExportOptions{})
	c.net.Crash(c.troupe.Members[1].Addr.Host)
	got, err := c.client.Call(context.Background(), c.troupe, 1, []byte("v"), CallOptions{})
	if err != nil {
		t.Fatalf("Call with one crashed member: %v", err)
	}
	if string(got) != "v" {
		t.Fatalf("got %q", got)
	}
}

func TestTotalFailure(t *testing.T) {
	c := newCluster(t, 9, 2, ExportOptions{})
	for _, m := range c.troupe.Members {
		c.net.Crash(m.Addr.Host)
	}
	_, err := c.client.Call(context.Background(), c.troupe, 1, []byte("v"), CallOptions{})
	if !errors.Is(err, ErrTroupeDown) {
		t.Fatalf("err = %v, want ErrTroupeDown", err)
	}
}

func TestEmptyTroupe(t *testing.T) {
	c := newCluster(t, 10, 1, ExportOptions{})
	_, err := c.client.Call(context.Background(), Troupe{}, 1, nil, CallOptions{})
	if !errors.Is(err, ErrTroupeDown) {
		t.Fatalf("err = %v, want ErrTroupeDown", err)
	}
}

func TestAppErrorPropagates(t *testing.T) {
	c := newCluster(t, 11, 3, ExportOptions{})
	_, err := c.client.Call(context.Background(), c.troupe, 2, nil, CallOptions{})
	var app *AppError
	if !errors.As(err, &app) {
		t.Fatalf("err = %v, want AppError", err)
	}
	if app.Msg != "deliberate failure" {
		t.Fatalf("msg = %q", app.Msg)
	}
}

func TestStaleBindingRejected(t *testing.T) {
	c := newCluster(t, 12, 2, ExportOptions{})
	stale := Troupe{ID: 0x9999, Members: c.troupe.Members}
	_, err := c.client.Call(context.Background(), stale, 1, []byte("v"), CallOptions{})
	var sbe *StaleBindingError
	if !errors.As(err, &sbe) {
		t.Fatalf("err = %v, want StaleBindingError", err)
	}
	if c.totalExecs() != 0 {
		t.Fatalf("stale call executed %d times", c.totalExecs())
	}
}

func TestNoSuchModule(t *testing.T) {
	c := newCluster(t, 13, 1, ExportOptions{})
	bad := c.troupe
	bad.ID = 0
	bad.Members = []ModuleAddr{{Addr: c.troupe.Members[0].Addr, Module: 77}}
	_, err := c.client.Call(context.Background(), bad, 1, nil, CallOptions{})
	if !errors.Is(err, ErrNoSuchModule) {
		t.Fatalf("err = %v, want ErrNoSuchModule", err)
	}
}

func TestNoSuchProc(t *testing.T) {
	c := newCluster(t, 14, 1, ExportOptions{})
	_, err := c.client.Call(context.Background(), c.troupe, 99, nil, CallOptions{})
	var app *AppError
	if !errors.As(err, &app) {
		t.Fatalf("err = %v, want AppError wrapping ErrNoSuchProc", err)
	}
}

func TestPingReservedProc(t *testing.T) {
	c := newCluster(t, 15, 2, ExportOptions{})
	if _, err := c.client.Call(context.Background(), c.troupe, ProcPing, nil, CallOptions{}); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if c.totalExecs() != 0 {
		t.Fatal("ping reached the module")
	}
}

func TestSetTroupeIDReservedProc(t *testing.T) {
	c := newCluster(t, 16, 2, ExportOptions{})
	arg, _ := wire.Marshal(uint64(0x2222))
	if _, err := c.client.Call(context.Background(), c.troupe, ProcSetTroupeID, arg, CallOptions{}); err != nil {
		t.Fatalf("set_troupe_id: %v", err)
	}
	for i, rt := range c.servers {
		if got := rt.TroupeIDOf(c.troupe.Members[i].Module); got != 0x2222 {
			t.Errorf("member %d troupe ID = %v, want 0x2222", i, got)
		}
	}
	// Old ID now stale.
	_, err := c.client.Call(context.Background(), c.troupe, 1, nil, CallOptions{})
	var sbe *StaleBindingError
	if !errors.As(err, &sbe) {
		t.Fatalf("err = %v, want StaleBindingError after ID change", err)
	}
}

// stateModule supports state transfer.
type stateModule struct {
	state atomic.Int64
}

func (m *stateModule) Dispatch(call *ServerCall, proc uint16, args []byte) ([]byte, error) {
	switch proc {
	case 1: // add
		var delta int64
		if err := wire.Unmarshal(args, &delta); err != nil {
			return nil, err
		}
		return wire.Marshal(m.state.Add(delta))
	default:
		return nil, ErrNoSuchProc
	}
}

func (m *stateModule) GetState() ([]byte, error) { return wire.Marshal(m.state.Load()) }
func (m *stateModule) SetState(b []byte) error {
	var v int64
	if err := wire.Unmarshal(b, &v); err != nil {
		return err
	}
	m.state.Store(v)
	return nil
}

func TestGetStateReservedProc(t *testing.T) {
	net := netsim.New(17)
	opts := fastOpts()
	server := newRuntime(t, net, opts)
	mod := &stateModule{}
	mod.state.Store(42)
	addr := server.Export(mod, ExportOptions{})
	client := newRuntime(t, net, opts)
	tr := Troupe{Members: []ModuleAddr{addr}}
	got, err := client.Call(context.Background(), tr, ProcGetState, nil, CallOptions{})
	if err != nil {
		t.Fatalf("get_state: %v", err)
	}
	var v int64
	if err := wire.Unmarshal(got, &v); err != nil || v != 42 {
		t.Fatalf("state = %d, %v", v, err)
	}
}

func TestGetStateUnsupported(t *testing.T) {
	c := newCluster(t, 18, 1, ExportOptions{})
	_, err := c.client.Call(context.Background(), c.troupe, ProcGetState, nil, CallOptions{})
	var app *AppError
	if !errors.As(err, &app) {
		t.Fatalf("err = %v, want AppError", err)
	}
}

// TestManyToOneCollation is the heart of §4.3.2: two client troupe
// members make the same logical call; the server must execute exactly
// once and return the result to both.
func TestManyToOneCollation(t *testing.T) {
	net := netsim.New(19)
	resolver := StaticResolver{}
	opts := fastOpts()
	opts.Resolver = resolver

	server := newRuntime(t, net, opts)
	mod := &echoModule{}
	saddr := server.Export(mod, ExportOptions{})
	serverTroupe := Troupe{Members: []ModuleAddr{saddr}}

	// Client troupe of two members sharing one logical thread.
	clientTroupeID := TroupeID(0xc11e)
	c1 := newRuntime(t, net, opts)
	c2 := newRuntime(t, net, opts)
	resolver[clientTroupeID] = []ModuleAddr{
		{Addr: c1.Addr(), Module: 0},
		{Addr: c2.Addr(), Module: 0},
	}

	tid := thread.ID{Host: 77, Proc: 1}
	run := func(rt *Runtime) ([]byte, error) {
		tc := thread.Child(tid, []uint32{5}) // identical logical frame
		return rt.Call(context.Background(), serverTroupe, 1, []byte("from-troupe"), CallOptions{
			thread:       tc,
			clientTroupe: clientTroupeID,
		})
	}

	type res struct {
		data []byte
		err  error
	}
	r1 := make(chan res, 1)
	r2 := make(chan res, 1)
	go func() { d, e := run(c1); r1 <- res{d, e} }()
	go func() { d, e := run(c2); r2 <- res{d, e} }()

	for i, ch := range []chan res{r1, r2} {
		select {
		case r := <-ch:
			if r.err != nil {
				t.Fatalf("client %d: %v", i+1, r.err)
			}
			if string(r.data) != "from-troupe" {
				t.Fatalf("client %d got %q", i+1, r.data)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("client %d timed out", i+1)
		}
	}
	if mod.execs.Load() != 1 {
		t.Fatalf("server executed %d times, want exactly once", mod.execs.Load())
	}
}

// TestManyToOneSlowMemberGetsBufferedReply: the second client member
// sends its call message long after execution; it must receive the
// buffered return without re-execution (§4.3.4).
func TestManyToOneSlowMemberGetsBufferedReply(t *testing.T) {
	net := netsim.New(20)
	resolver := StaticResolver{}
	opts := fastOpts()
	opts.Resolver = resolver

	server := newRuntime(t, net, opts)
	mod := &echoModule{}
	saddr := server.Export(mod, ExportOptions{Policy: ArgFirstCome})
	serverTroupe := Troupe{Members: []ModuleAddr{saddr}}

	clientTroupeID := TroupeID(0xc11f)
	c1 := newRuntime(t, net, opts)
	c2 := newRuntime(t, net, opts)
	resolver[clientTroupeID] = []ModuleAddr{
		{Addr: c1.Addr(), Module: 0},
		{Addr: c2.Addr(), Module: 0},
	}

	tid := thread.ID{Host: 78, Proc: 1}
	call := func(rt *Runtime) ([]byte, error) {
		tc := thread.Child(tid, []uint32{9})
		return rt.Call(context.Background(), serverTroupe, 1, []byte("fc"), CallOptions{
			thread:       tc,
			clientTroupe: clientTroupeID,
		})
	}

	if got, err := call(c1); err != nil || string(got) != "fc" {
		t.Fatalf("fast member: %q, %v", got, err)
	}
	if mod.execs.Load() != 1 {
		t.Fatalf("executions after first member = %d", mod.execs.Load())
	}
	time.Sleep(100 * time.Millisecond)
	if got, err := call(c2); err != nil || string(got) != "fc" {
		t.Fatalf("slow member: %q, %v", got, err)
	}
	if mod.execs.Load() != 1 {
		t.Fatalf("slow member caused re-execution: %d", mod.execs.Load())
	}
}

// TestManyToOneTimeoutOnCrashedClientMember: with one client member
// crashed, the ArgWaitAll server must proceed after its availability
// timeout rather than stalling forever.
func TestManyToOneTimeoutOnCrashedClientMember(t *testing.T) {
	net := netsim.New(21)
	resolver := StaticResolver{}
	opts := fastOpts()
	opts.Resolver = resolver

	server := newRuntime(t, net, opts)
	mod := &echoModule{}
	saddr := server.Export(mod, ExportOptions{Policy: ArgWaitAll})
	serverTroupe := Troupe{Members: []ModuleAddr{saddr}}

	clientTroupeID := TroupeID(0xc120)
	c1 := newRuntime(t, net, opts)
	c2 := newRuntime(t, net, opts) // will never call
	resolver[clientTroupeID] = []ModuleAddr{
		{Addr: c1.Addr(), Module: 0},
		{Addr: c2.Addr(), Module: 0},
	}

	tc := thread.Child(thread.ID{Host: 79, Proc: 1}, []uint32{1})
	start := time.Now()
	got, err := c1.Call(context.Background(), serverTroupe, 1, []byte("solo"), CallOptions{
		thread:       tc,
		clientTroupe: clientTroupeID,
	})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(got) != "solo" {
		t.Fatalf("got %q", got)
	}
	if d := time.Since(start); d < 250*time.Millisecond {
		t.Errorf("server proceeded after %v, before the availability timeout", d)
	}
}

// avgModule averages the temperature arguments of all client troupe
// members — Figure 7.7's explicit replication on the server side.
type avgModule struct{}

func (avgModule) Dispatch(call *ServerCall, proc uint16, args []byte) ([]byte, error) {
	var vals []float64
	for _, a := range call.Args() {
		var v float64
		if err := wire.Unmarshal(a, &v); err != nil {
			return nil, err
		}
		vals = append(vals, v)
	}
	return wire.Marshal(collate.MeanFloat64(vals))
}

// TestServerSideArgumentCollation: explicit replication on the server
// side (Figure 7.7). Each "sensor" client member sends its own
// reading; the module averages all of them.
func TestServerSideArgumentCollation(t *testing.T) {
	net := netsim.New(22)
	resolver := StaticResolver{}
	opts := fastOpts()
	opts.Resolver = resolver

	server := newRuntime(t, net, opts)
	saddr := server.Export(avgModule{}, ExportOptions{Policy: ArgWaitAll, AllowDivergentArgs: true})
	serverTroupe := Troupe{Members: []ModuleAddr{saddr}}

	clientTroupeID := TroupeID(0xc121)
	c1 := newRuntime(t, net, opts)
	c2 := newRuntime(t, net, opts)
	resolver[clientTroupeID] = []ModuleAddr{
		{Addr: c1.Addr(), Module: 0},
		{Addr: c2.Addr(), Module: 0},
	}

	tid := thread.ID{Host: 80, Proc: 1}
	results := make(chan float64, 2)
	errc := make(chan error, 2)
	call := func(rt *Runtime, temp float64) {
		tc := thread.Child(tid, []uint32{3})
		arg, _ := wire.Marshal(temp)
		got, err := rt.Call(context.Background(), serverTroupe, 1, arg, CallOptions{
			thread:       tc,
			clientTroupe: clientTroupeID,
		})
		if err != nil {
			errc <- err
			return
		}
		var v float64
		if err := wire.Unmarshal(got, &v); err != nil {
			errc <- err
			return
		}
		results <- v
	}
	go call(c1, 10)
	go call(c2, 30)
	for i := 0; i < 2; i++ {
		select {
		case err := <-errc:
			t.Fatalf("call: %v", err)
		case v := <-results:
			if v != 20 {
				t.Fatalf("average = %v, want 20", v)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("timed out")
		}
	}
}

// explicitModule records how many argument messages were visible.
type explicitModule struct {
	nArgs atomic.Int64
}

func (m *explicitModule) Dispatch(call *ServerCall, proc uint16, args []byte) ([]byte, error) {
	m.nArgs.Store(int64(len(call.Args())))
	return args, nil
}

func TestServerArgsVisibleUnderWaitAll(t *testing.T) {
	net := netsim.New(23)
	resolver := StaticResolver{}
	opts := fastOpts()
	opts.Resolver = resolver

	server := newRuntime(t, net, opts)
	mod := &explicitModule{}
	saddr := server.Export(mod, ExportOptions{Policy: ArgWaitAll})
	serverTroupe := Troupe{Members: []ModuleAddr{saddr}}

	clientTroupeID := TroupeID(0xc122)
	c1 := newRuntime(t, net, opts)
	c2 := newRuntime(t, net, opts)
	resolver[clientTroupeID] = []ModuleAddr{
		{Addr: c1.Addr(), Module: 0},
		{Addr: c2.Addr(), Module: 0},
	}

	tid := thread.ID{Host: 81, Proc: 1}
	done := make(chan error, 2)
	for _, rt := range []*Runtime{c1, c2} {
		rt := rt
		go func() {
			tc := thread.Child(tid, []uint32{4})
			_, err := rt.Call(context.Background(), serverTroupe, 1, []byte("same"), CallOptions{
				thread:       tc,
				clientTroupe: clientTroupeID,
			})
			done <- err
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("call: %v", err)
		}
	}
	if n := mod.nArgs.Load(); n != 2 {
		t.Fatalf("server saw %d argument messages, want 2", n)
	}
}

// nestedModule calls a downstream troupe when dispatched — the setup
// for the full many-to-many test.
type nestedModule struct {
	downstream Troupe
	execs      atomic.Int64
}

func (m *nestedModule) Dispatch(call *ServerCall, proc uint16, args []byte) ([]byte, error) {
	m.execs.Add(1)
	return call.Call(m.downstream, 1, args, CallOptions{})
}

// TestManyToManyCall builds client troupe A (degree 2) calling server
// troupe B (degree 2) and checks Figure 4.1's contract: every A member
// gets results from every B member; every B member executes exactly
// once.
func TestManyToManyCall(t *testing.T) {
	net := netsim.New(24)
	resolver := StaticResolver{}
	opts := fastOpts()
	opts.Resolver = resolver

	// Troupe B: the ultimate servers.
	troupeB := Troupe{ID: 0xb}
	var bMods []*echoModule
	for i := 0; i < 2; i++ {
		rt := newRuntime(t, net, opts)
		mod := &echoModule{}
		addr := rt.Export(mod, ExportOptions{})
		rt.SetTroupeID(addr.Module, troupeB.ID)
		troupeB.Members = append(troupeB.Members, addr)
		bMods = append(bMods, mod)
	}
	resolver[troupeB.ID] = troupeB.Members

	// Troupe A: middle tier; its members call B.
	troupeA := Troupe{ID: 0xa}
	var aMods []*nestedModule
	for i := 0; i < 2; i++ {
		rt := newRuntime(t, net, opts)
		mod := &nestedModule{downstream: troupeB}
		addr := rt.Export(mod, ExportOptions{})
		rt.SetTroupeID(addr.Module, troupeA.ID)
		troupeA.Members = append(troupeA.Members, addr)
		aMods = append(aMods, mod)
	}
	resolver[troupeA.ID] = troupeA.Members

	driver := newRuntime(t, net, opts)
	got, err := driver.Call(context.Background(), troupeA, 1, []byte("deep"), CallOptions{})
	if err != nil {
		t.Fatalf("driver call: %v", err)
	}
	if string(got) != "deep" {
		t.Fatalf("got %q", got)
	}
	for i, m := range aMods {
		if m.execs.Load() != 1 {
			t.Errorf("A member %d executed %d times", i, m.execs.Load())
		}
	}
	for i, m := range bMods {
		if m.execs.Load() != 1 {
			t.Errorf("B member %d executed %d times, want exactly once (many-to-one collation)", i, m.execs.Load())
		}
	}
}

// TestThreadIDPropagation checks §3.4.1: the thread ID seen by the
// server equals the client's, and nested calls extend the path.
func TestThreadIDPropagation(t *testing.T) {
	net := netsim.New(25)
	opts := fastOpts()
	server := newRuntime(t, net, opts)
	var seen thread.ID
	mod := ModuleFunc(func(call *ServerCall, proc uint16, args []byte) ([]byte, error) {
		seen = call.Thread().ID()
		return nil, nil
	})
	addr := server.Export(mod, ExportOptions{})
	client := newRuntime(t, net, opts)
	tc := client.NewThread()
	ctx := thread.NewContext(context.Background(), tc)
	if _, err := client.Call(ctx, Troupe{Members: []ModuleAddr{addr}}, 1, nil, CallOptions{}); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if seen != tc.ID() {
		t.Fatalf("server saw thread %v, want %v", seen, tc.ID())
	}
}

func TestCallEachGenerator(t *testing.T) {
	c := newCluster(t, 26, 3, ExportOptions{})
	items := c.client.CallEach(context.Background(), c.troupe, 1, []byte("g"), CallOptions{})
	seen := 0
	for i := 0; i < 3; i++ {
		select {
		case it := <-items:
			if it.Err != nil {
				t.Fatalf("item %d: %v", i, it.Err)
			}
			if string(it.Data) != "g" {
				t.Fatalf("item %d = %q", i, it.Data)
			}
			seen++
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d items", seen)
		}
	}
}

func TestCallTimeout(t *testing.T) {
	c := newCluster(t, 27, 1, ExportOptions{})
	slow := ModuleFunc(func(call *ServerCall, proc uint16, args []byte) ([]byte, error) {
		time.Sleep(2 * time.Second)
		return nil, nil
	})
	addr := c.servers[0].Export(slow, ExportOptions{})
	tr := Troupe{Members: []ModuleAddr{addr}}
	start := time.Now()
	_, err := c.client.Call(context.Background(), tr, 1, nil, CallOptions{Timeout: 100 * time.Millisecond})
	if err == nil {
		t.Fatal("expected timeout error")
	}
	if time.Since(start) > time.Second {
		t.Fatalf("timeout took %v", time.Since(start))
	}
}

func TestCloseFailsCalls(t *testing.T) {
	c := newCluster(t, 28, 1, ExportOptions{})
	c.client.Close()
	_, err := c.client.Call(context.Background(), c.troupe, 1, nil, CallOptions{})
	if !errors.Is(err, ErrClosed) && !errors.Is(err, ErrTroupeDown) {
		t.Fatalf("err = %v, want ErrClosed-ish", err)
	}
}

func TestTroupeIDString(t *testing.T) {
	s := TroupeID(0xabc).String()
	if s != "troupe:0000000000000abc" {
		t.Fatalf("String() = %q", s)
	}
}

func TestModuleAddrString(t *testing.T) {
	m := ModuleAddr{Module: 3}
	if got := fmt.Sprint(m); got != "0.0.0.0:0#3" {
		t.Fatalf("String() = %q", got)
	}
}

func TestDegree(t *testing.T) {
	tr := Troupe{Members: make([]ModuleAddr, 4)}
	if tr.Degree() != 4 {
		t.Fatal("Degree broken")
	}
}
