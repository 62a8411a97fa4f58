package ringmaster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"circus/internal/core"
	"circus/internal/netsim"
	"circus/internal/pairedmsg"
)

func fastOpts() core.Options {
	return core.Options{
		Message: pairedmsg.Options{
			RetransmitInterval: 10 * time.Millisecond,
			MaxRetries:         15,
			ProbeInterval:      15 * time.Millisecond,
			ProbeMissLimit:     4,
		},
		ManyToOneTimeout: 300 * time.Millisecond,
	}
}

type fixture struct {
	t      *testing.T
	net    *netsim.Network
	binder core.Troupe
	svcs   []*Service
	rts    []*core.Runtime
}

func newRuntime(t *testing.T, n *netsim.Network) *core.Runtime {
	t.Helper()
	ep, err := n.Listen(n.NewHost(), 0)
	if err != nil {
		t.Fatal(err)
	}
	rt := core.NewRuntime(ep, fastOpts())
	t.Cleanup(func() { rt.Close() })
	return rt
}

// newFixture starts a Ringmaster troupe of the given degree.
func newFixture(t *testing.T, seed int64, degree int) *fixture {
	t.Helper()
	f := &fixture{t: t, net: netsim.New(seed)}
	f.binder = core.Troupe{ID: 0} // bootstrap: addressed directly, no incarnation check
	for i := 0; i < degree; i++ {
		rt := newRuntime(t, f.net)
		svc := NewService()
		addr := rt.Export(svc, core.ExportOptions{})
		f.binder.Members = append(f.binder.Members, addr)
		f.svcs = append(f.svcs, svc)
		f.rts = append(f.rts, rt)
	}
	return f
}

// client creates a fresh runtime with a Ringmaster client wired in as
// its resolver.
func (f *fixture) client() (*core.Runtime, *Client) {
	rt := newRuntime(f.t, f.net)
	c := NewClient(rt, f.binder)
	rt.SetResolver(c)
	return rt, c
}

// echo is a trivial exported module.
type echo struct{ execs atomic.Int64 }

func (e *echo) Dispatch(call *core.ServerCall, proc uint16, args []byte) ([]byte, error) {
	e.execs.Add(1)
	return args, nil
}

// spawnServer exports an echo module on a fresh runtime and registers
// it as a member of the named troupe.
func (f *fixture) spawnServer(c *Client, name string) (core.ModuleAddr, *echo) {
	rt := newRuntime(f.t, f.net)
	mod := &echo{}
	addr := rt.Export(mod, core.ExportOptions{})
	if _, err := c.AddMember(context.Background(), name, addr); err != nil {
		f.t.Fatalf("AddMember(%s): %v", name, err)
	}
	return addr, mod
}

func TestRegisterAndLookup(t *testing.T) {
	f := newFixture(t, 1, 1)
	_, c := f.client()
	a1, _ := f.spawnServer(c, "svc")
	a2, _ := f.spawnServer(c, "svc")

	tr, err := c.LookupByName(context.Background(), "svc")
	if err != nil {
		t.Fatalf("LookupByName: %v", err)
	}
	if tr.Degree() != 2 {
		t.Fatalf("degree = %d, want 2", tr.Degree())
	}
	if tr.ID == 0 {
		t.Fatal("troupe ID not assigned")
	}
	want := map[core.ModuleAddr]bool{a1: true, a2: true}
	for _, m := range tr.Members {
		if !want[m] {
			t.Fatalf("unexpected member %v", m)
		}
	}
}

func TestLookupUnknownName(t *testing.T) {
	f := newFixture(t, 2, 1)
	_, c := f.client()
	if _, err := c.LookupByName(context.Background(), "ghost"); err == nil {
		t.Fatal("lookup of unregistered name succeeded")
	}
}

func TestMembersLearnTroupeID(t *testing.T) {
	f := newFixture(t, 3, 1)
	_, c := f.client()

	rt := newRuntime(t, f.net)
	mod := &echo{}
	addr := rt.Export(mod, core.ExportOptions{})
	id, err := c.AddMember(context.Background(), "svc", addr)
	if err != nil {
		t.Fatal(err)
	}
	// set_troupe_id must have reached the member (§6.2).
	deadline := time.Now().Add(2 * time.Second)
	for rt.TroupeIDOf(addr.Module) != id && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := rt.TroupeIDOf(addr.Module); got != id {
		t.Fatalf("member troupe ID = %v, want %v", got, id)
	}
}

func TestAddMemberChangesID(t *testing.T) {
	f := newFixture(t, 4, 1)
	_, c := f.client()
	f.spawnServer(c, "svc")
	t1, err := c.LookupByName(context.Background(), "svc")
	if err != nil {
		t.Fatal(err)
	}
	f.spawnServer(c, "svc")
	t2, err := c.LookupByName(context.Background(), "svc")
	if err != nil {
		t.Fatal(err)
	}
	if t1.ID == t2.ID {
		t.Fatal("troupe ID did not change with membership (incarnation numbers broken)")
	}
}

func TestCallThroughBinding(t *testing.T) {
	f := newFixture(t, 5, 1)
	rt, c := f.client()
	_, m1 := f.spawnServer(c, "svc")
	_, m2 := f.spawnServer(c, "svc")

	tr, err := c.LookupByName(context.Background(), "svc")
	if err != nil {
		t.Fatal(err)
	}
	got, err := rt.Call(context.Background(), tr, 1, []byte("bound"), core.CallOptions{})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(got) != "bound" {
		t.Fatalf("got %q", got)
	}
	if m1.execs.Load() != 1 || m2.execs.Load() != 1 {
		t.Fatalf("execs = %d, %d; want 1,1", m1.execs.Load(), m2.execs.Load())
	}
}

func TestStaleBindingDetectedAndRebound(t *testing.T) {
	f := newFixture(t, 6, 1)
	rt, c := f.client()
	f.spawnServer(c, "svc")

	stale, err := c.LookupByName(context.Background(), "svc")
	if err != nil {
		t.Fatal(err)
	}

	// Membership changes behind the client's back: another client adds
	// a member, so the troupe ID advances.
	_, c2 := f.client()
	f.spawnServer(c2, "svc")

	// Wait until the member has adopted the new ID.
	time.Sleep(100 * time.Millisecond)

	_, err = rt.Call(context.Background(), stale, 1, []byte("x"), core.CallOptions{})
	var sbe *core.StaleBindingError
	if !errors.As(err, &sbe) {
		t.Fatalf("err = %v, want StaleBindingError", err)
	}

	fresh, err := c.Rebind(context.Background(), "svc", stale)
	if err != nil {
		t.Fatalf("Rebind: %v", err)
	}
	if fresh.ID == stale.ID {
		t.Fatal("rebind returned the stale ID")
	}
	got, err := rt.Call(context.Background(), fresh, 1, []byte("x"), core.CallOptions{})
	if err != nil {
		t.Fatalf("call after rebind: %v", err)
	}
	if string(got) != "x" {
		t.Fatalf("got %q", got)
	}
}

func TestLookupByIDResolver(t *testing.T) {
	f := newFixture(t, 7, 1)
	_, c := f.client()
	f.spawnServer(c, "svc")
	tr, err := c.LookupByName(context.Background(), "svc")
	if err != nil {
		t.Fatal(err)
	}
	c.InvalidateAll() // force a remote lookup
	members, err := c.LookupByID(tr.ID)
	if err != nil {
		t.Fatalf("LookupByID: %v", err)
	}
	if !reflect.DeepEqual(members, tr.Members) {
		t.Fatalf("members = %v, want %v", members, tr.Members)
	}
}

func TestRemoveMember(t *testing.T) {
	f := newFixture(t, 8, 1)
	_, c := f.client()
	a1, _ := f.spawnServer(c, "svc")
	f.spawnServer(c, "svc")

	if _, err := c.RemoveMember(context.Background(), "svc", a1); err != nil {
		t.Fatalf("RemoveMember: %v", err)
	}
	tr, err := c.LookupByName(context.Background(), "svc")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Degree() != 1 {
		t.Fatalf("degree = %d, want 1", tr.Degree())
	}
	if tr.Members[0] == a1 {
		t.Fatal("removed member still present")
	}
}

func TestListNames(t *testing.T) {
	f := newFixture(t, 9, 1)
	_, c := f.client()
	f.spawnServer(c, "beta")
	f.spawnServer(c, "alpha")
	names, err := c.ListNames(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, []string{"alpha", "beta"}) {
		t.Fatalf("names = %v", names)
	}
}

func TestReplicatedRingmasterConsistency(t *testing.T) {
	// A Ringmaster troupe of 3: registrations flow through replicated
	// procedure calls and every member must end in the same state.
	f := newFixture(t, 10, 3)
	_, c := f.client()
	f.spawnServer(c, "svc")
	f.spawnServer(c, "svc")

	states := make([][]byte, len(f.svcs))
	for i, svc := range f.svcs {
		st, err := svc.GetState()
		if err != nil {
			t.Fatalf("GetState %d: %v", i, err)
		}
		states[i] = st
	}
	for i := 1; i < len(states); i++ {
		if !reflect.DeepEqual(states[0], states[i]) {
			t.Fatalf("ringmaster member %d diverged from member 0", i)
		}
	}

	tr, err := c.LookupByName(context.Background(), "svc")
	if err != nil {
		t.Fatalf("lookup via replicated binder: %v", err)
	}
	if tr.Degree() != 2 {
		t.Fatalf("degree = %d", tr.Degree())
	}
}

func TestRingmasterSurvivesMemberCrash(t *testing.T) {
	f := newFixture(t, 11, 3)
	_, c := f.client()
	f.spawnServer(c, "svc")

	f.net.Crash(f.binder.Members[0].Addr.Host)

	tr, err := c.LookupByName(context.Background(), "svc")
	if err != nil {
		t.Fatalf("lookup with crashed binder member: %v", err)
	}
	if tr.Degree() != 1 {
		t.Fatalf("degree = %d", tr.Degree())
	}
}

func TestStateTransferToNewRingmasterMember(t *testing.T) {
	f := newFixture(t, 12, 1)
	rtc, c := f.client()
	f.spawnServer(c, "svc")
	f.spawnServer(c, "other")

	// New member initializes its state from the existing troupe via
	// get_state (§6.4.1).
	got, err := rtc.Call(context.Background(), f.binder, core.ProcGetState, nil, core.CallOptions{})
	if err != nil {
		t.Fatalf("get_state: %v", err)
	}
	fresh := NewService()
	if err := fresh.SetState(got); err != nil {
		t.Fatalf("SetState: %v", err)
	}
	st0, _ := f.svcs[0].GetState()
	st1, _ := fresh.GetState()
	if !reflect.DeepEqual(st0, st1) {
		t.Fatal("transferred state differs from source")
	}
}

// TestPublishMapCompareAndSet: a map publish is accepted only at
// exactly one past the stored epoch, FetchMap returns the latest
// accepted map, and state transfer carries the map to a new member.
func TestPublishMapCompareAndSet(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t, 14, 1)
	rtc, c := f.client()
	if err := c.PublishMap(ctx, "kv", 1, []byte("one")); err != nil {
		t.Fatalf("publish epoch 1: %v", err)
	}
	for _, epoch := range []uint64{1, 3} {
		err := c.PublishMap(ctx, "kv", epoch, []byte("stale"))
		if err == nil || !strings.Contains(err.Error(), "stale map publish") {
			t.Fatalf("publish epoch %d over 1: err = %v, want the stale-publish error", epoch, err)
		}
	}
	if err := c.PublishMap(ctx, "kv", 2, []byte("two")); err != nil {
		t.Fatalf("publish epoch 2: %v", err)
	}
	if epoch, data, err := c.FetchMap(ctx, "kv"); err != nil || epoch != 2 || string(data) != "two" {
		t.Fatalf("FetchMap = %d, %q, %v; want 2, \"two\"", epoch, data, err)
	}
	if epoch, data, err := c.FetchMap(ctx, "ghost"); err == nil || epoch != 0 || len(data) != 0 {
		t.Fatalf("FetchMap of unknown service = %d, %q, %v; want 0, empty and an error", epoch, data, err)
	}

	// A member initialized by state transfer serves the same map.
	st, err := f.svcs[0].GetState()
	if err != nil {
		t.Fatalf("GetState: %v", err)
	}
	fresh := NewService()
	if err := fresh.SetState(st); err != nil {
		t.Fatalf("SetState: %v", err)
	}
	addr := newRuntime(t, f.net).Export(fresh, core.ExportOptions{})
	c2 := NewClient(rtc, core.Troupe{Members: []core.ModuleAddr{addr}})
	if epoch, data, err := c2.FetchMap(ctx, "kv"); err != nil || epoch != 2 || string(data) != "two" {
		t.Fatalf("transferred FetchMap = %d, %q, %v; want 2, \"two\"", epoch, data, err)
	}
}

func TestGarbageCollect(t *testing.T) {
	f := newFixture(t, 13, 1)
	_, c := f.client()
	a1, _ := f.spawnServer(c, "svc")
	f.spawnServer(c, "svc")

	f.net.Crash(a1.Addr.Host)
	removed, err := c.GarbageCollect(context.Background(), 300*time.Millisecond)
	if err != nil {
		t.Fatalf("GarbageCollect: %v", err)
	}
	if removed != 1 {
		t.Fatalf("removed = %d, want 1", removed)
	}
	tr, err := c.LookupByName(context.Background(), "svc")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Degree() != 1 {
		t.Fatalf("degree after GC = %d, want 1", tr.Degree())
	}
	for _, m := range tr.Members {
		if m == a1 {
			t.Fatal("crashed member survived GC")
		}
	}
}

func TestTroupeIDDeterministic(t *testing.T) {
	if troupeID("x", 1) != troupeID("x", 1) {
		t.Fatal("troupeID not deterministic")
	}
	if troupeID("x", 1) == troupeID("x", 2) {
		t.Fatal("incarnations collide")
	}
	if troupeID("x", 1) == troupeID("y", 1) {
		t.Fatal("names collide")
	}
	if troupeID("x", 1) == 0 {
		t.Fatal("zero troupe ID issued")
	}
}

func TestBadArgumentsRejected(t *testing.T) {
	svc := NewService()
	for _, proc := range []uint16{ProcRegisterTroupe, ProcAddTroupeMember,
		ProcRemoveTroupeMember, ProcLookupByName, ProcLookupByID, ProcRebind} {
		if _, err := svc.Dispatch(nil, proc, []byte{0xff}); err == nil {
			t.Errorf("proc %d accepted garbage arguments", proc)
		}
	}
	if _, err := svc.Dispatch(nil, 99, nil); err != core.ErrNoSuchProc {
		t.Errorf("unknown proc: %v", err)
	}
}

func TestLookupByIDUnknown(t *testing.T) {
	f := newFixture(t, 20, 1)
	_, c := f.client()
	if _, err := c.LookupByID(core.TroupeID(0xdeadbeef)); err == nil {
		t.Fatal("lookup of unknown troupe ID succeeded")
	}
}

func TestRemoveMemberUnknownName(t *testing.T) {
	f := newFixture(t, 21, 1)
	_, c := f.client()
	if _, err := c.RemoveMember(context.Background(), "ghost", core.ModuleAddr{}); err == nil {
		t.Fatal("remove from unknown troupe succeeded")
	}
}

func TestRebindRefreshesCache(t *testing.T) {
	f := newFixture(t, 22, 1)
	_, c := f.client()
	f.spawnServer(c, "svc")
	before, err := c.LookupByName(context.Background(), "svc")
	if err != nil {
		t.Fatal(err)
	}
	// Cache hit path: a second lookup returns the same value without a
	// remote call (observable only behaviourally: it succeeds even if
	// we crash the binder).
	f.net.Crash(f.binder.Members[0].Addr.Host)
	cached, err := c.LookupByName(context.Background(), "svc")
	if err != nil {
		t.Fatalf("cached lookup hit the network: %v", err)
	}
	if cached.ID != before.ID {
		t.Fatal("cache returned a different binding")
	}
	f.net.Restart(f.binder.Members[0].Addr.Host)
}

func TestAddIdempotentMember(t *testing.T) {
	f := newFixture(t, 23, 1)
	_, c := f.client()
	addr, _ := f.spawnServer(c, "svc")
	// Re-adding the same member advances the incarnation but keeps the
	// membership set a set.
	if _, err := c.AddMember(context.Background(), "svc", addr); err != nil {
		t.Fatal(err)
	}
	tr, err := c.LookupByName(context.Background(), "svc")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Degree() != 1 {
		t.Fatalf("degree = %d after duplicate add", tr.Degree())
	}
}

func TestRegisterWholeTroupe(t *testing.T) {
	f := newFixture(t, 24, 1)
	rt, c := f.client()

	m1 := rt.Export(&echo{}, core.ExportOptions{})
	m2 := rt.Export(&echo{}, core.ExportOptions{})
	id, err := c.Register(context.Background(), "pair", []core.ModuleAddr{m1, m2})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if id == 0 {
		t.Fatal("no troupe ID")
	}
	tr, err := c.LookupByName(context.Background(), "pair")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Degree() != 2 || tr.ID != id {
		t.Fatalf("troupe = %+v", tr)
	}
	// Members were informed of their ID (set_troupe_id).
	deadline := time.Now().Add(2 * time.Second)
	for rt.TroupeIDOf(m1.Module) != id && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if rt.TroupeIDOf(m1.Module) != id || rt.TroupeIDOf(m2.Module) != id {
		t.Fatal("members not informed of troupe ID")
	}
}

// TestPublishRace: two publishers race FetchMap then PublishMap(e+1)
// against a Ringmaster troupe of 3 on links of 200 µs–2 ms. The
// members may apply the two publishes of one epoch in different
// orders, so one member can accept what the others refuse; the
// unanimous collator must then report the split instead of
// acknowledging it, so no epoch is acknowledged to both publishers.
// Member divergence itself is only logged: ordering the Ringmaster's
// writes is a separate change.
func TestPublishRace(t *testing.T) {
	const seeds = 10
	diverged := 0
	for seed := int64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { diverged += publishRace(t, 300+seed) })
	}
	t.Logf("members diverged in %d of %d seeds", diverged, seeds)
}

// publishRace runs one seed of TestPublishRace and reports 1 if the
// members ended with different states.
func publishRace(t *testing.T, seed int64) int {
	const rounds = 25
	f := newFixture(t, seed, 3)
	f.net.SetLink(netsim.LinkConfig{MinDelay: 200 * time.Microsecond, MaxDelay: 2 * time.Millisecond})
	var mu sync.Mutex
	acked := map[uint64]int{}
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		_, c := f.client()
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < rounds; i++ {
				epoch, _, _ := c.FetchMap(ctx, "kv")
				if c.PublishMap(ctx, "kv", epoch+1, []byte{byte(p)}) == nil {
					mu.Lock()
					acked[epoch+1]++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	for epoch, n := range acked {
		if n > 1 {
			t.Errorf("epoch %d acknowledged to %d publishers", epoch, n)
		}
	}
	st0, _ := f.svcs[0].GetState()
	for _, svc := range f.svcs[1:] {
		if st, _ := svc.GetState(); !bytes.Equal(st, st0) {
			return 1
		}
	}
	return 0
}
