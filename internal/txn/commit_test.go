package txn

import (
	"context"
	"sync"
	"testing"
	"time"

	"circus/internal/core"
	"circus/internal/netsim"
	"circus/internal/thread"
	"circus/internal/wire"
)

// bankMember is one server troupe member running transactions over a
// local store and committing through the troupe commit protocol.
type bankMember struct {
	store       *Store
	coordinator core.Troupe

	mu      sync.Mutex
	commits int
	aborts  int
}

func (b *bankMember) Dispatch(call *core.ServerCall, proc uint16, args []byte) ([]byte, error) {
	switch proc {
	case 1: // deposit(amount) within a replicated transaction
		var amount int64
		if err := wire.Unmarshal(args, &amount); err != nil {
			return nil, err
		}
		tx := b.store.Begin()
		var balance int64
		if v, err := tx.Get("balance"); err == nil {
			wire.Unmarshal(v, &balance)
		}
		enc, _ := wire.Marshal(balance + amount)
		if err := tx.Set("balance", enc); err != nil {
			tx.Abort()
			return nil, err
		}
		// Ready to commit: call back the client troupe (§5.3).
		commit, err := ReadyToCommit(call, b.coordinator, "deposit", true)
		if err != nil {
			tx.Abort()
			return nil, err
		}
		b.mu.Lock()
		defer b.mu.Unlock()
		if !commit {
			tx.Abort()
			b.aborts++
			return wire.Marshal(false)
		}
		if err := tx.Commit(); err != nil {
			return nil, err
		}
		b.commits++
		return wire.Marshal(true)
	case 2: // vote-abort variant: the member itself wants to abort
		commit, err := ReadyToCommit(call, b.coordinator, "doomed", false)
		if err != nil {
			return nil, err
		}
		return wire.Marshal(commit)
	default:
		return nil, core.ErrNoSuchProc
	}
}

// TestTroupeCommitAllReady: a server troupe of two; both members call
// ready_to_commit(true); the coordinator must answer true to both and
// both commit.
func TestTroupeCommitAllReady(t *testing.T) {
	net := netsim.New(41)
	resolver := core.StaticResolver{}
	opts := fastOpts()
	opts.Resolver = resolver

	// Client with its coordinator module.
	clientRT := newRT(t, net, opts)
	coordAddr := clientRT.Export(NewCoordinator(resolver), CoordinatorExportOptions())
	clientTroupeID := core.TroupeID(0xc0)
	resolver[clientTroupeID] = []core.ModuleAddr{coordAddr}
	coordTroupe := core.Troupe{Members: []core.ModuleAddr{coordAddr}}

	// Server troupe of two bank members.
	serverTroupe := core.Troupe{ID: 0xba}
	var members []*bankMember
	for i := 0; i < 2; i++ {
		rt := newRT(t, net, opts)
		m := &bankMember{store: NewStore(), coordinator: coordTroupe}
		addr := rt.Export(m, core.ExportOptions{})
		rt.SetTroupeID(addr.Module, serverTroupe.ID)
		serverTroupe.Members = append(serverTroupe.Members, addr)
		members = append(members, m)
	}
	resolver[serverTroupe.ID] = serverTroupe.Members

	amount, _ := wire.Marshal(int64(100))
	res, err := clientRT.Call(context.Background(), serverTroupe, 1, amount, core.CallOptions{
		AsTroupe: clientTroupeID,
	})
	if err != nil {
		t.Fatalf("deposit: %v", err)
	}
	var committed bool
	if err := wire.Unmarshal(res, &committed); err != nil || !committed {
		t.Fatalf("committed = %v, %v", committed, err)
	}
	for i, m := range members {
		v, ok := m.store.ReadCommitted("balance")
		if !ok {
			t.Fatalf("member %d has no balance", i)
		}
		var bal int64
		wire.Unmarshal(v, &bal)
		if bal != 100 {
			t.Fatalf("member %d balance = %d", i, bal)
		}
		if m.commits != 1 || m.aborts != 0 {
			t.Fatalf("member %d commits=%d aborts=%d", i, m.commits, m.aborts)
		}
	}
}

// TestTroupeCommitVoteAbort: one member votes false; the whole troupe
// must abort.
func TestTroupeCommitVoteAbort(t *testing.T) {
	net := netsim.New(42)
	resolver := core.StaticResolver{}
	opts := fastOpts()
	opts.Resolver = resolver

	clientRT := newRT(t, net, opts)
	coordAddr := clientRT.Export(NewCoordinator(resolver), CoordinatorExportOptions())
	clientTroupeID := core.TroupeID(0xc1)
	resolver[clientTroupeID] = []core.ModuleAddr{coordAddr}
	coordTroupe := core.Troupe{Members: []core.ModuleAddr{coordAddr}}

	serverTroupe := core.Troupe{ID: 0xbb}
	for i := 0; i < 2; i++ {
		rt := newRT(t, net, opts)
		m := &bankMember{store: NewStore(), coordinator: coordTroupe}
		addr := rt.Export(m, core.ExportOptions{})
		rt.SetTroupeID(addr.Module, serverTroupe.ID)
		serverTroupe.Members = append(serverTroupe.Members, addr)
	}
	resolver[serverTroupe.ID] = serverTroupe.Members

	res, err := clientRT.Call(context.Background(), serverTroupe, 2, nil, core.CallOptions{
		AsTroupe: clientTroupeID,
	})
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	var committed bool
	if err := wire.Unmarshal(res, &committed); err != nil {
		t.Fatal(err)
	}
	if committed {
		t.Fatal("transaction committed despite a false vote")
	}
}

// TestTroupeCommitMissingVoteAborts models Theorem 5.1's deadlock
// path: only one of two server troupe members reaches
// ready_to_commit (the other serialized a conflicting transaction
// first and is blocked). The coordinator's barrier times out and the
// round must abort rather than commit with partial votes.
func TestTroupeCommitMissingVoteAborts(t *testing.T) {
	net := netsim.New(43)
	resolver := core.StaticResolver{}
	opts := fastOpts()
	opts.Resolver = resolver

	clientRT := newRT(t, net, opts)
	coordAddr := clientRT.Export(NewCoordinator(resolver), CoordinatorExportOptions())
	coordTroupe := core.Troupe{Members: []core.ModuleAddr{coordAddr}}

	// The "server troupe" has two registered members, but only one
	// will ever vote.
	voter := newRT(t, net, opts)
	silent := newRT(t, net, opts)
	serverTroupeID := core.TroupeID(0xbd)
	resolver[serverTroupeID] = []core.ModuleAddr{
		{Addr: voter.Addr(), Module: 0},
		{Addr: silent.Addr(), Module: 0},
	}

	// The voting member calls ready_to_commit directly, impersonating
	// a server-member thread.
	tc := thread.Child(thread.ID{Host: 5, Proc: 5}, []uint32{1})
	args, _ := wire.Marshal(readyArgs{TxKey: "t", Ready: true})
	start := time.Now()
	res, err := voter.Call(context.Background(), coordTroupe, ProcReadyToCommit, args, core.CallOptions{
		AsTroupe: serverTroupeID,
		Thread:   tc,
	})
	if err != nil {
		t.Fatalf("ready_to_commit: %v", err)
	}
	var commit bool
	if err := wire.Unmarshal(res, &commit); err != nil {
		t.Fatal(err)
	}
	if commit {
		t.Fatal("committed with a missing vote")
	}
	if time.Since(start) < 200*time.Millisecond {
		t.Error("coordinator answered before the barrier timeout — it did not wait for the second member")
	}
}

// TestTroupeCommitTheorem51SameOrder: two sequential transactions
// committed in the same order at all members succeed (the "if"
// direction of Theorem 5.1).
func TestTroupeCommitTheorem51SameOrder(t *testing.T) {
	net := netsim.New(44)
	resolver := core.StaticResolver{}
	opts := fastOpts()
	opts.Resolver = resolver

	clientRT := newRT(t, net, opts)
	coordAddr := clientRT.Export(NewCoordinator(resolver), CoordinatorExportOptions())
	clientTroupeID := core.TroupeID(0xc2)
	resolver[clientTroupeID] = []core.ModuleAddr{coordAddr}
	coordTroupe := core.Troupe{Members: []core.ModuleAddr{coordAddr}}

	serverTroupe := core.Troupe{ID: 0xbe}
	var members []*bankMember
	for i := 0; i < 3; i++ {
		rt := newRT(t, net, opts)
		m := &bankMember{store: NewStore(), coordinator: coordTroupe}
		addr := rt.Export(m, core.ExportOptions{})
		rt.SetTroupeID(addr.Module, serverTroupe.ID)
		serverTroupe.Members = append(serverTroupe.Members, addr)
		members = append(members, m)
	}
	resolver[serverTroupe.ID] = serverTroupe.Members

	for i := 0; i < 3; i++ {
		amount, _ := wire.Marshal(int64(10))
		res, err := clientRT.Call(context.Background(), serverTroupe, 1, amount, core.CallOptions{
			AsTroupe: clientTroupeID,
		})
		if err != nil {
			t.Fatalf("deposit %d: %v", i, err)
		}
		var ok bool
		wire.Unmarshal(res, &ok)
		if !ok {
			t.Fatalf("deposit %d aborted", i)
		}
	}
	for i, m := range members {
		v, _ := m.store.ReadCommitted("balance")
		var bal int64
		wire.Unmarshal(v, &bal)
		if bal != 30 {
			t.Fatalf("member %d balance = %d, want 30", i, bal)
		}
		if m.commits != 3 {
			t.Fatalf("member %d commits = %d", i, m.commits)
		}
	}
}
