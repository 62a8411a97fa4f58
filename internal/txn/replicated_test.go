package txn

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"circus/internal/core"
	"circus/internal/netsim"
	"circus/internal/thread"
	"circus/internal/wire"
)

// replWorld is a replicated transactional store of the given degree
// plus helpers to mint clients.
type replWorld struct {
	t        *testing.T
	net      *netsim.Network
	resolver core.StaticResolver
	dest     core.Troupe
	mods     []*StoreModule
	rts      []*core.Runtime // the members'
}

func newReplWorld(t *testing.T, seed int64, degree int) *replWorld {
	t.Helper()
	w := &replWorld{t: t, net: netsim.New(seed), resolver: core.StaticResolver{}}
	opts := fastOpts()
	opts.Resolver = w.resolver
	w.dest = core.Troupe{ID: 0x7e57}
	for i := 0; i < degree; i++ {
		rt := newRT(t, w.net, opts)
		m := NewStoreModule(NewStore(), time.Minute)
		addr := rt.Export(m, core.ExportOptions{})
		rt.SetTroupeID(addr.Module, w.dest.ID)
		w.dest.Members = append(w.dest.Members, addr)
		w.mods = append(w.mods, m)
		w.rts = append(w.rts, rt)
	}
	w.resolver[w.dest.ID] = w.dest.Members
	return w
}

func (w *replWorld) client() *RemoteStore {
	opts := fastOpts()
	opts.Resolver = w.resolver
	rt := newRT(w.t, w.net, opts)
	return NewRemoteStore(rt, w.dest, w.resolver)
}

// committed reads a member's committed value.
func (w *replWorld) committed(member int, key string) ([]byte, bool) {
	return w.mods[member].Store().ReadCommitted(key)
}

// assertConsistent demands identical committed state at every member —
// troupe consistency (§3.5.2).
func (w *replWorld) assertConsistent() {
	w.t.Helper()
	ref := w.mods[0].Store()
	refKeys := ref.Keys()
	for i := 1; i < len(w.mods); i++ {
		s := w.mods[i].Store()
		keys := s.Keys()
		if len(keys) != len(refKeys) {
			w.t.Fatalf("member %d has %d keys, member 0 has %d", i, len(keys), len(refKeys))
		}
		for _, k := range refKeys {
			a, _ := ref.ReadCommitted(k)
			b, ok := s.ReadCommitted(k)
			if !ok || !bytes.Equal(a, b) {
				w.t.Fatalf("member %d diverges at %q: %v vs %v", i, k, b, a)
			}
		}
	}
}

func TestReplicatedStoreCommit(t *testing.T) {
	w := newReplWorld(t, 71, 3)
	rs := w.client()
	err := rs.Run(context.Background(), RetryOptions{}, func(tx *RemoteTx) error {
		if err := tx.Set("a", []byte("1")); err != nil {
			return err
		}
		return tx.Set("b", []byte("2"))
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := range w.mods {
		if v, ok := w.committed(i, "a"); !ok || string(v) != "1" {
			t.Fatalf("member %d: a = %q, %v", i, v, ok)
		}
	}
	w.assertConsistent()
	for i, m := range w.mods {
		if m.ActiveTransactions() != 0 {
			t.Fatalf("member %d leaked %d transactions", i, m.ActiveTransactions())
		}
	}
}

func TestReplicatedStoreReadYourWrites(t *testing.T) {
	w := newReplWorld(t, 72, 2)
	rs := w.client()
	err := rs.Run(context.Background(), RetryOptions{}, func(tx *RemoteTx) error {
		if err := tx.Set("k", []byte("v")); err != nil {
			return err
		}
		got, found, err := tx.Get("k")
		if err != nil {
			return err
		}
		if !found || string(got) != "v" {
			return fmt.Errorf("read-your-writes broken: %q %v", got, found)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestReplicatedStoreGetMissing(t *testing.T) {
	w := newReplWorld(t, 73, 2)
	rs := w.client()
	err := rs.Run(context.Background(), RetryOptions{}, func(tx *RemoteTx) error {
		_, found, err := tx.Get("ghost")
		if err != nil {
			return err
		}
		if found {
			return errors.New("found a ghost")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestReplicatedStoreBodyErrorAborts(t *testing.T) {
	w := newReplWorld(t, 74, 2)
	rs := w.client()
	boom := errors.New("boom")
	err := rs.Run(context.Background(), RetryOptions{}, func(tx *RemoteTx) error {
		if err := tx.Set("a", []byte("tentative")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// Give the abort a moment to land at the members.
	time.Sleep(100 * time.Millisecond)
	for i := range w.mods {
		if _, ok := w.committed(i, "a"); ok {
			t.Fatalf("member %d committed an aborted write", i)
		}
		if w.mods[i].ActiveTransactions() != 0 {
			t.Fatalf("member %d leaked a transaction", i)
		}
	}
}

func TestReplicatedStoreDelete(t *testing.T) {
	w := newReplWorld(t, 75, 2)
	rs := w.client()
	if err := rs.Run(context.Background(), RetryOptions{}, func(tx *RemoteTx) error {
		return tx.Set("d", []byte("x"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := rs.Run(context.Background(), RetryOptions{}, func(tx *RemoteTx) error {
		return tx.Delete("d")
	}); err != nil {
		t.Fatal(err)
	}
	for i := range w.mods {
		if _, ok := w.committed(i, "d"); ok {
			t.Fatalf("member %d still has deleted key", i)
		}
	}
}

// TestReplicatedStoreSerializableCounter: concurrent read-modify-write
// increments from independent clients must not lose updates, and every
// member must end with the same count — the full Chapter 5 guarantee.
func TestReplicatedStoreSerializableCounter(t *testing.T) {
	w := newReplWorld(t, 76, 2)

	const clients = 3
	const perClient = 4
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		c := c
		rs := w.client()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				err := rs.Run(context.Background(), RetryOptions{MaxAttempts: 40}, func(tx *RemoteTx) error {
					raw, found, err := tx.Get("n")
					if err != nil {
						return err
					}
					var n uint32
					if found {
						if err := wire.Unmarshal(raw, &n); err != nil {
							return err
						}
					}
					enc, _ := wire.Marshal(n + 1)
					return tx.Set("n", enc)
				})
				if err != nil {
					errs[c] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}

	raw, ok := w.committed(0, "n")
	if !ok {
		t.Fatal("counter missing")
	}
	var n uint32
	wire.Unmarshal(raw, &n)
	if n != clients*perClient {
		t.Fatalf("counter = %d, want %d (lost updates)", n, clients*perClient)
	}
	w.assertConsistent()
}

func TestReplicatedStoreIdleTransactionExpires(t *testing.T) {
	net := netsim.New(77)
	resolver := core.StaticResolver{}
	opts := fastOpts()
	opts.Resolver = resolver

	rt := newRT(t, net, opts)
	mod := NewStoreModule(NewStore(), 50*time.Millisecond)
	addr := rt.Export(mod, core.ExportOptions{})
	dest := core.Troupe{Members: []core.ModuleAddr{addr}}

	clientRT := newRT(t, net, opts)
	rs := NewRemoteStore(clientRT, dest, resolver)

	// Open a transaction and abandon it (no commit, no abort).
	tx := &RemoteTx{rs: rs, ctx: context.Background(), tc: clientRT.NewThread()}
	if err := tx.Set("orphan", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if mod.ActiveTransactions() != 1 {
		t.Fatalf("active = %d", mod.ActiveTransactions())
	}
	time.Sleep(120 * time.Millisecond)

	// A new transaction touching the same key must not deadlock on the
	// orphan's lock: the sweeper reaps it on the next dispatch.
	err := rs.Run(context.Background(), RetryOptions{}, func(tx *RemoteTx) error {
		return tx.Set("orphan", []byte("y"))
	})
	if err != nil {
		t.Fatalf("post-expiry transaction: %v", err)
	}
	if v, ok := mod.Store().ReadCommitted("orphan"); !ok || string(v) != "y" {
		t.Fatalf("orphan = %q, %v", v, ok)
	}
}

func TestReplicatedStoreStateTransfer(t *testing.T) {
	w := newReplWorld(t, 78, 2)
	rs := w.client()
	if err := rs.Run(context.Background(), RetryOptions{}, func(tx *RemoteTx) error {
		return tx.Set("seed", []byte("value"))
	}); err != nil {
		t.Fatal(err)
	}
	state, err := w.mods[0].GetState()
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewStoreModule(NewStore(), 0)
	if err := fresh.SetState(state); err != nil {
		t.Fatal(err)
	}
	if v, ok := fresh.Store().ReadCommitted("seed"); !ok || string(v) != "value" {
		t.Fatalf("transferred state: %q, %v", v, ok)
	}
}

func TestReplicatedStoreConflictingClientsConverge(t *testing.T) {
	// Two clients write disjoint then overlapping keys concurrently;
	// whatever serialization wins, all members must agree on it
	// (Theorem 5.1's "same order at all members").
	w := newReplWorld(t, 79, 3)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		c := c
		rs := w.client()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				rs.Run(context.Background(), RetryOptions{MaxAttempts: 30}, func(tx *RemoteTx) error {
					if err := tx.Set("shared", []byte{byte(c)}); err != nil {
						return err
					}
					return tx.Set(fmt.Sprintf("own-%d", c), []byte{byte(i)})
				})
			}
		}()
	}
	wg.Wait()
	w.assertConsistent()
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{ErrAborted, true},
		{&core.AppError{Msg: "txn: wait-die abort"}, true},
		{&core.AppError{Msg: "no such key"}, false},
		{errors.New("random"), false},
		{context.DeadlineExceeded, true},
	}
	for _, c := range cases {
		if got := retryable(c.err); got != c.want {
			t.Errorf("retryable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestCommitWithoutTransaction(t *testing.T) {
	w := newReplWorld(t, 80, 1)
	rs := w.client()
	tx := &RemoteTx{rs: rs, ctx: context.Background(), tc: rs.rt.NewThread()}
	_, err := tx.commit()
	var app *core.AppError
	if !errors.As(err, &app) {
		t.Fatalf("commit without tx: %v", err)
	}
	if !reflect.DeepEqual(app.Msg, errNoTxWire) {
		t.Fatalf("msg = %q", app.Msg)
	}
}

// stamped returns a thread whose transactions carry the wait-die stamp
// proc<<32 | 1: of two such threads, the one with the smaller proc is
// older at every member.
func stamped(proc uint32) *thread.Context {
	return thread.NewRoot(thread.ID{Host: 1, Proc: proc})
}

// TestReplicatedStoreWaitDieSameLoser: two members receive the Sets of
// two conflicting transactions on one key in opposite orders. Every
// member stamps a transaction with its thread's ID, so both refuse the
// younger one and neither waits for it to be refused elsewhere: the
// younger aborts, the older commits, and no operation waits longer
// than it takes the client to abort the loser.
func TestReplicatedStoreWaitDieSameLoser(t *testing.T) {
	w := newReplWorld(t, 81, 2)
	rs := w.client()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	old, young := stamped(1), stamped(2)
	// at runs a transaction's operations at member i alone.
	at := func(tc *thread.Context, i int) *RemoteTx {
		one := &RemoteStore{rt: rs.rt, dest: core.Troupe{Members: w.dest.Members[i : i+1]}}
		return &RemoteTx{rs: one, ctx: ctx, tc: tc}
	}
	const bound = 100 * time.Millisecond
	timed := func(what string, f func() error) error {
		t.Helper()
		start := time.Now()
		err := f()
		if d := time.Since(start); d > bound {
			t.Errorf("%s took %v, want ≤ %v", what, d, bound)
		}
		return err
	}

	// Member 1 sees the older transaction first, member 0 the younger.
	if err := timed("older Set at member 1", func() error { return at(old, 1).Set("k", []byte("old")) }); err != nil {
		t.Fatalf("older Set at member 1: %v", err)
	}
	if err := timed("younger Set at member 0", func() error { return at(young, 0).Set("k", []byte("young")) }); err != nil {
		t.Fatalf("younger Set at member 0: %v", err)
	}
	err := timed("younger Set at member 1", func() error { return at(young, 1).Set("k", []byte("young")) })
	var app *core.AppError
	if !errors.As(err, &app) || app.Msg != ErrWaitDie.Error() {
		t.Fatalf("younger Set behind the older at member 1 = %v, want %v", err, ErrWaitDie)
	}
	olderAt0 := make(chan error, 1)
	start := time.Now()
	go func() { olderAt0 <- at(old, 0).Set("k", []byte("old")) }()
	queued(t, w.mods[0].Store().lm, "k", 1) // the older waits for the younger

	// The client aborts the loser everywhere; the older gets its lock.
	(&RemoteTx{rs: rs, ctx: ctx, tc: young}).abort()
	if err := <-olderAt0; err != nil {
		t.Fatalf("older Set at member 0: %v", err)
	}
	if d := time.Since(start); d > bound {
		t.Errorf("older Set at member 0 waited %v, want ≤ %v", d, bound)
	}
	ok, err := (&RemoteTx{rs: rs, ctx: ctx, tc: old}).commit()
	if err != nil || !ok {
		t.Fatalf("older commit = %v, %v; want true", ok, err)
	}
	for i := range w.mods {
		if v, _ := w.committed(i, "k"); string(v) != "old" {
			t.Fatalf("member %d: k = %q, want old", i, v)
		}
		if n := w.mods[i].ActiveTransactions(); n != 0 {
			t.Fatalf("member %d holds %d transactions", i, n)
		}
	}
}

// TestReplicatedStoreCloseEndsLockWait: an older transaction waits at
// a member for a lock held by a younger one whose client has vanished.
// Closing the member's runtime aborts the waiting transaction there,
// so Close, which waits for every dispatch worker, returns.
func TestReplicatedStoreCloseEndsLockWait(t *testing.T) {
	w := newReplWorld(t, 82, 1)
	rs := w.client()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	young := &RemoteTx{rs: rs, ctx: ctx, tc: stamped(2)}
	if err := young.Set("k", []byte("young")); err != nil {
		t.Fatal(err)
	}
	// young's client vanishes: no commit, no abort.
	older := make(chan error, 1)
	go func() { older <- (&RemoteTx{rs: rs, ctx: ctx, tc: stamped(1)}).Set("k", []byte("old")) }()
	queued(t, w.mods[0].Store().lm, "k", 1)

	closed := make(chan struct{})
	go func() { w.rts[0].Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Runtime.Close blocked behind a member's lock wait")
	}
	cancel()
	if err := <-older; err == nil {
		t.Fatal("the older Set succeeded at a closed member")
	}
}
