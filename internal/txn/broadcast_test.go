package txn

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
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
		ManyToOneTimeout: 250 * time.Millisecond,
	}
}

func newRT(t *testing.T, n *netsim.Network, opts core.Options) *core.Runtime {
	t.Helper()
	ep, err := n.Listen(n.NewHost(), 0)
	if err != nil {
		t.Fatal(err)
	}
	rt := core.NewRuntime(ep, opts)
	t.Cleanup(func() { rt.Close() })
	return rt
}

func TestQueueOrdering(t *testing.T) {
	var order []string
	q := NewQueue(func(id string, msg []byte) { order = append(order, id) })

	p1 := q.Propose("m1", nil)
	p2 := q.Propose("m2", nil)
	if p2 <= p1 {
		t.Fatalf("clock not monotonic: %d then %d", p1, p2)
	}
	// Accept m2 first with a larger final time: it must not be
	// delivered while m1 is still only proposed.
	if err := q.Accept("m2", p2+10); err != nil {
		t.Fatal(err)
	}
	if len(order) != 0 {
		t.Fatalf("m2 delivered before m1 resolved: %v", order)
	}
	if err := q.Accept("m1", p1+5); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []string{"m1", "m2"}) {
		t.Fatalf("order = %v, want [m1 m2]", order)
	}
	if q.Pending() != 0 {
		t.Fatalf("pending = %d", q.Pending())
	}
}

func TestQueueTiebreakByID(t *testing.T) {
	var order []string
	q := NewQueue(func(id string, msg []byte) { order = append(order, id) })
	q.Propose("b", nil)
	q.Propose("a", nil)
	q.Accept("b", 100)
	q.Accept("a", 100)
	if !reflect.DeepEqual(order, []string{"a", "b"}) {
		t.Fatalf("equal-time order = %v, want [a b]", order)
	}
}

func TestQueueClockAdvancesOnAccept(t *testing.T) {
	q := NewQueue(func(string, []byte) {})
	q.Propose("m1", nil)
	q.Accept("m1", 500)
	if p := q.Propose("m2", nil); p <= 500 {
		t.Fatalf("proposal %d not past accepted time 500", p)
	}
	q.Accept("m2", 501)
}

func TestQueueAcceptUnknown(t *testing.T) {
	q := NewQueue(func(string, []byte) {})
	if err := q.Accept("ghost", 1); err == nil {
		t.Fatal("accept of unknown message succeeded")
	}
}

// TestQueueConcurrentAcceptsDeliverInOrder: two accept_time calls on
// two goroutines; the first message's delivery is still running when
// the second is accepted and released. Delivery order must be release
// order all the same, one delivery at a time.
func TestQueueConcurrentAcceptsDeliverInOrder(t *testing.T) {
	var mu sync.Mutex
	var order []string
	entered, unblock := make(chan struct{}), make(chan struct{})
	q := NewQueue(func(id string, _ []byte) {
		if id == "m1" {
			close(entered)
			<-unblock
		}
		mu.Lock()
		order = append(order, id)
		mu.Unlock()
	})
	t1, t2 := q.Propose("m1", nil), q.Propose("m2", nil)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); q.Accept("m1", t1) }()
	<-entered
	go func() { defer wg.Done(); q.Accept("m2", t2) }()
	// m2 is released as soon as it is accepted (Pending falls to 0 once
	// it is handed over for delivery); give an out-of-order delivery
	// time to show itself.
	for deadline := time.Now().Add(2 * time.Second); q.Pending() > 1 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	early := append([]string(nil), order...)
	mu.Unlock()
	if len(early) != 0 {
		t.Errorf("delivered %v while m1's delivery was still running", early)
	}
	close(unblock)
	wg.Wait()
	for deadline := time.Now().Add(2 * time.Second); q.Pending() > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(order, []string{"m1", "m2"}) {
		t.Fatalf("delivery order %v, want [m1 m2]", order)
	}
}

// TestOrderedBroadcastEndToEnd: several concurrent broadcasters, a
// troupe of three members; every member must deliver every message in
// the identical order (§5.4's guarantee) and nothing may starve.
func TestOrderedBroadcastEndToEnd(t *testing.T) {
	net := netsim.New(31)
	opts := fastOpts()

	const degree = 3
	var mus [degree]sync.Mutex
	orders := make([][]string, degree)
	dest := core.Troupe{ID: 0xbc}
	resolver := core.StaticResolver{}
	opts.Resolver = resolver
	for i := 0; i < degree; i++ {
		i := i
		rt := newRT(t, net, opts)
		q := NewQueue(func(id string, msg []byte) {
			mus[i].Lock()
			orders[i] = append(orders[i], id)
			mus[i].Unlock()
		})
		addr := rt.Export(&Module{Queue: q}, core.ExportOptions{})
		rt.SetTroupeID(addr.Module, dest.ID)
		dest.Members = append(dest.Members, addr)
	}
	resolver[dest.ID] = dest.Members

	const clients, perClient = 3, 5
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		rt := newRT(t, net, opts)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				id := fmt.Sprintf("c%d-m%d", c, k)
				if err := Broadcast(context.Background(), rt, dest, id, []byte(id)); err != nil {
					t.Errorf("broadcast %s: %v", id, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	deadline := time.Now().Add(5 * time.Second)
	for {
		mus[0].Lock()
		n := len(orders[0])
		mus[0].Unlock()
		if n == clients*perClient || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	var ref []string
	mus[0].Lock()
	ref = append(ref, orders[0]...)
	mus[0].Unlock()
	if len(ref) != clients*perClient {
		t.Fatalf("member 0 delivered %d of %d (starvation?)", len(ref), clients*perClient)
	}
	for i := 1; i < degree; i++ {
		mus[i].Lock()
		got := append([]string(nil), orders[i]...)
		mus[i].Unlock()
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("member %d order %v differs from member 0 %v", i, got, ref)
		}
	}
}

// TestOrderedBroadcastDeterministicCC: the delivered order drives
// serial read-modify-write updates at each member; all members must
// end in the same state even though the operations do not commute.
func TestOrderedBroadcastDeterministicCC(t *testing.T) {
	net := netsim.New(32)
	opts := fastOpts()
	resolver := core.StaticResolver{}
	opts.Resolver = resolver

	const degree = 3
	stores := make([]*Store, degree)
	queues := make([]*Queue, degree)
	var delivered [degree]atomic.Int64
	dest := core.Troupe{ID: 0xcc}
	for i := 0; i < degree; i++ {
		i := i
		s := NewStore()
		stores[i] = s
		seed := s.Begin()
		seed.Set("v", []byte{1})
		seed.Commit()
		q := NewQueue(func(id string, msg []byte) {
			// Serial execution in acceptance order: the trivial
			// deterministic concurrency control of §5.4.
			s.Run(RetryOptions{}, func(tx *Tx) error {
				v, err := tx.Get("v")
				if err != nil {
					return err
				}
				switch msg[0] {
				case '+':
					return tx.Set("v", []byte{v[0] + msg[1]})
				default:
					return tx.Set("v", []byte{v[0] * msg[1]})
				}
			})
			delivered[i].Add(1)
		})
		queues[i] = q
		rt := newRT(t, net, opts)
		addr := rt.Export(&Module{Queue: q}, core.ExportOptions{})
		rt.SetTroupeID(addr.Module, dest.ID)
		dest.Members = append(dest.Members, addr)
	}
	resolver[dest.ID] = dest.Members

	// Non-commuting updates from two concurrent clients.
	var wg sync.WaitGroup
	ops := [][]byte{{'+', 3}, {'*', 5}, {'+', 7}, {'*', 2}}
	for c := 0; c < 2; c++ {
		c := c
		rt := newRT(t, net, opts)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, op := range ops {
				id := fmt.Sprintf("cl%d-%d", c, k)
				if err := Broadcast(context.Background(), rt, dest, id, op); err != nil {
					t.Errorf("broadcast: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	// Every accept_time has returned, but a delivery may still be
	// running on another call's goroutine: wait them out.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		idle := true
		for i, q := range queues {
			idle = idle && q.Pending() == 0 && delivered[i].Load() == int64(2*len(ops))
		}
		if idle {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("deliveries did not drain")
		}
	}

	v0, _ := stores[0].ReadCommitted("v")
	for i := 1; i < degree; i++ {
		vi, _ := stores[i].ReadCommitted("v")
		if v0[0] != vi[0] {
			t.Fatalf("member %d state %d != member 0 state %d (troupe inconsistency)", i, vi[0], v0[0])
		}
	}
}

func TestSimulateCommitRoundMatchesEq51(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const trials = 20000
	cases := []struct {
		k, n int
		want float64 // 1 - (1/k!)^(n-1)
	}{
		{1, 3, 0},
		{2, 2, 0.5},
		{2, 3, 0.75},
		{3, 2, 1 - 1.0/6},
	}
	for _, c := range cases {
		dead := 0
		for i := 0; i < trials; i++ {
			if SimulateCommitRound(c.k, c.n, rng) {
				dead++
			}
		}
		got := float64(dead) / trials
		if diff := got - c.want; diff > 0.02 || diff < -0.02 {
			t.Errorf("k=%d n=%d: P[deadlock] = %.3f, want %.3f", c.k, c.n, got, c.want)
		}
	}
}
