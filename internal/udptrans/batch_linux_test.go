//go:build linux && (amd64 || arm64)

package udptrans

import (
	"sync/atomic"
	"testing"
	"time"

	"circus/internal/transport"
)

// TestSendBatchWarmAllocatesNothing: a batch within sendBatchMax goes
// out through pooled kernel-facing scratch, so once warm a 3-datagram
// sendmmsg allocates nothing, and its datagrams arrive.
func TestSendBatchWarmAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	a, err := Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var got atomic.Int64
	b.SetHandler(func(p transport.Packet) {
		p.Buf.Release()
		got.Add(1)
	})
	batch := []transport.Datagram{
		{To: b.Addr(), Data: []byte("one")},
		{To: b.Addr(), Data: []byte("two")},
		{To: b.Addr(), Data: []byte("three")},
	}
	send := func() {
		if err := a.SendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	send()
	for deadline := time.Now().Add(2 * time.Second); got.Load() < 3 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := got.Load(); n != 3 {
		t.Fatalf("received %d of 3 datagrams", n)
	}
	if n := testing.AllocsPerRun(100, send); n != 0 {
		t.Errorf("warm 3-datagram SendBatch: %v allocations, want 0", n)
	}
}

// TestShortBatchWaitsWithoutProbing: two endpoints play ping-pong,
// each handler answering a datagram by sending the next one to the
// other endpoint. Every datagram then finds its receiver just back
// from a short batch — it arrives while, or just after, the
// receiver's drain loop stops calling recvmmsg and waits for the
// socket instead. Every one of the chain is still delivered, and the
// short batches cost no recvmmsg call that finds the queue empty:
// probing again after each was one wasted system call per datagram.
func TestShortBatchWaitsWithoutProbing(t *testing.T) {
	const chain = 2000
	var eps [2]*Endpoint
	for i := range eps {
		ep, err := Listen(0)
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		eps[i] = ep
	}
	done := make(chan struct{})
	var got atomic.Int64
	for i, ep := range eps {
		peer := eps[1-i].Addr()
		ep.SetHandler(func(p transport.Packet) {
			p.Buf.Release()
			if n := got.Add(1); n == chain {
				close(done)
			} else if n < chain {
				if err := ep.Send(peer, []byte("next")); err != nil {
					t.Error(err)
				}
			}
		})
	}
	base := eps[0].idleRecvs.Load() + eps[1].idleRecvs.Load()
	if err := eps[0].Send(eps[1].Addr(), []byte("first")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("the chain stalled after %d datagrams: one that arrived just after a short batch was never delivered", got.Load())
	}
	idle := eps[0].idleRecvs.Load() + eps[1].idleRecvs.Load() - base
	t.Logf("%d datagrams, %d receive calls found the socket empty", chain, idle)
	if idle > chain/10 {
		t.Errorf("%d recvmmsg calls found the socket empty over %d datagrams, want <= %d",
			idle, chain, chain/10)
	}
}

// TestSendBatchWarmOneSendmmsg: a batch of sendBatchMax datagrams
// leaves in one sendmmsg system call, and a multicast to a group of
// three in one more; every datagram arrives.
func TestSendBatchWarmOneSendmmsg(t *testing.T) {
	a, err := Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var got atomic.Int64
	b.SetHandler(func(p transport.Packet) {
		p.Buf.Release()
		got.Add(1)
	})
	batch := make([]transport.Datagram, sendBatchMax)
	for i := range batch {
		batch[i] = transport.Datagram{To: b.Addr(), Data: []byte{byte(i)}}
	}
	if err := a.SendBatch(batch); err != nil { // warm the scratch pool
		t.Fatal(err)
	}
	calls := a.sendCalls.Load()
	if err := a.SendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if n := a.sendCalls.Load() - calls; n != 1 {
		t.Errorf("a warm %d-datagram SendBatch made %d send calls, want 1", len(batch), n)
	}
	calls = a.sendCalls.Load()
	if err := a.Multicast([]transport.Addr{b.Addr(), b.Addr(), b.Addr()}, []byte("m")); err != nil {
		t.Fatal(err)
	}
	if n := a.sendCalls.Load() - calls; n != 1 {
		t.Errorf("a multicast to 3 made %d send calls, want 1", n)
	}
	want := int64(2*sendBatchMax + 3)
	for deadline := time.Now().Add(2 * time.Second); got.Load() < want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := got.Load(); n != want {
		t.Fatalf("received %d of %d datagrams", n, want)
	}
}
