package netsim

import (
	"encoding/binary"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"circus/internal/transport"
)

// TestLinkDelayPrecise checks that a delayed datagram arrives when its
// link says, even when every processor is idle, where a runtime timer
// of 300 µs fires about a millisecond late.
func TestLinkDelayPrecise(t *testing.T) {
	if raceEnabled {
		t.Skip("timing under the race detector is not the code's")
	}
	const delay, sends = 300 * time.Microsecond, 200
	n := New(1)
	n.SetLink(LinkConfig{MinDelay: delay, MaxDelay: delay})
	a := mustListen(t, n, n.NewHost(), 0)
	b := mustListen(t, n, n.NewHost(), 0)
	late := make([]time.Duration, sends)
	for i := range late {
		start := time.Now()
		if err := a.Send(b.Addr(), []byte("x")); err != nil {
			t.Fatal(err)
		}
		pkt, ok := recvOne(t, b, time.Second)
		if !ok {
			t.Fatalf("datagram %d not delivered", i)
		}
		took := time.Since(start)
		pkt.Buf.Release()
		if took < delay {
			t.Fatalf("datagram %d arrived after %v, before its %v delay", i, took, delay)
		}
		late[i] = took - delay
	}
	slices.Sort(late)
	t.Logf("%d datagrams over a %v link: late by %v at p50, %v at p90", sends, delay, late[sends/2], late[sends*9/10])
	if p50 := late[sends/2]; p50 >= 150*time.Microsecond {
		t.Errorf("datagrams arrive %v late at p50 over a %v link, want < 150µs", p50, delay)
	}
}

// TestDelayedDeliveryBounded checks that a burst of delayed datagrams
// arrives in send order, is carried by at most one goroutine, and
// leaves none behind.
func TestDelayedDeliveryBounded(t *testing.T) {
	forEachMode(t, func(t *testing.T, m mode) {
		const count = 1000
		n := New(1)
		n.SetLink(LinkConfig{MinDelay: 20 * time.Millisecond, MaxDelay: 20 * time.Millisecond})
		a := m.listen(t, n, n.NewHost(), 0)
		b := m.listen(t, n, n.NewHost(), 0)
		base := runtime.NumGoroutine()
		peak := base
		sample := func() { peak = max(peak, runtime.NumGoroutine()) }
		var msg [4]byte
		for i := 0; i < count; i++ {
			binary.BigEndian.PutUint32(msg[:], uint32(i))
			if err := a.Send(b.Addr(), msg[:]); err != nil {
				t.Fatal(err)
			}
			sample()
		}
		for i := 0; i < count; i++ {
			pkt, ok := recvOne(t, b, time.Second)
			if !ok {
				t.Fatalf("datagram %d not delivered", i)
			}
			if got := binary.BigEndian.Uint32(pkt.Data); got != uint32(i) {
				t.Fatalf("datagram %d arrived in place %d", got, i)
			}
			pkt.Buf.Release()
			sample()
		}
		if peak > base+1 {
			t.Errorf("%d goroutines in flight over a baseline of %d, want at most one delivery goroutine", peak, base)
		}
		waitFor(t, func() bool { return runtime.NumGoroutine() <= base }, "goroutines back at baseline %d", base)
	})
}

// TestCrashDropsQueuedDatagrams checks that datagrams in flight to a
// host that crashes are dropped, counted, and their pooled buffers
// returned.
func TestCrashDropsQueuedDatagrams(t *testing.T) {
	forEachMode(t, func(t *testing.T, m mode) {
		const count = 64
		// Two collections empty a sync.Pool, so that what the pool hands
		// out below was put there by this test's drops.
		runtime.GC()
		runtime.GC()
		n := New(1)
		n.SetLink(LinkConfig{MinDelay: 20 * time.Millisecond, MaxDelay: 20 * time.Millisecond})
		a := m.listen(t, n, n.NewHost(), 0)
		b := m.listen(t, n, n.NewHost(), 0)
		for i := 0; i < count; i++ {
			if err := a.Send(b.Addr(), []byte("doomed")); err != nil {
				t.Fatal(err)
			}
		}
		n.mu.Lock()
		queued := make(map[*transport.Buf]bool)
		for _, d := range n.queue {
			queued[d.pkt.Buf] = true
		}
		n.mu.Unlock()
		if len(queued) != count {
			t.Fatalf("%d datagrams queued, want %d", len(queued), count)
		}
		n.Crash(b.Addr().Host)
		waitFor(t, func() bool { return n.Stats().Dropped == count }, "all %d dropped", count)
		if _, ok := recvOne(t, b, 10*time.Millisecond); ok {
			t.Fatal("a crashed host received a queued datagram")
		}
		// A released buffer is back in the pool. The race detector's pool
		// drops a quarter of what it is given, so ask for half.
		back := 0
		for i := 0; i < 2*count; i++ {
			if queued[pktBufs.Get()] {
				back++
			}
		}
		if back < count/2 {
			t.Errorf("%d of %d dropped buffers came back from the pool", back, count)
		}
	})
}

// TestDeliveryRacesCrashCloseInject runs senders on a delayed link
// against crashes, restarts, endpoint closes and injections, and
// checks that every datagram is delivered or dropped exactly once.
func TestDeliveryRacesCrashCloseInject(t *testing.T) {
	forEachMode(t, func(t *testing.T, m mode) {
		n := New(1)
		n.SetLink(LinkConfig{MinDelay: 50 * time.Microsecond, MaxDelay: 500 * time.Microsecond})
		hosts := []uint32{n.NewHost(), n.NewHost(), n.NewHost()}
		release := func(pkt transport.Packet) {
			if pkt.Buf != nil { // injected datagrams are not pooled
				pkt.Buf.Release()
			}
		}
		listen := func(h uint32) *Endpoint {
			ep, err := n.Listen(h, 7)
			if err != nil {
				t.Fatal(err)
			}
			if m.handler {
				ep.SetHandler(release)
			} else {
				go func() {
					for pkt := range ep.Recv() {
						release(pkt)
					}
				}()
			}
			return ep
		}
		eps := make([]*Endpoint, len(hosts))
		for i, h := range hosts {
			eps[i] = listen(h)
		}
		var wg sync.WaitGroup
		for i, ep := range eps {
			wg.Add(1)
			go func(i int, ep *Endpoint) {
				defer wg.Done()
				to := eps[(i+1)%len(eps)].Addr()
				for j := 0; j < 500; j++ {
					ep.Send(to, []byte("x"))
				}
			}(i, ep)
		}
		injected := 0
		for j := 0; j < 50; j++ {
			h := hosts[j%len(hosts)]
			n.Crash(h)
			n.Inject(transport.Packet{From: eps[0].Addr(), To: eps[1].Addr(), Data: []byte("i")})
			injected++
			time.Sleep(100 * time.Microsecond)
			n.Restart(h)
			if j == 25 {
				eps[2].Close()
				defer listen(hosts[2]).Close()
			}
		}
		wg.Wait()
		waitFor(t, func() bool {
			s := n.Stats()
			return s.Delivered+s.Dropped == s.Datagrams+int64(injected)
		}, "every datagram delivered or dropped")
		eps[0].Close()
		eps[1].Close()
	})
}

// TestHandlerStopsAtClose streams numbered datagrams into a handler
// and closes its endpoint mid-stream: the handler sees them in send
// order, and never runs once Close has returned, not even for
// datagrams the network still had on the link.
func TestHandlerStopsAtClose(t *testing.T) {
	for _, tc := range []struct {
		name string
		link LinkConfig
	}{
		{"instant", LinkConfig{}},
		{"delayed", LinkConfig{MinDelay: 100 * time.Microsecond, MaxDelay: 100 * time.Microsecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := New(1)
			n.SetLink(tc.link)
			a := mustListen(t, n, n.NewHost(), 0)
			b, err := n.Listen(n.NewHost(), 0)
			if err != nil {
				t.Fatal(err)
			}
			var (
				closed, stop atomic.Bool
				late         atomic.Int64
				mu           sync.Mutex
				got          []uint32
			)
			b.SetHandler(func(pkt transport.Packet) {
				if closed.Load() {
					late.Add(1)
				}
				mu.Lock()
				got = append(got, binary.BigEndian.Uint32(pkt.Data))
				mu.Unlock()
				pkt.Buf.Release()
			})
			sent := make(chan struct{})
			go func() {
				defer close(sent)
				var msg [4]byte
				for i := uint32(0); !stop.Load(); i++ {
					binary.BigEndian.PutUint32(msg[:], i)
					a.Send(b.Addr(), msg[:])
					if i%64 == 0 {
						runtime.Gosched()
					}
				}
			}()
			waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(got) >= 500 }, "500 datagrams handled")
			b.Close()
			closed.Store(true)
			time.Sleep(time.Millisecond) // the stream runs on into the closed endpoint
			stop.Store(true)
			<-sent
			waitFor(t, func() bool {
				s := n.Stats()
				return s.Delivered+s.Dropped == s.Datagrams
			}, "every datagram delivered or dropped")
			if l := late.Load(); l != 0 {
				t.Fatalf("handler ran %d times after Close returned", l)
			}
			mu.Lock()
			defer mu.Unlock()
			for i := 1; i < len(got); i++ {
				if got[i] <= got[i-1] {
					t.Fatalf("datagram %d handled after %d", got[i], got[i-1])
				}
			}
		})
	}
}

// TestDelayedNetworksShareTimers checks that a Network's delivery
// timer comes from the process-wide free list, so networks that are
// done with holds no descriptor.
func TestDelayedNetworksShareTimers(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd")
		}
		return len(ents)
	}
	before := fds()
	for i := 0; i < 100; i++ {
		n := New(int64(i))
		n.SetLink(LinkConfig{MinDelay: 100 * time.Microsecond, MaxDelay: 100 * time.Microsecond})
		a := mustListen(t, n, n.NewHost(), 0)
		b := mustListen(t, n, n.NewHost(), 0)
		a.Send(b.Addr(), []byte("x"))
		if _, ok := recvOne(t, b, time.Second); !ok {
			t.Fatal("datagram not delivered")
		}
		waitFor(t, func() bool { n.mu.Lock(); defer n.mu.Unlock(); return !n.delivering }, "delivery goroutine gone")
	}
	if after := fds(); after > before+1 {
		t.Errorf("open fds %d -> %d after 100 networks", before, after)
	}
}

func waitFor(t *testing.T, cond func() bool, format string, args ...any) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting: "+format, args...)
		}
	}
}
