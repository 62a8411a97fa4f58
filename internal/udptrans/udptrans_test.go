package udptrans

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"circus/internal/transport"
)

// mode is one row of the table the delivery tests run over: which way
// the endpoint hands datagrams up. Row names keep their shards=1 prefix
// (an endpoint owns one socket) so test IDs stay stable.
type mode struct {
	handler bool // SetHandler's handler; false reads Recv()
}

func (m mode) String() string {
	if m.handler {
		return "shards=1/handler"
	}
	return "shards=1/recv"
}

func forEachMode(t *testing.T, f func(t *testing.T, m mode)) {
	for _, m := range []mode{{false}, {true}} {
		t.Run(m.String(), func(t *testing.T) { f(t, m) })
	}
}

// listen opens an endpoint in mode m, closed with the test. Whichever
// way it delivers, its packets come out of the returned channel.
func (m mode) listen(t *testing.T) (*Endpoint, <-chan transport.Packet) {
	t.Helper()
	ep, err := Listen(0)
	if err != nil {
		t.Fatalf("Listen(0): %v", err)
	}
	t.Cleanup(func() { ep.Close() })
	if !m.handler {
		return ep, ep.Recv()
	}
	ch := make(chan transport.Packet, 1024) // as deep as Recv(), so both rows hold the same bursts
	ep.SetHandler(func(pkt transport.Packet) { ch <- pkt })
	return ep, ch
}

// next takes one packet, returning its source and a copy of its
// payload, and recycles the pooled buffer so later packets reuse it.
func next(t *testing.T, ch <-chan transport.Packet) (transport.Addr, string) {
	t.Helper()
	select {
	case pkt, ok := <-ch:
		if !ok {
			t.Fatal("delivery channel closed")
		}
		if pkt.Buf == nil {
			t.Fatal("packet not delivered in a pooled buffer")
		}
		data := string(pkt.Data)
		pkt.Buf.Release()
		return pkt.From, data
	case <-time.After(2 * time.Second):
		t.Fatal("no datagram received")
	}
	panic("unreachable")
}

func TestRoundTrip(t *testing.T) {
	forEachMode(t, func(t *testing.T, m mode) {
		a, fromB := m.listen(t)
		b, fromA := m.listen(t)
		if err := a.Send(b.Addr(), []byte("ping")); err != nil {
			t.Fatalf("Send: %v", err)
		}
		if from, data := next(t, fromA); data != "ping" || from != a.Addr() {
			t.Errorf("got %q from %v, want ping from %v", data, from, a.Addr())
		}
		if err := b.Send(a.Addr(), []byte("pong")); err != nil {
			t.Fatalf("Send: %v", err)
		}
		if from, data := next(t, fromB); data != "pong" || from != b.Addr() {
			t.Errorf("got %q from %v, want pong from %v", data, from, b.Addr())
		}
	})
}

// TestBurstInOrder sends one peer a burst that has to wait in the
// kernel socket buffer (the only queue there is) and checks every
// datagram comes out, in the order sent.
func TestBurstInOrder(t *testing.T) {
	forEachMode(t, func(t *testing.T, m mode) {
		a, _ := m.listen(t)
		b, fromA := m.listen(t)
		const n = 128
		for i := 0; i < n; i++ {
			if err := a.Send(b.Addr(), []byte(fmt.Sprintf("%03d", i))); err != nil {
				t.Fatalf("Send %d: %v", i, err)
			}
		}
		for i := 0; i < n; i++ {
			if _, data := next(t, fromA); data != fmt.Sprintf("%03d", i) {
				t.Fatalf("datagram %d carried %q", i, data)
			}
		}
	})
}

// TestShardedRoundTrip has many peers send to one endpoint at once:
// every peer's datagrams arrive complete and in that peer's order, and
// every reply carries the endpoint's address.
func TestShardedRoundTrip(t *testing.T) {
	forEachMode(t, func(t *testing.T, m mode) {
		const peers, each = 6, 32
		b, in := m.listen(t)
		replies := make(map[transport.Addr]<-chan transport.Packet)
		for p := 0; p < peers; p++ {
			a, fromB := m.listen(t)
			replies[a.Addr()] = fromB
			go func() {
				for i := 0; i < each; i++ {
					if err := a.Send(b.Addr(), []byte{byte(i)}); err != nil {
						t.Errorf("Send: %v", err)
					}
				}
			}()
		}
		seen := make(map[transport.Addr]int)
		for i := 0; i < peers*each; i++ {
			from, data := next(t, in)
			if int(data[0]) != seen[from] {
				t.Fatalf("peer %v: datagram %d arrived at position %d", from, data[0], seen[from])
			}
			seen[from]++
		}
		for a, fromB := range replies {
			if seen[a] != each {
				t.Errorf("peer %v delivered %d of %d", a, seen[a], each)
			}
			if err := b.Send(a, []byte("done")); err != nil {
				t.Fatalf("Send: %v", err)
			}
			if from, data := next(t, fromB); data != "done" || from != b.Addr() {
				t.Errorf("reply %q from %v, want done from %v", data, from, b.Addr())
			}
		}
	})
}

// TestBatchParity sends the same datagram sequence through the
// per-datagram path (Send) and the platform batch path (SendBatch),
// in both directions, and checks the receivers observe identical
// payload multisets.
func TestBatchParity(t *testing.T) {
	forEachMode(t, func(t *testing.T, m mode) {
		a, atA := m.listen(t)
		b, atB := m.listen(t)
		const n = 40
		collect := func(ch <-chan transport.Packet) map[string]int {
			got := make(map[string]int)
			for i := 0; i < n; i++ {
				_, data := next(t, ch)
				got[data]++
			}
			return got
		}
		parity := func(from, to *Endpoint, at <-chan transport.Packet, tag string) {
			batch := make([]transport.Datagram, n)
			for i := range batch {
				batch[i] = transport.Datagram{To: to.Addr(), Data: []byte(fmt.Sprintf("%s-%03d", tag, i))}
				if err := from.Send(to.Addr(), batch[i].Data); err != nil {
					t.Fatalf("Send: %v", err)
				}
			}
			single := collect(at)
			if err := from.SendBatch(batch); err != nil {
				t.Fatalf("SendBatch: %v", err)
			}
			batched := collect(at)
			for _, d := range batch {
				if k := string(d.Data); single[k] != 1 || batched[k] != 1 {
					t.Errorf("payload %q: Send delivered %d, SendBatch %d", k, single[k], batched[k])
				}
			}
		}
		parity(a, b, atB, "s")
		parity(b, a, atA, "r")
	})
}

// TestSendBatchRoundTrip mixes destinations in one batch: each message
// of a batch carries its own address.
func TestSendBatchRoundTrip(t *testing.T) {
	forEachMode(t, func(t *testing.T, m mode) {
		a, _ := m.listen(t)
		b, atB := m.listen(t)
		c, atC := m.listen(t)
		var batch []transport.Datagram
		for i := 0; i < 20; i++ {
			to := b.Addr()
			if i%2 == 1 {
				to = c.Addr()
			}
			batch = append(batch, transport.Datagram{To: to, Data: []byte{byte(i)}})
		}
		if err := a.SendBatch(batch); err != nil {
			t.Fatalf("SendBatch: %v", err)
		}
		for i := 0; i < 20; i++ {
			at := atB
			if i%2 == 1 {
				at = atC
			}
			if from, data := next(t, at); from != a.Addr() || data[0] != byte(i) {
				t.Errorf("datagram %d: got %d from %v", i, data[0], from)
			}
		}
	})
}

func TestShardedMulticast(t *testing.T) {
	forEachMode(t, func(t *testing.T, m mode) {
		a, _ := m.listen(t)
		b, atB := m.listen(t)
		c, atC := m.listen(t)
		if err := a.Multicast([]transport.Addr{b.Addr(), c.Addr()}, []byte("hi")); err != nil {
			t.Fatalf("Multicast: %v", err)
		}
		for _, at := range []<-chan transport.Packet{atB, atC} {
			if from, data := next(t, at); data != "hi" || from != a.Addr() {
				t.Errorf("got %q from %v, want hi from %v", data, from, a.Addr())
			}
		}
	})
}

// TestShardedHandlerDelivery installs the handler late, as
// pairedmsg.New does: until then datagrams wait on Recv(), afterwards
// the handler takes every one and Recv() sees no more.
func TestShardedHandlerDelivery(t *testing.T) {
	a, _ := mode{}.listen(t)
	b, recv := mode{}.listen(t)
	if err := a.Send(b.Addr(), []byte("early")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if _, data := next(t, recv); data != "early" {
		t.Fatalf("Recv() gave %q, want early", data)
	}
	handled := make(chan transport.Packet, 1)
	b.SetHandler(func(pkt transport.Packet) { handled <- pkt })
	if err := a.Send(b.Addr(), []byte("late")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if _, data := next(t, handled); data != "late" {
		t.Fatalf("handler got %q, want late", data)
	}
	select {
	case pkt := <-recv:
		t.Fatalf("Recv() gave %q after SetHandler", pkt.Data)
	default:
	}
}

func TestAddrIsLoopback(t *testing.T) {
	a, _ := mode{}.listen(t)
	if addr := a.Addr(); addr.Host != 0x7f000001 || addr.Port == 0 {
		t.Errorf("addr = %v, want 127.0.0.1 and an assigned port", addr)
	}
}

// TestListenShardedOneSocket: the ListenSharded shim opens an endpoint
// only for a count of one socket.
func TestListenShardedOneSocket(t *testing.T) {
	for _, shards := range []int{0, 2} {
		if ep, err := ListenSharded(0, shards); err == nil {
			ep.Close()
			t.Errorf("ListenSharded(0, %d) succeeded; want an error", shards)
		}
	}
	ep, err := ListenSharded(0, 1)
	if err != nil {
		t.Fatalf("ListenSharded(0, 1): %v", err)
	}
	ep.Close()
}

func TestSendTooLarge(t *testing.T) {
	a, _ := mode{}.listen(t)
	big := make([]byte, transport.MaxDatagram+1)
	if err := a.Send(a.Addr(), big); err != transport.ErrTooLarge {
		t.Errorf("Send = %v, want ErrTooLarge", err)
	}
	err := a.SendBatch([]transport.Datagram{{To: a.Addr(), Data: []byte("ok")}, {To: a.Addr(), Data: big}})
	if err != transport.ErrTooLarge {
		t.Errorf("SendBatch = %v, want ErrTooLarge", err)
	}
}

func TestSendRejectsZeroAddr(t *testing.T) {
	a, recv := mode{}.listen(t)
	if err := a.Send(transport.Addr{}, []byte("x")); err == nil {
		t.Error("Send to zero addr succeeded; want clear encode error")
	}
	err := a.SendBatch([]transport.Datagram{
		{To: a.Addr(), Data: []byte("ok")},
		{To: transport.Addr{}, Data: []byte("bad")},
	})
	if err == nil {
		t.Error("SendBatch with zero addr succeeded; want clear encode error")
	}
	// A rejected batch is rejected whole: "ok" was not sent.
	select {
	case pkt := <-recv:
		t.Errorf("rejected batch still delivered %q", pkt.Data)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestCloseUnblocksRecv: Close closes Recv(), fails later sends, and
// may be repeated.
func TestCloseUnblocksRecv(t *testing.T) {
	a, recv := mode{}.listen(t)
	if err := a.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Close waited for the drain goroutine, so the channel is already
	// closed, not merely about to be.
	select {
	case _, ok := <-recv:
		if ok {
			t.Error("unexpected packet from closed endpoint")
		}
	default:
		t.Fatal("Recv channel not closed when Close returned")
	}
	if err := a.Send(a.Addr(), []byte("x")); err != transport.ErrClosed {
		t.Errorf("Send after close = %v, want ErrClosed", err)
	}
	if err := a.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
}

func TestSendBatchAfterClose(t *testing.T) {
	a, _ := mode{}.listen(t)
	a.Close()
	err := a.SendBatch([]transport.Datagram{{To: a.Addr(), Data: []byte("x")}})
	if err != transport.ErrClosed {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

// TestShardedCloseStopsHandler closes an endpoint under fire: once
// Close has returned, no handler call may be running or start.
func TestShardedCloseStopsHandler(t *testing.T) {
	// The subtest name keeps its shards=1 prefix, as the table rows do.
	t.Run("shards=1", func(t *testing.T) {
		a, _ := mode{}.listen(t)
		b, _ := mode{}.listen(t)
		var calls atomic.Int64
		var closed atomic.Bool
		b.SetHandler(func(pkt transport.Packet) {
			calls.Add(1)
			time.Sleep(50 * time.Microsecond) // be in the handler when Close comes
			if closed.Load() {
				t.Error("handler running after Close returned")
			}
			pkt.Buf.Release()
		})
		stop, stopped := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(stopped)
			for {
				select {
				case <-stop:
					return
				default:
					a.Send(b.Addr(), []byte("x"))
				}
			}
		}()
		defer func() { close(stop); <-stopped }()
		for deadline := time.Now().Add(2 * time.Second); calls.Load() < 20; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("handler saw %d datagrams under continuous sends", calls.Load())
			}
		}
		if err := b.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		closed.Store(true)
		final := calls.Load()
		time.Sleep(10 * time.Millisecond) // the sends go on; none may reach the handler
		if got := calls.Load(); got != final {
			t.Errorf("handler ran %d more times after Close returned", got-final)
		}
	})
}
