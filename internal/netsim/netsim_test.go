package netsim

import (
	"testing"
	"time"

	"circus/internal/transport"
)

// mode is one row of the table the delivery tests run over: which way
// the endpoint hands datagrams up.
type mode struct {
	handler bool // SetHandler's handler; false reads Recv()
}

func (m mode) String() string {
	if m.handler {
		return "handler"
	}
	return "recv"
}

func forEachMode(t *testing.T, f func(t *testing.T, m mode)) {
	for _, m := range []mode{{false}, {true}} {
		t.Run(m.String(), func(t *testing.T) { f(t, m) })
	}
}

// endpoint is a bound endpoint and the channel its datagrams come out
// of, whichever way it delivers.
type endpoint struct {
	*Endpoint
	in <-chan transport.Packet
}

// listen binds an endpoint in mode m, closed with the test.
func (m mode) listen(t *testing.T, n *Network, host uint32, port uint16) *endpoint {
	t.Helper()
	ep, err := n.Listen(host, port)
	if err != nil {
		t.Fatalf("Listen(%d, %d): %v", host, port, err)
	}
	t.Cleanup(func() { ep.Close() })
	if !m.handler {
		return &endpoint{ep, ep.Recv()}
	}
	ch := make(chan transport.Packet, recvBuffer) // as deep as Recv(), so both rows drop alike
	ep.SetHandler(func(pkt transport.Packet) {
		select {
		case ch <- pkt:
		default:
		}
	})
	return &endpoint{ep, ch}
}

// mustListen binds an endpoint read through Recv().
func mustListen(t *testing.T, n *Network, host uint32, port uint16) *endpoint {
	t.Helper()
	return mode{}.listen(t, n, host, port)
}

func recvOne(t *testing.T, ep *endpoint, timeout time.Duration) (transport.Packet, bool) {
	t.Helper()
	select {
	case pkt, ok := <-ep.in:
		return pkt, ok
	case <-time.After(timeout):
		return transport.Packet{}, false
	}
}

func TestDeliverBasic(t *testing.T) {
	forEachMode(t, func(t *testing.T, m mode) {
		n := New(1)
		h1, h2 := n.NewHost(), n.NewHost()
		a := m.listen(t, n, h1, 0)
		b := m.listen(t, n, h2, 0)
		if err := a.Send(b.Addr(), []byte("hello")); err != nil {
			t.Fatalf("Send: %v", err)
		}
		pkt, ok := recvOne(t, b, time.Second)
		if !ok {
			t.Fatal("no packet delivered")
		}
		if string(pkt.Data) != "hello" {
			t.Errorf("data = %q, want %q", pkt.Data, "hello")
		}
		if pkt.From != a.Addr() {
			t.Errorf("from = %v, want %v", pkt.From, a.Addr())
		}
		if pkt.To != b.Addr() {
			t.Errorf("to = %v, want %v", pkt.To, b.Addr())
		}
	})
}

func TestDistinctHosts(t *testing.T) {
	n := New(1)
	h1, h2 := n.NewHost(), n.NewHost()
	if h1 == h2 {
		t.Fatalf("NewHost returned duplicate id %d", h1)
	}
}

func TestAutoPortAssignment(t *testing.T) {
	n := New(1)
	h := n.NewHost()
	a := mustListen(t, n, h, 0)
	b := mustListen(t, n, h, 0)
	if a.Addr() == b.Addr() {
		t.Errorf("auto-assigned duplicate address %v", a.Addr())
	}
}

func TestPortInUse(t *testing.T) {
	n := New(1)
	h := n.NewHost()
	mustListen(t, n, h, 99)
	if _, err := n.Listen(h, 99); err == nil {
		t.Error("expected error binding used port")
	}
}

func TestAddrString(t *testing.T) {
	a := transport.Addr{Host: 0x0a000001, Port: 2000}
	if got := a.String(); got != "10.0.0.1:2000" {
		t.Errorf("String() = %q, want 10.0.0.1:2000", got)
	}
}

func TestLossAllDropsEverything(t *testing.T) {
	forEachMode(t, func(t *testing.T, m mode) {
		n := New(1)
		n.SetLink(LinkConfig{LossRate: 1})
		a := m.listen(t, n, n.NewHost(), 0)
		b := m.listen(t, n, n.NewHost(), 0)
		for i := 0; i < 10; i++ {
			if err := a.Send(b.Addr(), []byte("x")); err != nil {
				t.Fatalf("Send: %v", err)
			}
		}
		if _, ok := recvOne(t, b, 50*time.Millisecond); ok {
			t.Error("packet delivered despite 100% loss")
		}
		st := n.Stats()
		if st.Dropped != 10 {
			t.Errorf("Dropped = %d, want 10", st.Dropped)
		}
	})
}

func TestLossRateApproximate(t *testing.T) {
	n := New(42)
	n.SetLink(LinkConfig{LossRate: 0.5})
	a := mustListen(t, n, n.NewHost(), 0)
	b := mustListen(t, n, n.NewHost(), 0)
	const total = 2000
	for i := 0; i < total; i++ {
		a.Send(b.Addr(), []byte("x"))
	}
	st := n.Stats()
	if st.Delivered < total/3 || st.Delivered > 2*total/3 {
		t.Errorf("Delivered = %d of %d with 50%% loss; suspicious", st.Delivered, total)
	}
	if st.Delivered+st.Dropped != total {
		t.Errorf("Delivered+Dropped = %d, want %d", st.Delivered+st.Dropped, total)
	}
}

func TestDuplication(t *testing.T) {
	forEachMode(t, func(t *testing.T, m mode) {
		n := New(7)
		n.SetLink(LinkConfig{DupRate: 1})
		a := m.listen(t, n, n.NewHost(), 0)
		b := m.listen(t, n, n.NewHost(), 0)
		a.Send(b.Addr(), []byte("x"))
		if _, ok := recvOne(t, b, time.Second); !ok {
			t.Fatal("first copy missing")
		}
		if _, ok := recvOne(t, b, time.Second); !ok {
			t.Fatal("duplicate copy missing")
		}
		if st := n.Stats(); st.Duplicated != 1 {
			t.Errorf("Duplicated = %d, want 1", st.Duplicated)
		}
	})
}

func TestDelay(t *testing.T) {
	forEachMode(t, func(t *testing.T, m mode) {
		n := New(1)
		n.SetLink(LinkConfig{MinDelay: 30 * time.Millisecond, MaxDelay: 40 * time.Millisecond})
		a := m.listen(t, n, n.NewHost(), 0)
		b := m.listen(t, n, n.NewHost(), 0)
		start := time.Now()
		a.Send(b.Addr(), []byte("x"))
		if _, ok := recvOne(t, b, time.Second); !ok {
			t.Fatal("packet not delivered")
		}
		if d := time.Since(start); d < 25*time.Millisecond {
			t.Errorf("delivered after %v, want >= ~30ms", d)
		}
	})
}

func TestCrashStopsDelivery(t *testing.T) {
	forEachMode(t, func(t *testing.T, m mode) {
		n := New(1)
		h1, h2 := n.NewHost(), n.NewHost()
		a := m.listen(t, n, h1, 0)
		b := m.listen(t, n, h2, 0)
		n.Crash(h2)
		a.Send(b.Addr(), []byte("x"))
		if _, ok := recvOne(t, b, 50*time.Millisecond); ok {
			t.Error("crashed host received a packet")
		}
		if !n.Crashed(h2) {
			t.Error("Crashed(h2) = false")
		}
		n.Restart(h2)
		a.Send(b.Addr(), []byte("y"))
		if _, ok := recvOne(t, b, time.Second); !ok {
			t.Error("restarted host did not receive")
		}
	})
}

func TestCrashedSenderDropsOutbound(t *testing.T) {
	forEachMode(t, func(t *testing.T, m mode) {
		n := New(1)
		h1, h2 := n.NewHost(), n.NewHost()
		a := m.listen(t, n, h1, 0)
		b := m.listen(t, n, h2, 0)
		n.Crash(h1)
		a.Send(b.Addr(), []byte("x"))
		if _, ok := recvOne(t, b, 50*time.Millisecond); ok {
			t.Error("packet escaped a crashed host")
		}
	})
}

func TestPartitionAndHeal(t *testing.T) {
	forEachMode(t, func(t *testing.T, m mode) {
		n := New(1)
		h1, h2, h3 := n.NewHost(), n.NewHost(), n.NewHost()
		a := m.listen(t, n, h1, 0)
		b := m.listen(t, n, h2, 0)
		c := m.listen(t, n, h3, 0)
		n.Partition([]uint32{h1, h3}, []uint32{h2})
		a.Send(b.Addr(), []byte("x"))
		if _, ok := recvOne(t, b, 50*time.Millisecond); ok {
			t.Error("packet crossed partition")
		}
		a.Send(c.Addr(), []byte("x"))
		if _, ok := recvOne(t, c, time.Second); !ok {
			t.Error("packet within partition group not delivered")
		}
		n.Heal()
		a.Send(b.Addr(), []byte("x"))
		if _, ok := recvOne(t, b, time.Second); !ok {
			t.Error("packet not delivered after Heal")
		}
	})
}

func TestPerPairLink(t *testing.T) {
	forEachMode(t, func(t *testing.T, m mode) {
		n := New(1)
		h1, h2, h3 := n.NewHost(), n.NewHost(), n.NewHost()
		a := m.listen(t, n, h1, 0)
		b := m.listen(t, n, h2, 0)
		c := m.listen(t, n, h3, 0)
		n.SetLinkBetween(h1, h2, LinkConfig{LossRate: 1})
		a.Send(b.Addr(), []byte("x"))
		if _, ok := recvOne(t, b, 50*time.Millisecond); ok {
			t.Error("lossy pair delivered")
		}
		a.Send(c.Addr(), []byte("x"))
		if _, ok := recvOne(t, c, time.Second); !ok {
			t.Error("clean pair did not deliver")
		}
	})
}

func TestMulticastCountsOneSendOp(t *testing.T) {
	forEachMode(t, func(t *testing.T, m mode) {
		n := New(1)
		a := m.listen(t, n, n.NewHost(), 0)
		b := m.listen(t, n, n.NewHost(), 0)
		c := m.listen(t, n, n.NewHost(), 0)
		group := []transport.Addr{b.Addr(), c.Addr()}
		if err := a.Multicast(group, []byte("m")); err != nil {
			t.Fatalf("Multicast: %v", err)
		}
		if _, ok := recvOne(t, b, time.Second); !ok {
			t.Error("b missed multicast")
		}
		if _, ok := recvOne(t, c, time.Second); !ok {
			t.Error("c missed multicast")
		}
		st := n.Stats()
		if st.SendOps != 1 {
			t.Errorf("SendOps = %d, want 1", st.SendOps)
		}
		if st.Datagrams != 2 {
			t.Errorf("Datagrams = %d, want 2", st.Datagrams)
		}
	})
}

func TestSendTooLarge(t *testing.T) {
	n := New(1)
	a := mustListen(t, n, n.NewHost(), 0)
	b := mustListen(t, n, n.NewHost(), 0)
	if err := a.Send(b.Addr(), make([]byte, transport.MaxDatagram+1)); err != transport.ErrTooLarge {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestSendAfterClose(t *testing.T) {
	n := New(1)
	a := mustListen(t, n, n.NewHost(), 0)
	b := mustListen(t, n, n.NewHost(), 0)
	if err := a.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := a.Send(b.Addr(), []byte("x")); err != transport.ErrClosed {
		t.Errorf("err = %v, want ErrClosed", err)
	}
	if _, ok := <-a.Recv(); ok {
		t.Error("recv channel not closed")
	}
}

func TestSendToUnboundAddressDropped(t *testing.T) {
	n := New(1)
	a := mustListen(t, n, n.NewHost(), 0)
	a.Send(transport.Addr{Host: 0x0a0000ff, Port: 9}, []byte("x"))
	if st := n.Stats(); st.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", st.Dropped)
	}
}

func TestDataIsCopied(t *testing.T) {
	forEachMode(t, func(t *testing.T, m mode) {
		n := New(1)
		a := m.listen(t, n, n.NewHost(), 0)
		b := m.listen(t, n, n.NewHost(), 0)
		buf := []byte("abc")
		a.Send(b.Addr(), buf)
		buf[0] = 'z'
		pkt, ok := recvOne(t, b, time.Second)
		if !ok {
			t.Fatal("no packet")
		}
		if string(pkt.Data) != "abc" {
			t.Errorf("data = %q; sender mutation leaked into delivery", pkt.Data)
		}
	})
}

func TestResetStats(t *testing.T) {
	n := New(1)
	a := mustListen(t, n, n.NewHost(), 0)
	b := mustListen(t, n, n.NewHost(), 0)
	a.Send(b.Addr(), []byte("x"))
	recvOne(t, b, time.Second)
	n.ResetStats()
	if st := n.Stats(); st != (Stats{}) {
		t.Errorf("stats after reset = %+v, want zero", st)
	}
}

func TestDeterministicFaultInjection(t *testing.T) {
	run := func() Stats {
		n := New(99)
		n.SetLink(LinkConfig{LossRate: 0.3, DupRate: 0.1})
		a, _ := n.Listen(n.NewHost(), 5)
		b, _ := n.Listen(n.NewHost(), 6)
		for i := 0; i < 500; i++ {
			a.Send(b.Addr(), []byte{byte(i)})
		}
		return n.Stats()
	}
	s1, s2 := run(), run()
	if s1 != s2 {
		t.Errorf("same seed produced different stats: %+v vs %+v", s1, s2)
	}
}

func TestBandwidthSerializationDelay(t *testing.T) {
	forEachMode(t, func(t *testing.T, m mode) {
		n := New(1)
		// 10 Mb/s Ethernet (§4.4.1): a full 1472-byte datagram takes
		// ~1.18 ms on the wire; 40 of them back to back take ~47 ms.
		n.SetLink(LinkConfig{BitsPerSecond: 10_000_000})
		a := m.listen(t, n, n.NewHost(), 0)
		b := m.listen(t, n, n.NewHost(), 0)
		payload := make([]byte, transport.MaxDatagram)
		start := time.Now()
		const count = 40
		for i := 0; i < count; i++ {
			a.Send(b.Addr(), payload)
		}
		for i := 0; i < count; i++ {
			if _, ok := recvOne(t, b, time.Second); !ok {
				t.Fatalf("datagram %d lost", i)
			}
		}
		elapsed := time.Since(start)
		if elapsed < 40*time.Millisecond {
			t.Errorf("40 full datagrams at 10 Mb/s arrived in %v, want ≥ ~47ms", elapsed)
		}
		// A tiny datagram is much quicker than a full one.
		n2 := New(2)
		n2.SetLink(LinkConfig{BitsPerSecond: 10_000_000})
		c := m.listen(t, n2, n2.NewHost(), 0)
		d := m.listen(t, n2, n2.NewHost(), 0)
		start = time.Now()
		c.Send(d.Addr(), []byte{1})
		if _, ok := recvOne(t, d, time.Second); !ok {
			t.Fatal("tiny datagram lost")
		}
		if time.Since(start) > 10*time.Millisecond {
			t.Errorf("tiny datagram took %v", time.Since(start))
		}
	})
}

func TestSendBatchCountsOneSendOp(t *testing.T) {
	forEachMode(t, func(t *testing.T, m mode) {
		n := New(1)
		a := m.listen(t, n, n.NewHost(), 0)
		b := m.listen(t, n, n.NewHost(), 0)
		c := m.listen(t, n, n.NewHost(), 0)
		batch := []transport.Datagram{
			{To: b.Addr(), Data: []byte("one")},
			{To: c.Addr(), Data: []byte("two")},
			{To: b.Addr(), Data: []byte("three")},
		}
		if err := a.SendBatch(batch); err != nil {
			t.Fatalf("SendBatch: %v", err)
		}
		for _, want := range []string{"one", "three"} {
			pkt, ok := recvOne(t, b, time.Second)
			if !ok {
				t.Fatalf("b missed %q", want)
			}
			if string(pkt.Data) != want {
				t.Errorf("b got %q, want %q", pkt.Data, want)
			}
		}
		if pkt, ok := recvOne(t, c, time.Second); !ok || string(pkt.Data) != "two" {
			t.Errorf("c got (%q, %v), want (two, true)", pkt.Data, ok)
		}
		st := n.Stats()
		if st.SendOps != 1 {
			t.Errorf("SendOps = %d, want 1 (batch is one send operation)", st.SendOps)
		}
		if st.Datagrams != 3 {
			t.Errorf("Datagrams = %d, want 3", st.Datagrams)
		}
	})
}

func TestSendBatchTooLargeRejectsWholeBatch(t *testing.T) {
	forEachMode(t, func(t *testing.T, m mode) {
		n := New(1)
		a := m.listen(t, n, n.NewHost(), 0)
		b := m.listen(t, n, n.NewHost(), 0)
		batch := []transport.Datagram{
			{To: b.Addr(), Data: []byte("ok")},
			{To: b.Addr(), Data: make([]byte, transport.MaxDatagram+1)},
		}
		if err := a.SendBatch(batch); err != transport.ErrTooLarge {
			t.Fatalf("err = %v, want ErrTooLarge", err)
		}
		if _, ok := recvOne(t, b, 50*time.Millisecond); ok {
			t.Error("partial batch delivered despite validation error")
		}
		if st := n.Stats(); st.Datagrams != 0 {
			t.Errorf("Datagrams = %d, want 0", st.Datagrams)
		}
	})
}

func TestCaptureHoldsAndInjectDelivers(t *testing.T) {
	forEachMode(t, func(t *testing.T, m mode) {
		n := New(1)
		a := m.listen(t, n, n.NewHost(), 0)
		b := m.listen(t, n, n.NewHost(), 0)
		var held []transport.Packet
		n.SetCapture(func(p transport.Packet) bool {
			held = append(held, p)
			return true
		})
		if err := a.Send(b.Addr(), []byte("held")); err != nil {
			t.Fatalf("Send: %v", err)
		}
		if _, ok := recvOne(t, b, 50*time.Millisecond); ok {
			t.Fatal("captured packet was delivered anyway")
		}
		if len(held) != 1 {
			t.Fatalf("captured %d packets, want 1", len(held))
		}
		n.Inject(held[0])
		pkt, ok := recvOne(t, b, time.Second)
		if !ok {
			t.Fatal("injected packet not delivered")
		}
		if string(pkt.Data) != "held" || pkt.From != a.Addr() {
			t.Errorf("got (%q from %v), want (held from %v)", pkt.Data, pkt.From, a.Addr())
		}
	})
}

func TestCaptureDeclineLetsPacketPass(t *testing.T) {
	forEachMode(t, func(t *testing.T, m mode) {
		n := New(1)
		a := m.listen(t, n, n.NewHost(), 0)
		b := m.listen(t, n, n.NewHost(), 0)
		n.SetCapture(func(transport.Packet) bool { return false })
		if err := a.Send(b.Addr(), []byte("through")); err != nil {
			t.Fatalf("Send: %v", err)
		}
		if pkt, ok := recvOne(t, b, time.Second); !ok || string(pkt.Data) != "through" {
			t.Errorf("got (%q, %v), want (through, true)", pkt.Data, ok)
		}
	})
}

func TestInjectBypassesFaultInjection(t *testing.T) {
	forEachMode(t, func(t *testing.T, m mode) {
		n := New(1)
		n.SetLink(LinkConfig{LossRate: 1})
		a := m.listen(t, n, n.NewHost(), 0)
		b := m.listen(t, n, n.NewHost(), 0)
		n.Inject(transport.Packet{From: a.Addr(), To: b.Addr(), Data: []byte("sure")})
		if pkt, ok := recvOne(t, b, time.Second); !ok || string(pkt.Data) != "sure" {
			t.Errorf("got (%q, %v), want (sure, true): Inject must skip fault injection", pkt.Data, ok)
		}
	})
}

func TestInjectRespectsCrashedDestination(t *testing.T) {
	forEachMode(t, func(t *testing.T, m mode) {
		n := New(1)
		a := m.listen(t, n, n.NewHost(), 0)
		b := m.listen(t, n, n.NewHost(), 0)
		n.Crash(b.Addr().Host)
		n.Inject(transport.Packet{From: a.Addr(), To: b.Addr(), Data: []byte("lost")})
		if _, ok := recvOne(t, b, 50*time.Millisecond); ok {
			t.Error("injected packet delivered to a crashed host")
		}
	})
}
