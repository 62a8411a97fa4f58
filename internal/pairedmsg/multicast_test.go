package pairedmsg

import (
	"bytes"
	"context"
	"testing"
	"time"

	"circus/internal/netsim"
	"circus/internal/transport"
)

// unicastOnly hides an endpoint's Multicaster implementation.
type unicastOnly struct{ transport.Endpoint }

// sendMulticast begins a call to every member of group, with no
// observers, and transmits it: each transfer reports through Done and
// Err alone.
func sendMulticast(t *testing.T, c *Conn, group []transport.Addr, msg []byte) ([]Transfer, uint32) {
	t.Helper()
	transfers, cn, err := c.BeginCallMulticast(group, msg, make([]CallObserver, len(group)))
	if err != nil {
		t.Fatalf("BeginCallMulticast: %v", err)
	}
	c.TransmitMulticast(group, transfers)
	return transfers, cn
}

func TestMulticastDeliversToAll(t *testing.T) {
	n := netsim.New(61)
	epA, _ := n.Listen(n.NewHost(), 0)
	epB, _ := n.Listen(n.NewHost(), 0)
	epC, _ := n.Listen(n.NewHost(), 0)
	a, b, c := New(epA, fastOpts()), New(epB, fastOpts()), New(epC, fastOpts())
	defer a.Close()
	defer b.Close()
	defer c.Close()

	group := []transport.Addr{epB.Addr(), epC.Addr()}
	transfers, cn := sendMulticast(t, a, group, []byte("to all"))
	if len(transfers) != 2 {
		t.Fatalf("transfers = %d", len(transfers))
	}
	for _, conn := range []*Conn{b, c} {
		m, ok := recvMsg(t, conn, time.Second)
		if !ok {
			t.Fatal("member missed multicast message")
		}
		if m.CallNum != cn || string(m.Data) != "to all" {
			t.Fatalf("got %+v", m)
		}
	}
	// Sending returns completes both transfers (implicit ack).
	b.Send(context.Background(), epA.Addr(), Return, cn, []byte("r"))
	c.Send(context.Background(), epA.Addr(), Return, cn, []byte("r"))
	for i, tr := range transfers {
		select {
		case <-tr.Done():
			if tr.Err() != nil {
				t.Fatalf("transfer %d: %v", i, tr.Err())
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("transfer %d never completed", i)
		}
	}
}

// TestMulticastNilObserverAcknowledged pins a nil observer entry: that
// member's transfer must complete through Done once its call message
// is acknowledged, as BeginCall's does, rather than leave the
// acknowledgment with no channel to close.
func TestMulticastNilObserverAcknowledged(t *testing.T) {
	n := netsim.New(67)
	epA, _ := n.Listen(n.NewHost(), 0)
	epB, _ := n.Listen(n.NewHost(), 0)
	a, b := New(epA, fastOpts()), New(epB, fastOpts())
	defer a.Close()
	defer b.Close()

	transfers, _ := sendMulticast(t, a, []transport.Addr{epB.Addr()}, []byte("q"))
	if _, ok := recvMsg(t, b, time.Second); !ok {
		t.Fatal("member missed multicast message")
	}
	// No return follows, so the member acknowledges explicitly.
	select {
	case <-transfers[0].Done():
		if err := transfers[0].Err(); err != nil {
			t.Fatalf("transfer: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("acknowledged transfer never completed")
	}
}

func TestMulticastOneSendOpPerSegment(t *testing.T) {
	n := netsim.New(62)
	epA, _ := n.Listen(n.NewHost(), 0)
	epB, _ := n.Listen(n.NewHost(), 0)
	epC, _ := n.Listen(n.NewHost(), 0)
	a, b, c := New(epA, fastOpts()), New(epB, fastOpts()), New(epC, fastOpts())
	defer a.Close()
	defer b.Close()
	defer c.Close()

	msg := bytes.Repeat([]byte("z"), 3*maxSegPayload) // 3 segments
	sendMulticast(t, a, []transport.Addr{epB.Addr(), epC.Addr()}, msg)
	if _, ok := recvMsg(t, b, 2*time.Second); !ok {
		t.Fatal("b missed message")
	}
	if _, ok := recvMsg(t, c, 2*time.Second); !ok {
		t.Fatal("c missed message")
	}
	st := n.Stats()
	// 3 segments × 1 multicast op (+ acks from receivers are unicast
	// ops from other endpoints). The initial transmission must have
	// used exactly 3 send ops from a.
	if st.Datagrams < 6 {
		t.Fatalf("datagrams = %d, want ≥ 6 (3 segments × 2 members)", st.Datagrams)
	}
}

func TestMulticastPerPeerRetransmission(t *testing.T) {
	// One member sits behind a fully lossy link initially; its copy is
	// recovered by per-peer unicast retransmission after healing.
	n := netsim.New(63)
	hA, hB, hC := n.NewHost(), n.NewHost(), n.NewHost()
	epA, _ := n.Listen(hA, 0)
	epB, _ := n.Listen(hB, 0)
	epC, _ := n.Listen(hC, 0)
	a, b, c := New(epA, fastOpts()), New(epB, fastOpts()), New(epC, fastOpts())
	defer a.Close()
	defer b.Close()
	defer c.Close()

	n.SetLinkBetween(hA, hC, netsim.LinkConfig{LossRate: 1})
	transfers, _ := sendMulticast(t, a, []transport.Addr{epB.Addr(), epC.Addr()}, []byte("m"))
	if _, ok := recvMsg(t, b, time.Second); !ok {
		t.Fatal("healthy member missed message")
	}
	time.Sleep(30 * time.Millisecond)
	n.SetLinkBetween(hA, hC, netsim.LinkConfig{})
	if m, ok := recvMsg(t, c, 2*time.Second); !ok || string(m.Data) != "m" {
		t.Fatal("lossy member never recovered the message")
	}
	select {
	case <-transfers[1].Done():
		if transfers[1].Err() != nil {
			t.Fatalf("transfer: %v", transfers[1].Err())
		}
	case <-time.After(2 * time.Second):
		t.Fatal("recovered transfer never acknowledged")
	}
}

func TestMulticastUnsupportedEndpoint(t *testing.T) {
	n := netsim.New(64)
	ep, _ := n.Listen(n.NewHost(), 0)
	conn := New(unicastOnly{ep}, fastOpts())
	defer conn.Close()
	_, _, err := conn.BeginCallMulticast([]transport.Addr{{Host: 1, Port: 1}}, []byte("x"), make([]CallObserver, 1))
	if err != ErrNoMulticast {
		t.Fatalf("err = %v, want ErrNoMulticast", err)
	}
}

func TestMulticastCallNumsDisjointFromUnicast(t *testing.T) {
	n := netsim.New(65)
	ep, _ := n.Listen(n.NewHost(), 0)
	conn := New(ep, fastOpts())
	defer conn.Close()
	peer := transport.Addr{Host: 5, Port: 5}
	u := conn.NextCallNum(peer)
	_, m := sendMulticast(t, conn, []transport.Addr{peer}, []byte("x"))
	if u&0x80000000 != 0 {
		t.Fatalf("unicast call number %x in multicast space", u)
	}
	if m&0x80000000 == 0 {
		t.Fatalf("multicast call number %x not namespaced", m)
	}
	if _, m2 := sendMulticast(t, conn, []transport.Addr{peer}, []byte("y")); m2 == m {
		t.Fatal("multicast call numbers not unique")
	}
}
