package pairedmsg

import (
	"context"
	"testing"
	"time"

	"circus/internal/netsim"
	"circus/internal/trace"
)

// TestIncomingBackpressureDropAndRedeliver exercises the explicit
// backpressure policy: when the incoming queue is full, an assembled
// message is counted as a delivery drop (and traced), the final ack is
// withheld, and the sender's retransmissions re-offer the message until
// the consumer drains the queue — so every message is still delivered
// exactly once and every transfer completes.
func TestIncomingBackpressureDropAndRedeliver(t *testing.T) {
	opts := fastOpts()
	opts.MaxRetries = 200 // keep senders retrying while deliveries are parked
	p, rec := newPairTraced(t, 7, netsim.LinkConfig{}, opts)

	const calls = incomingBuffer + 3
	transfers := make([]*outTransfer, 0, calls)
	sent := make(map[uint32]bool, calls)
	for i := 0; i < calls; i++ {
		cn := p.a.NextCallNum(p.b.Addr())
		tr, err := p.a.StartSend(p.b.Addr(), Call, cn, []byte("parked"))
		if err != nil {
			t.Fatalf("StartSend %d: %v", i, err)
		}
		transfers = append(transfers, tr)
		sent[cn] = true
	}

	// With more calls than queue slots and no consumer, at least one
	// assembled message must be refused and counted.
	deadline := time.Now().Add(2 * time.Second)
	for p.b.Stats().DeliveryDrops == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no delivery drop recorded; stats %+v", p.b.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	// Drain: every call must still arrive, each exactly once.
	got := make(map[uint32]int, calls)
	for len(got) < calls {
		m, ok := recvMsg(t, p.b, 2*time.Second)
		if !ok {
			t.Fatalf("delivery stalled after drops; got %d/%d, stats %+v",
				len(got), calls, p.b.Stats())
		}
		if !sent[m.CallNum] {
			t.Fatalf("unexpected call number %d", m.CallNum)
		}
		got[m.CallNum]++
		if got[m.CallNum] > 1 {
			t.Fatalf("call %d delivered twice", m.CallNum)
		}
	}

	// The withheld final ack must now go out so senders complete.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for i, tr := range transfers {
		if err := p.a.Await(ctx, tr); err != nil {
			t.Fatalf("transfer %d did not complete after drain: %v", i, err)
		}
	}

	if drops := p.b.Stats().DeliveryDrops; drops == 0 {
		t.Fatal("DeliveryDrops reset unexpectedly")
	}
	var delivered, traced int64
	for _, e := range rec.Events() {
		switch e.Kind {
		case trace.KindMsgDelivered:
			if e.MsgType == uint8(Call) {
				delivered++
			}
		case trace.KindDeliveryDrop:
			traced++
		}
	}
	if delivered != calls {
		t.Fatalf("MsgDelivered emitted %d times for %d calls (must be exactly once each)", delivered, calls)
	}
	if traced == 0 {
		t.Fatal("no msg.delivery-drop trace event emitted")
	}
}
