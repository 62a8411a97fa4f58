package pairedmsg

import (
	"context"
	"testing"
	"time"

	"circus/internal/netsim"
)

// TestDelayedAckIsCumulativeStandalone: a completed return whose
// receiver has nothing else to say still gets acknowledged — by the
// delayed-ack timer, in one standalone datagram — and the delay stays
// far enough below the sender's retransmission interval that no
// spurious retransmission fires.
func TestDelayedAckIsCumulativeStandalone(t *testing.T) {
	p := newPair(t, 11, netsim.LinkConfig{}, fastOpts())
	cn := p.a.NextCallNum(p.b.Addr())
	if err := p.a.Send(context.Background(), p.b.Addr(), Call, cn, []byte("q")); err != nil {
		t.Fatalf("Send call: %v", err)
	}
	m, ok := recvMsg(t, p.b, time.Second)
	if !ok {
		t.Fatal("call not delivered")
	}
	// The client goes quiet after this: the return's ack cannot
	// piggyback and must fire from the delayed-ack timer.
	if err := p.b.Send(context.Background(), p.a.Addr(), Return, m.CallNum, []byte("r")); err != nil {
		t.Fatalf("Send return: %v", err)
	}
	if got := p.b.Stats().Retransmits; got != 0 {
		t.Errorf("server retransmitted %d times; delayed ack exceeded the retransmission interval", got)
	}
	if got := p.a.Stats().AcksSent; got < 1 {
		t.Errorf("client sent %d acks, want >= 1", got)
	}
}

// TestAckPiggybacksOnNextCall: in a serial request/response loop the
// acknowledgment of return n rides in the same datagram as call n+1,
// so the steady-state exchange costs two datagrams, not three.
func TestAckPiggybacksOnNextCall(t *testing.T) {
	const rounds = 30
	p := newPair(t, 12, netsim.LinkConfig{}, fastOpts())
	serverDone := make(chan struct{})
	go func() {
		defer close(serverDone)
		for i := 0; i < rounds; i++ {
			m, ok := recvMsg(t, p.b, 5*time.Second)
			if !ok {
				return
			}
			// Reply without blocking on the ack, the way a real server
			// turns around: the ack arrives later, piggybacked on the
			// client's next call.
			if _, err := p.b.StartSend(p.a.Addr(), Return, m.CallNum, []byte("reply")); err != nil {
				t.Errorf("StartSend return: %v", err)
				return
			}
		}
	}()
	for i := 0; i < rounds; i++ {
		cn := p.a.NextCallNum(p.b.Addr())
		if err := p.a.Send(context.Background(), p.b.Addr(), Call, cn, []byte("request")); err != nil {
			t.Fatalf("Send call %d: %v", i, err)
		}
	}
	<-serverDone

	if got := p.a.Stats().AcksPiggybacked; got < 1 {
		t.Errorf("AcksPiggybacked = %d, want >= 1", got)
	}
	if got := p.a.Stats().BundlesSent; got < 1 {
		t.Errorf("BundlesSent = %d, want >= 1", got)
	}
	// Naive accounting is three datagrams per exchange (call, return,
	// standalone ack). Piggybacking must do visibly better, even
	// allowing some timer-fired standalone acks.
	if dgrams := p.net.Stats().Datagrams; dgrams >= 3*rounds {
		t.Errorf("%d datagrams for %d exchanges, want < %d", dgrams, rounds, 3*rounds)
	}
}

// TestRetransmitTickCoalesces: a timer pass that retransmits several
// transfers to one peer packs them into bundles instead of paying one
// datagram per segment.
func TestRetransmitTickCoalesces(t *testing.T) {
	const transfers = 5
	p := newPair(t, 13, netsim.LinkConfig{}, fastOpts())
	p.net.SetLink(netsim.LinkConfig{LossRate: 1}) // black hole: everything retransmits
	for i := 0; i < transfers; i++ {
		cn := p.a.NextCallNum(p.b.Addr())
		if _, err := p.a.StartSend(p.b.Addr(), Call, cn, []byte("lost")); err != nil {
			t.Fatalf("StartSend %d: %v", i, err)
		}
	}
	// Let a few retransmission passes fire.
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := p.a.Stats()
		if st.Retransmits >= transfers && st.BundlesSent >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats after 2s: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := p.a.Stats()
	if st.BundledFrames < 2 {
		t.Errorf("BundledFrames = %d, want >= 2 (a tick's retransmits share datagrams)", st.BundledFrames)
	}
	// The wire must carry fewer datagrams than segments sent, or
	// coalescing did nothing.
	if d, s := p.net.Stats().Datagrams, st.SegmentsSent+st.Retransmits; d >= s {
		t.Errorf("%d datagrams for %d transmitted segments; no coalescing", d, s)
	}
}

// TestCloseWithPendingDelayedAck: closing a conn with a delayed ack
// armed and transfers in flight must stop the timers without panics,
// deadlocks, or races (run with -race -count=20 in CI).
func TestCloseWithPendingDelayedAck(t *testing.T) {
	for i := 0; i < 10; i++ {
		p := newPair(t, int64(20+i), netsim.LinkConfig{}, fastOpts())
		cn := p.a.NextCallNum(p.b.Addr())
		if _, err := p.a.StartSend(p.b.Addr(), Call, cn, []byte("x")); err != nil {
			t.Fatalf("StartSend call: %v", err)
		}
		m, ok := recvMsg(t, p.b, time.Second)
		if !ok {
			t.Fatal("call not delivered")
		}
		if _, err := p.b.StartSend(p.a.Addr(), Return, m.CallNum, []byte("y")); err != nil {
			t.Fatalf("StartSend return: %v", err)
		}
		if _, ok := recvMsg(t, p.a, time.Second); !ok {
			t.Fatal("return not delivered")
		}
		// The return's delayed ack is now pending at a. Close both
		// ends before (and while) the timer fires.
		p.a.Close()
		p.b.Close()
	}
}

// TestAckDelayDisabled: AckDelay < 0 restores eager acknowledgment —
// every completed return is acked immediately, no timers involved.
func TestAckDelayDisabled(t *testing.T) {
	opts := fastOpts()
	opts.AckDelay = -1
	p := newPair(t, 14, netsim.LinkConfig{}, opts)
	cn := p.a.NextCallNum(p.b.Addr())
	if err := p.a.Send(context.Background(), p.b.Addr(), Call, cn, []byte("q")); err != nil {
		t.Fatalf("Send call: %v", err)
	}
	m, ok := recvMsg(t, p.b, time.Second)
	if !ok {
		t.Fatal("call not delivered")
	}
	start := time.Now()
	if err := p.b.Send(context.Background(), p.a.Addr(), Return, m.CallNum, []byte("r")); err != nil {
		t.Fatalf("Send return: %v", err)
	}
	if d := time.Since(start); d > 5*time.Millisecond {
		t.Errorf("eager ack took %v; looks delayed", d)
	}
	if got := p.a.Stats().AcksSent; got < 1 {
		t.Errorf("AcksSent = %d, want >= 1", got)
	}
}
