package pairedmsg

import (
	"bytes"
	"context"
	"testing"
	"time"

	"circus/internal/netsim"
	"circus/internal/trace"
	"circus/internal/trace/check"
)

// These tests drive the paired message protocol against adverse
// networks, record its trace, and replay the trace through the offline
// conformance checker: the retransmission schedule itself — not just
// the end-to-end outcome — must respect the configured bounds.

// TestFixedRetransmitScheduleConformance blackholes the peer and
// verifies that every retransmission pass is spaced at least the
// configured interval apart, for the full MaxRetries budget.
func TestFixedRetransmitScheduleConformance(t *testing.T) {
	opts := fastOpts()
	p, rec := newPairTraced(t, 21, netsim.LinkConfig{}, opts)
	p.net.Crash(p.b.Addr().Host)

	cn := p.a.NextCallNum(p.b.Addr())
	if err := p.a.Send(context.Background(), p.b.Addr(), Call, cn, []byte("void")); err != ErrPeerDown {
		t.Fatalf("send to blackholed peer: err = %v, want ErrPeerDown", err)
	}

	isRetx := func(e trace.Event) bool {
		return e.Kind == trace.KindSegRetransmit && e.CallNum == cn
	}
	if got := rec.Count(isRetx); got != opts.MaxRetries {
		t.Fatalf("retransmit passes = %d, want the full budget %d", got, opts.MaxRetries)
	}
	vs := check.Check(rec.Events(), check.Config{
		RetransmitInterval: opts.RetransmitInterval,
	})
	if len(vs) != 0 {
		t.Fatalf("conformance violations:\n%v", check.Strings(vs))
	}
}

// TestAdaptiveRetransmitScheduleConformance warms the RTT estimator
// with clean round trips, then blackholes the peer: the retransmission
// gaps must start at or above MinRTO and grow monotonically (doubling
// until the MaxRTO clamp), and — Karn's rule — no RTT sample may be
// taken from a retransmitted exchange.
func TestAdaptiveRetransmitScheduleConformance(t *testing.T) {
	opts := fastOpts()
	opts.Adaptive = true
	p, rec := newPairTraced(t, 22, netsim.LinkConfig{}, opts)

	go func() {
		for m := range p.b.Incoming() {
			if m.Type == Call {
				p.b.StartSend(m.From, Return, m.CallNum, m.Data)
			}
		}
	}()
	for i := 0; i < 3; i++ {
		cn := p.a.NextCallNum(p.b.Addr())
		if err := p.a.Send(context.Background(), p.b.Addr(), Call, cn, []byte("warm")); err != nil {
			t.Fatalf("warmup %d: %v", i, err)
		}
		recvMsg(t, p.a, time.Second)
	}
	if rec.Count(trace.ByKind(trace.KindRTTSample)) == 0 {
		t.Fatal("warmup produced no RTT samples")
	}

	p.net.Crash(p.b.Addr().Host)
	cn := p.a.NextCallNum(p.b.Addr())
	if err := p.a.Send(context.Background(), p.b.Addr(), Call, cn, []byte("void")); err != ErrPeerDown {
		t.Fatalf("send to blackholed peer: err = %v, want ErrPeerDown", err)
	}
	if rec.Count(func(e trace.Event) bool {
		return e.Kind == trace.KindSegRetransmit && e.CallNum == cn
	}) == 0 {
		t.Fatal("no retransmissions before the crash declaration")
	}

	vs := check.Check(rec.Events(), check.Config{
		Adaptive: true,
		MinRTO:   MinRTO,
	})
	if len(vs) != 0 {
		t.Fatalf("conformance violations:\n%v", check.Strings(vs))
	}
}

// TestKarnRuleUnderLoss runs a lossy echo workload and verifies, from
// the trace, that no exchange that needed a retransmission contributed
// an RTT sample (its round-trip time is ambiguous, §4.2.4 / Karn).
func TestKarnRuleUnderLoss(t *testing.T) {
	opts := fastOpts()
	opts.Adaptive = true
	p, rec := newPairTraced(t, 23, netsim.LinkConfig{LossRate: 0.3}, opts)

	go func() {
		for m := range p.b.Incoming() {
			if m.Type == Call {
				p.b.StartSend(m.From, Return, m.CallNum, m.Data)
			}
		}
	}()
	payload := bytes.Repeat([]byte("k"), 3*maxSegPayload)
	for i := 0; i < 20; i++ {
		cn := p.a.NextCallNum(p.b.Addr())
		// At 30% loss an exchange can exhaust its retry budget and be
		// declared down; that is fine here — the schedule of the
		// retransmissions it did make is still checked.
		if err := p.a.Send(context.Background(), p.b.Addr(), Call, cn, payload); err != nil {
			continue
		}
		recvMsg(t, p.a, 2*time.Second)
	}

	if rec.Count(trace.ByKind(trace.KindSegRetransmit)) == 0 {
		t.Skip("lossy link produced no retransmissions; Karn check vacuous")
	}
	vs := check.Check(rec.Events(), check.Config{
		Adaptive: true,
		MinRTO:   MinRTO,
	})
	for _, v := range vs {
		if v.Invariant == "karn-rule" {
			t.Errorf("Karn violation: %s", v)
		}
	}
}
