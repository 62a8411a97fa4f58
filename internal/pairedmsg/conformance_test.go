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

// TestFixedRetransmitScheduleConformance replays two adverse runs
// through the checker, which holds every retransmission pass of a
// transfer to at least the configured interval after the previous one,
// with no slack:
//
//   - blackholed: the peer is crashed, so one call spends the full
//     MaxRetries budget retransmitting and then fails with ErrPeerDown;
//   - lossy: 30% loss under twenty 3-segment echoes, so retransmissions
//     interleave with acks, partial progress and returns.
func TestFixedRetransmitScheduleConformance(t *testing.T) {
	for _, tc := range []struct {
		name string
		seed int64
		link netsim.LinkConfig
		run  func(t *testing.T, p pair, rec *trace.Recorder)
	}{
		{"blackholed", 21, netsim.LinkConfig{}, func(t *testing.T, p pair, rec *trace.Recorder) {
			p.net.Crash(p.b.Addr().Host)
			cn := p.a.NextCallNum(p.b.Addr())
			if err := p.a.Send(context.Background(), p.b.Addr(), Call, cn, []byte("void")); err != ErrPeerDown {
				t.Fatalf("send to blackholed peer: err = %v, want ErrPeerDown", err)
			}
			got := rec.Count(func(e trace.Event) bool {
				return e.Kind == trace.KindSegRetransmit && e.CallNum == cn
			})
			if want := fastOpts().MaxRetries; got != want {
				t.Fatalf("retransmit passes = %d, want the full budget %d", got, want)
			}
		}},
		{"lossy", 23, netsim.LinkConfig{LossRate: 0.3}, func(t *testing.T, p pair, rec *trace.Recorder) {
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
				// At 30% loss an exchange can exhaust its retry budget and
				// be declared down; the schedule of the retransmissions it
				// did make is still checked.
				if err := p.a.Send(context.Background(), p.b.Addr(), Call, cn, payload); err != nil {
					continue
				}
				recvMsg(t, p.a, 2*time.Second)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, rec := newPairTraced(t, tc.seed, tc.link, fastOpts())
			tc.run(t, p, rec)
			if rec.Count(trace.ByKind(trace.KindSegRetransmit)) == 0 {
				t.Fatal("no retransmissions: the schedule check is vacuous")
			}
			vs := check.Check(rec.Events(), check.Config{
				RetransmitInterval: fastOpts().RetransmitInterval,
			})
			if len(vs) != 0 {
				t.Fatalf("conformance violations:\n%v", check.Strings(vs))
			}
		})
	}
}
