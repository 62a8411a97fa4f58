// Package check replays a recorded trace offline and verifies the
// protocol invariants the paper claims (§4.2–§4.3): exactly-once
// execution at every troupe member, replies only to fully received
// requests, monotone call numbers per conversation, and retransmit
// schedules that keep the fixed retransmission interval. It runs
// automatically at the end of every chaos campaign and over any JSONL
// trace.
//
// The event-stream rules themselves live in internal/trace/rules and
// are shared verbatim with the online runtime monitor
// (internal/trace/monitor); this package adds the timing rule that
// needs a transfer's whole retransmission history and so only makes
// sense offline.
package check

import (
	"fmt"
	"sort"
	"time"

	"circus/internal/trace"
	"circus/internal/trace/rules"
	"circus/internal/transport"
)

// Config describes the protocol parameters the trace was produced
// under, so the timing invariant knows the bound to enforce.
type Config struct {
	// RetransmitInterval is the fixed retransmission interval (§4.2.3).
	// Zero skips the retransmit-schedule check.
	RetransmitInterval time.Duration
}

// Violation is one invariant breach found in a trace.
type Violation = rules.Violation

// endpoint identifies one process incarnation.
type endpoint struct {
	node transport.Addr
	inc  uint32
}

// conv identifies one paired-message conversation at one endpoint.
type conv struct {
	ep      endpoint
	peer    transport.Addr
	msgType uint8
	callNum uint32
}

// Check replays events (in capture order; re-sorted by Seq
// defensively) and returns every invariant breach found. An empty
// result means the trace is consistent with the protocol.
func Check(events []trace.Event, cfg Config) []Violation {
	evs := make([]trace.Event, len(events))
	copy(evs, events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })

	var v []Violation
	eng := rules.New(rules.Options{}, func(rv rules.Violation) {
		v = append(v, rv)
	})
	for _, e := range evs {
		eng.Observe(e)
	}
	v = append(v, checkRetransmitSchedule(evs, cfg)...)
	return v
}

// checkRetransmitSchedule verifies timer discipline per transfer:
// successive retransmission passes are spaced at least
// RetransmitInterval apart. The timer pass stamps each msg.retransmit
// with the clock reading it schedules the next pass from, so the bound
// is exact: any shorter gap is a breach.
func checkRetransmitSchedule(evs []trace.Event, cfg Config) []Violation {
	if cfg.RetransmitInterval == 0 {
		return nil
	}
	last := make(map[conv]time.Time)
	var v []Violation
	for _, e := range evs {
		if e.Kind != trace.KindSegRetransmit {
			continue
		}
		k := conv{endpoint{e.Node, e.Inc}, e.Peer, e.MsgType, e.CallNum}
		if prev, ok := last[k]; ok {
			if gap := e.T.Sub(prev); gap < cfg.RetransmitInterval {
				v = append(v, Violation{
					Invariant: "retransmit-interval",
					Seq:       e.Seq,
					Msg: fmt.Sprintf("retransmit gap %v below interval %v (peer %v call %d)",
						gap, cfg.RetransmitInterval, k.peer, k.callNum),
				})
			}
		}
		last[k] = e.T
	}
	return v
}

// Strings formats violations as plain strings, for merging into a
// campaign's violation list.
func Strings(vs []Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out
}
