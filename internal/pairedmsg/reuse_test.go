package pairedmsg

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"circus/internal/netsim"
)

// callRecord is the observer of one call in TestReusedTransferNeverCrossesCalls:
// it counts what it hears and checks that a return carries its own
// call's reply.
type callRecord struct {
	t         *testing.T
	want      string
	heard     atomic.Int32
	abandoned atomic.Bool // set once Abandon has returned
}

func (r *callRecord) CallFailed(err error) { r.hear(fmt.Sprintf("failure %v", err)) }

func (r *callRecord) Returned(m Message) {
	if got := string(m.Data); got != r.want {
		r.t.Errorf("a call expecting %q was handed the return %q", r.want, got)
	}
	r.hear("return")
}

func (r *callRecord) hear(what string) {
	if r.abandoned.Load() {
		r.t.Errorf("%s for %q after its call was abandoned", what, r.want)
	}
	if r.heard.Add(1) > 1 {
		r.t.Errorf("%s for %q: a second report", what, r.want)
	}
}

// TestReusedTransferNeverCrossesCalls: observed-call and reply
// transfers are reused once their exchange has ended and the wire no
// longer references them. Many concurrent calls over a lossy,
// duplicating, jittery link — a third of them abandoned while their
// replies, sent after a random delay, are still on the way — must each
// hear at most one report, their own return or a failure, never after
// Abandon returned, and every call not abandoned must hear its return.
// Late returns of abandoned calls reach Incoming instead.
func TestReusedTransferNeverCrossesCalls(t *testing.T) {
	const workers, calls = 6, 150
	link := netsim.LinkConfig{LossRate: 0.05, DupRate: 0.05, MaxDelay: 300 * time.Microsecond}
	p := newPair(t, 31, link, fastOpts())

	// The server echoes each call after a random delay of up to 2 ms.
	go func() {
		rng := rand.New(rand.NewSource(1))
		for m := range p.b.Incoming() {
			delay := time.Duration(rng.Int63n(int64(2 * time.Millisecond)))
			data := append([]byte("re:"), m.Data...)
			m.Release()
			time.AfterFunc(delay, func() { p.b.Reply(m.From, m.CallNum, data) })
		}
	}()
	var late atomic.Int64
	go func() {
		for m := range p.a.Incoming() {
			late.Add(1)
			m.Release()
		}
	}()

	var wg sync.WaitGroup
	records := make([][]*callRecord, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < calls; i++ {
				msg := fmt.Sprintf("w%d-c%d", w, i)
				r := &callRecord{t: t, want: "re:" + msg}
				tr, err := p.a.BeginObservedCall(p.b.Addr(), []byte(msg), r)
				if err != nil {
					t.Error(err)
					return
				}
				cn := tr.CallNum()
				p.a.Transmit(tr)
				if rng.Intn(3) == 0 {
					time.Sleep(time.Duration(rng.Int63n(int64(time.Millisecond))))
					p.a.Abandon(p.b.Addr(), cn)
					r.abandoned.Store(r.heard.Load() == 0)
				} else {
					records[w] = append(records[w], r)
				}
			}
		}(w)
	}
	wg.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for w := range records {
		for _, r := range records[w] {
			for r.heard.Load() == 0 {
				if time.Now().After(deadline) {
					t.Fatalf("the call expecting %q never heard its return", r.want)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	waitWatches(t, p.a, 0)
	t.Logf("%d calls, %d late returns reached Incoming", workers*calls, late.Load())
}
