package pairedmsg

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"circus/internal/netsim"
	"circus/internal/tomb"
	"circus/internal/trace"
	"circus/internal/transport"
)

// fastOpts keeps test wall time low.
func fastOpts() Options {
	return Options{
		RetransmitInterval: 10 * time.Millisecond,
		MaxRetries:         15,
		ProbeInterval:      15 * time.Millisecond,
		ProbeMissLimit:     4,
		CompletedTTL:       time.Second,
	}
}

type pair struct {
	net  *netsim.Network
	a, b *Conn
}

func newPair(t *testing.T, seed int64, link netsim.LinkConfig, opts Options) pair {
	t.Helper()
	n := netsim.New(seed)
	n.SetLink(link)
	epA, err := n.Listen(n.NewHost(), 0)
	if err != nil {
		t.Fatal(err)
	}
	epB, err := n.Listen(n.NewHost(), 0)
	if err != nil {
		t.Fatal(err)
	}
	a, b := New(epA, opts), New(epB, opts)
	t.Cleanup(func() { a.Close(); b.Close() })
	return pair{net: n, a: a, b: b}
}

// newPairTraced is newPair with a shared in-memory trace recorder
// attached to both connections, so tests can wait for specific
// protocol events instead of sleeping for fixed intervals.
func newPairTraced(t *testing.T, seed int64, link netsim.LinkConfig, opts Options) (pair, *trace.Recorder) {
	t.Helper()
	rec := trace.NewRecorder()
	opts.Trace = rec
	return newPair(t, seed, link, opts), rec
}

func recvMsg(t *testing.T, c *Conn, timeout time.Duration) (Message, bool) {
	t.Helper()
	select {
	case m, ok := <-c.Incoming():
		return m, ok
	case <-time.After(timeout):
		return Message{}, false
	}
}

func TestSimpleExchange(t *testing.T) {
	p := newPair(t, 1, netsim.LinkConfig{}, fastOpts())
	cn := p.a.NextCallNum(p.b.Addr())
	if err := p.a.Send(context.Background(), p.b.Addr(), Call, cn, []byte("echo me")); err != nil {
		t.Fatalf("Send call: %v", err)
	}
	m, ok := recvMsg(t, p.b, time.Second)
	if !ok {
		t.Fatal("call not delivered")
	}
	if m.Type != Call || m.CallNum != cn || string(m.Data) != "echo me" {
		t.Fatalf("got %+v", m)
	}
	if err := p.b.Send(context.Background(), p.a.Addr(), Return, cn, []byte("result")); err != nil {
		t.Fatalf("Send return: %v", err)
	}
	r, ok := recvMsg(t, p.a, time.Second)
	if !ok {
		t.Fatal("return not delivered")
	}
	if r.Type != Return || string(r.Data) != "result" {
		t.Fatalf("got %+v", r)
	}
}

func TestEmptyMessage(t *testing.T) {
	p := newPair(t, 1, netsim.LinkConfig{}, fastOpts())
	cn := p.a.NextCallNum(p.b.Addr())
	if err := p.a.Send(context.Background(), p.b.Addr(), Call, cn, nil); err != nil {
		t.Fatalf("Send: %v", err)
	}
	m, ok := recvMsg(t, p.b, time.Second)
	if !ok {
		t.Fatal("empty message not delivered")
	}
	if len(m.Data) != 0 {
		t.Fatalf("data = %q, want empty", m.Data)
	}
}

func TestMultiSegmentMessage(t *testing.T) {
	p := newPair(t, 2, netsim.LinkConfig{}, fastOpts())
	msg := bytes.Repeat([]byte("0123456789abcdef"), 1000) // 16000 bytes, ~11 segments
	cn := p.a.NextCallNum(p.b.Addr())
	if err := p.a.Send(context.Background(), p.b.Addr(), Call, cn, msg); err != nil {
		t.Fatalf("Send: %v", err)
	}
	m, ok := recvMsg(t, p.b, 2*time.Second)
	if !ok {
		t.Fatal("message not delivered")
	}
	if !bytes.Equal(m.Data, msg) {
		t.Fatalf("reassembled %d bytes incorrectly", len(m.Data))
	}
}

func TestMessageTooLarge(t *testing.T) {
	p := newPair(t, 1, netsim.LinkConfig{}, fastOpts())
	_, err := p.a.StartSend(p.b.Addr(), Call, 1, make([]byte, MaxMessage+1))
	if err != ErrMessageTooLarge {
		t.Fatalf("err = %v, want ErrMessageTooLarge", err)
	}
}

func TestLossRecovery(t *testing.T) {
	p := newPair(t, 3, netsim.LinkConfig{LossRate: 0.3}, fastOpts())
	msg := bytes.Repeat([]byte("x"), 10*maxSegPayload)
	cn := p.a.NextCallNum(p.b.Addr())
	errc := make(chan error, 1)
	go func() { errc <- p.a.Send(context.Background(), p.b.Addr(), Call, cn, msg) }()
	m, ok := recvMsg(t, p.b, 5*time.Second)
	if !ok {
		t.Fatal("message not delivered under 30% loss")
	}
	if !bytes.Equal(m.Data, msg) {
		t.Fatal("corrupted reassembly under loss")
	}
	if err := <-errc; err != nil {
		t.Fatalf("Send: %v", err)
	}
	if st := p.a.Stats(); st.Retransmits == 0 {
		t.Error("expected retransmissions under loss")
	}
}

func TestDuplicationSuppressed(t *testing.T) {
	// DupRate 1: every datagram arrives twice, so the receiver is
	// guaranteed to see (and must suppress) a duplicate call segment.
	p, rec := newPairTraced(t, 4, netsim.LinkConfig{DupRate: 1}, fastOpts())
	cn := p.a.NextCallNum(p.b.Addr())
	if err := p.a.Send(context.Background(), p.b.Addr(), Call, cn, []byte("once")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if _, ok := recvMsg(t, p.b, time.Second); !ok {
		t.Fatal("message not delivered")
	}
	// Wait until the receiver has demonstrably suppressed the
	// duplicate, then verify no second delivery surfaced.
	if _, ok := rec.Wait(2*time.Second, func(e trace.Event) bool {
		return e.Kind == trace.KindDupSegment && e.Node == p.b.Addr() && e.CallNum == cn
	}); !ok {
		t.Fatal("duplicate segment never reached the receiver")
	}
	select {
	case m := <-p.b.Incoming():
		t.Fatalf("duplicate delivery: %+v", m)
	default:
	}
}

func TestRetransmitReplayIgnoredAfterDelivery(t *testing.T) {
	// A replayed call segment after completion must be acked but not
	// redelivered (§4.2.4 replay prevention).
	p, rec := newPairTraced(t, 5, netsim.LinkConfig{}, fastOpts())
	cn := p.a.NextCallNum(p.b.Addr())
	if err := p.a.Send(context.Background(), p.b.Addr(), Call, cn, []byte("m")); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvMsg(t, p.b, time.Second); !ok {
		t.Fatal("not delivered")
	}
	// Replay the completed call from the original sender: the exchange
	// is still inside b's CompletedTTL window, so the segment must be
	// re-acked and suppressed rather than redelivered.
	if _, err := p.a.StartSend(p.b.Addr(), Call, cn, []byte("m")); err != nil {
		t.Fatalf("replaying completed call: %v", err)
	}
	if _, ok := rec.Wait(2*time.Second, func(e trace.Event) bool {
		return e.Kind == trace.KindDupSegment && e.Node == p.b.Addr() && e.CallNum == cn
	}); !ok {
		t.Fatal("replayed segment was not suppressed as a duplicate")
	}
	select {
	case m := <-p.b.Incoming():
		t.Fatalf("unexpected delivery %+v", m)
	default:
	}
}

func TestImplicitAckByReturn(t *testing.T) {
	// With no loss, the return message should implicitly acknowledge
	// the call: the client's Send completes without explicit acks
	// having been required from the server beyond the return itself.
	p := newPair(t, 6, netsim.LinkConfig{}, fastOpts())
	cn := p.a.NextCallNum(p.b.Addr())

	done := make(chan error, 1)
	go func() { done <- p.a.Send(context.Background(), p.b.Addr(), Call, cn, []byte("q")) }()

	m, ok := recvMsg(t, p.b, time.Second)
	if !ok {
		t.Fatal("call not delivered")
	}
	if err := p.b.Send(context.Background(), p.a.Addr(), Return, m.CallNum, []byte("a")); err != nil {
		t.Fatalf("return send: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("call send: %v", err)
	}
	if _, ok := recvMsg(t, p.a, time.Second); !ok {
		t.Fatal("return not delivered")
	}
}

func TestSendToCrashedPeerReportsDown(t *testing.T) {
	p := newPair(t, 7, netsim.LinkConfig{}, fastOpts())
	p.net.Crash(p.b.Addr().Host)
	cn := p.a.NextCallNum(p.b.Addr())
	err := p.a.Send(context.Background(), p.b.Addr(), Call, cn, []byte("x"))
	if err != ErrPeerDown {
		t.Fatalf("err = %v, want ErrPeerDown", err)
	}
}

func TestSendContextCancel(t *testing.T) {
	p := newPair(t, 8, netsim.LinkConfig{LossRate: 1}, fastOpts())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	cn := p.a.NextCallNum(p.b.Addr())
	err := p.a.Send(ctx, p.b.Addr(), Call, cn, []byte("x"))
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// observer is a CallObserver that records how its call ended: the
// failure or the return it hears. Each channel has room for a second
// report, so hearing twice shows up as a report that silent finds
// instead of a blocked session.
type observer struct {
	failed   chan error
	returned chan string
}

func newObserver() observer {
	return observer{failed: make(chan error, 2), returned: make(chan string, 2)}
}

func (o observer) CallFailed(err error) { o.failed <- err }

// Returned copies the data out: it is valid only during the call.
func (o observer) Returned(m Message) { o.returned <- string(m.Data) }

func (o observer) silent(t *testing.T) {
	t.Helper()
	select {
	case err := <-o.failed:
		t.Fatalf("observer told %v", err)
	case data := <-o.returned:
		t.Fatalf("observer handed return %q", data)
	default:
	}
}

// beginWatched sends an observed call and waits for the server to
// receive it, and for the call's liveness watch to be armed.
func beginWatched(t *testing.T, p pair, msg string) (observer, uint32) {
	t.Helper()
	obs := newObserver()
	tr, err := p.a.BeginObservedCall(p.b.Addr(), []byte(msg), obs)
	if err != nil {
		t.Fatal(err)
	}
	p.a.Transmit(tr)
	if _, ok := recvMsg(t, p.b, time.Second); !ok {
		t.Fatal("call not delivered")
	}
	waitWatches(t, p.a, 1)
	return obs, tr.CallNum()
}

func waitWatches(t *testing.T, c *Conn, want int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for c.Stats().Watches != want {
		if time.Now().After(deadline) {
			t.Fatalf("%d watches, want %d", c.Stats().Watches, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWatchDetectsCrash(t *testing.T) {
	p := newPair(t, 9, netsim.LinkConfig{}, fastOpts())
	obs, _ := beginWatched(t, p, "work")
	p.net.Crash(p.b.Addr().Host)
	select {
	case err := <-obs.failed:
		if err != ErrPeerDown {
			t.Fatalf("observer told %v, want ErrPeerDown", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("crash not detected by probing")
	}
	if w := p.a.Stats().Watches; w != 0 {
		t.Fatalf("%d watches left after the crash report", w)
	}
}

func TestWatchStaysUpWhileServerAlive(t *testing.T) {
	p, rec := newPairTraced(t, 10, netsim.LinkConfig{}, fastOpts())
	obs, cn := beginWatched(t, p, "long work")
	// Wait for two probe rounds to demonstrably go out (the live peer
	// answers each, so the miss counter never reaches the limit); the
	// watch must still consider the peer alive.
	if _, ok := rec.WaitN(2*time.Second, 2, func(e trace.Event) bool {
		return e.Kind == trace.KindProbeSend && e.Node == p.a.Addr()
	}); !ok {
		t.Fatal("no probes sent while watching the long execution")
	}
	obs.silent(t)
	if st := p.a.Stats(); st.ProbesSent == 0 {
		t.Error("no probes were sent during the long execution")
	}
	// The return goes to the observer and disarms the watch.
	if _, err := p.b.StartSend(p.a.Addr(), Return, cn, []byte("done")); err != nil {
		t.Fatal(err)
	}
	select {
	case data := <-obs.returned:
		if data != "done" {
			t.Fatalf("observer handed return %q, want done", data)
		}
	case <-time.After(time.Second):
		t.Fatal("return not handed to the observer")
	}
	waitWatches(t, p.a, 0)
	obs.silent(t)
}

func TestWatchReportsCallFailure(t *testing.T) {
	p := newPair(t, 11, netsim.LinkConfig{LossRate: 1}, fastOpts())
	obs := newObserver()
	tr, err := p.a.BeginObservedCall(p.b.Addr(), []byte("lost"), obs)
	if err != nil {
		t.Fatal(err)
	}
	p.a.Transmit(tr)
	select {
	case err := <-obs.failed:
		if err != ErrPeerDown {
			t.Fatalf("observer told %v, want ErrPeerDown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retry exhaustion not reported")
	}
	if w := p.a.Stats().Watches; w != 0 {
		t.Fatalf("a failed call armed %d watches", w)
	}
}

func TestWatchAbandonAndClose(t *testing.T) {
	p := newPair(t, 12, netsim.LinkConfig{}, fastOpts())
	abandoned, cn := beginWatched(t, p, "abandon me")
	p.a.Abandon(p.b.Addr(), cn)
	waitWatches(t, p.a, 0)
	closed, _ := beginWatched(t, p, "close under me")
	p.a.Close()
	if err := <-closed.failed; err != ErrClosed {
		t.Fatalf("observer told %v at Close, want ErrClosed", err)
	}
	abandoned.silent(t)
	if _, err := p.a.BeginObservedCall(p.b.Addr(), []byte("late"), newObserver()); err != ErrClosed {
		t.Fatalf("BeginObservedCall after Close: %v, want ErrClosed", err)
	}
}

// TestObservedReturnReachesObserverOnce: an observed call's return is
// handed to its observer once and never to Incoming, even when the
// server sends it a second time.
func TestObservedReturnReachesObserverOnce(t *testing.T) {
	p := newPair(t, 13, netsim.LinkConfig{}, fastOpts())
	obs, cn := beginWatched(t, p, "work")
	if n := p.a.Stats().Observed; n != 1 {
		t.Fatalf("%d observed calls in flight, want 1", n)
	}
	// Each Send returns once the client has acknowledged the return, so
	// both copies have been handled when the loop ends.
	for i := 0; i < 2; i++ {
		if err := p.b.Send(context.Background(), p.a.Addr(), Return, cn, []byte("done")); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case data := <-obs.returned:
		if data != "done" {
			t.Fatalf("observer handed return %q, want done", data)
		}
	case <-time.After(time.Second):
		t.Fatal("return not handed to the observer")
	}
	obs.silent(t)
	if m, ok := recvMsg(t, p.a, 50*time.Millisecond); ok {
		t.Fatalf("an observed return also reached Incoming: %+v", m)
	}
	if st := p.a.Stats(); st.Observed != 0 || st.Watches != 0 || st.DupSegments == 0 {
		t.Fatalf("after the return: %d observed, %d watches, %d duplicate segments; want 0, 0, > 0",
			st.Observed, st.Watches, st.DupSegments)
	}
}

// TestReturnAfterAbandonReachesIncoming: once its call is abandoned, a
// late return goes to Incoming and the observer hears nothing.
func TestReturnAfterAbandonReachesIncoming(t *testing.T) {
	p := newPair(t, 14, netsim.LinkConfig{}, fastOpts())
	obs, cn := beginWatched(t, p, "abandon me")
	p.a.Abandon(p.b.Addr(), cn)
	if n := p.a.Stats().Observed; n != 0 {
		t.Fatalf("%d observed calls after Abandon, want 0", n)
	}
	if _, err := p.b.StartSend(p.a.Addr(), Return, cn, []byte("late")); err != nil {
		t.Fatal(err)
	}
	m, ok := recvMsg(t, p.a, time.Second)
	if !ok || m.Type != Return || m.CallNum != cn || string(m.Data) != "late" {
		t.Fatalf("late return not on Incoming: %+v", m)
	}
	obs.silent(t)
}

// TestUnobservedReturnReachesIncoming: the return of a call begun
// without an observer goes to Incoming, where its caller reads it.
func TestUnobservedReturnReachesIncoming(t *testing.T) {
	p := newPair(t, 15, netsim.LinkConfig{}, fastOpts())
	tr, err := p.a.BeginCall(p.b.Addr(), []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	p.a.Transmit(tr)
	if m, ok := recvMsg(t, p.b, time.Second); !ok || string(m.Data) != "ping" {
		t.Fatalf("call not delivered: %+v", m)
	}
	if _, err := p.b.StartSend(p.a.Addr(), Return, tr.CallNum(), []byte("pong")); err != nil {
		t.Fatal(err)
	}
	m, ok := recvMsg(t, p.a, time.Second)
	if !ok || m.Type != Return || m.CallNum != tr.CallNum() || string(m.Data) != "pong" {
		t.Fatalf("return not on Incoming: %+v", m)
	}
	if st := p.a.Stats(); st.Observed != 0 || st.Watches != 0 {
		t.Fatalf("an unobserved call left %d observed, %d watches", st.Observed, st.Watches)
	}
}

func TestNextCallNumMonotonicPerPeer(t *testing.T) {
	p := newPair(t, 11, netsim.LinkConfig{}, fastOpts())
	x := p.a.NextCallNum(p.b.Addr())
	y := p.a.NextCallNum(p.b.Addr())
	if y != x+1 {
		t.Fatalf("call numbers not sequential: %d then %d", x, y)
	}
	// A fresh peer restarts the sequence from the connection's base —
	// randomized per incarnation so a restarted process cannot collide
	// with its predecessor's completed-exchange records.
	other := transport.Addr{Host: 99, Port: 1}
	z1 := p.a.NextCallNum(other)
	z2 := p.a.NextCallNum(other)
	if z2 != z1+1 {
		t.Fatalf("per-peer numbering broken: %d then %d for fresh peer", z1, z2)
	}
	if z1 == y+1 {
		t.Fatalf("fresh peer continued another peer's sequence at %d", z1)
	}
}

// TestRestartedConnAvoidsPredecessorCallNums: a new Conn on the same
// address (a restarted process, call state gone) must pick call
// numbers that do not land in the range its predecessor completed, or
// its fresh calls would be suppressed as duplicate replays for
// CompletedTTL (§4.2.4).
func TestRestartedConnAvoidsPredecessorCallNums(t *testing.T) {
	n := netsim.New(77)
	epA, err := n.Listen(n.NewHost(), 5000)
	if err != nil {
		t.Fatal(err)
	}
	epB, err := n.Listen(n.NewHost(), 0)
	if err != nil {
		t.Fatal(err)
	}
	a, b := New(epA, fastOpts()), New(epB, fastOpts())
	t.Cleanup(func() { b.Close() })

	// Server echoes every call.
	go func() {
		for m := range b.Incoming() {
			if m.Type == Call {
				b.StartSend(m.From, Return, m.CallNum, m.Data)
			}
		}
	}()

	first := a.NextCallNum(b.Addr())
	if err := a.Send(context.Background(), b.Addr(), Call, first, []byte("one")); err != nil {
		t.Fatalf("first incarnation send: %v", err)
	}
	if _, ok := recvMsg(t, a, time.Second); !ok {
		t.Fatal("first incarnation got no return")
	}
	a.Close()

	// Restart: same address, fresh protocol state.
	epA2, err := n.Listen(epA.Addr().Host, epA.Addr().Port)
	if err != nil {
		t.Fatal(err)
	}
	a2 := New(epA2, fastOpts())
	t.Cleanup(func() { a2.Close() })
	cn := a2.NextCallNum(b.Addr())
	if cn == first {
		t.Fatalf("restarted conn reused completed call number %d", cn)
	}
	if err := a2.Send(context.Background(), b.Addr(), Call, cn, []byte("two")); err != nil {
		t.Fatalf("restarted incarnation send: %v", err)
	}
	m, ok := recvMsg(t, a2, time.Second)
	if !ok {
		t.Fatal("restarted incarnation got no return: fresh call suppressed as replay")
	}
	if string(m.Data) != "two" {
		t.Fatalf("restarted incarnation got %q", m.Data)
	}
}

func TestConcurrentExchanges(t *testing.T) {
	p := newPair(t, 12, netsim.LinkConfig{LossRate: 0.1}, fastOpts())
	const threads = 8

	// Server: echo every call.
	go func() {
		for m := range p.b.Incoming() {
			if m.Type != Call {
				continue
			}
			m := m
			go p.b.Send(context.Background(), m.From, Return, m.CallNum, m.Data)
		}
	}()

	var wg sync.WaitGroup
	results := make(map[uint32][]byte)
	var mu sync.Mutex
	got := make(chan Message, threads)
	go func() {
		for m := range p.a.Incoming() {
			if m.Type == Return {
				got <- m
			}
		}
	}()

	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cn := p.a.NextCallNum(p.b.Addr())
			body := []byte{byte(i), byte(i + 1)}
			mu.Lock()
			results[cn] = body
			mu.Unlock()
			if err := p.a.Send(context.Background(), p.b.Addr(), Call, cn, body); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	seen := 0
	deadline := time.After(5 * time.Second)
	for seen < threads {
		select {
		case m := <-got:
			mu.Lock()
			want := results[m.CallNum]
			mu.Unlock()
			if !bytes.Equal(m.Data, want) {
				t.Fatalf("call %d: echoed %v, want %v", m.CallNum, m.Data, want)
			}
			seen++
		case <-deadline:
			t.Fatalf("only %d of %d returns arrived", seen, threads)
		}
	}
}

func TestDuplicateCallNumberRejected(t *testing.T) {
	p := newPair(t, 13, netsim.LinkConfig{LossRate: 1}, fastOpts())
	if _, err := p.a.StartSend(p.b.Addr(), Call, 7, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.a.StartSend(p.b.Addr(), Call, 7, []byte("y")); err == nil {
		t.Fatal("duplicate in-flight call number accepted")
	}
}

func TestCloseFailsPendingSends(t *testing.T) {
	p, rec := newPairTraced(t, 14, netsim.LinkConfig{LossRate: 1}, fastOpts())
	errc := make(chan error, 1)
	go func() {
		errc <- p.a.Send(context.Background(), p.b.Addr(), Call, 1, []byte("x"))
	}()
	// The transfer is demonstrably in flight once its initial send is
	// traced; Close must then fail it.
	if _, ok := rec.Wait(2*time.Second, func(e trace.Event) bool {
		return e.Kind == trace.KindMsgSend && e.Node == p.a.Addr() && e.CallNum == 1
	}); !ok {
		t.Fatal("pending send never started")
	}
	p.a.Close()
	select {
	case err := <-errc:
		if err != ErrClosed {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("pending send not failed by Close")
	}
	if err := p.a.Send(context.Background(), p.b.Addr(), Call, 2, []byte("x")); err != ErrClosed {
		t.Fatalf("send after close = %v, want ErrClosed", err)
	}
}

func TestRetransmitAllStrategy(t *testing.T) {
	opts := fastOpts()
	opts.Strategy = RetransmitAll
	p := newPair(t, 15, netsim.LinkConfig{LossRate: 0.4}, opts)
	msg := bytes.Repeat([]byte("y"), 6*maxSegPayload)
	cn := p.a.NextCallNum(p.b.Addr())
	if err := p.a.Send(context.Background(), p.b.Addr(), Call, cn, msg); err != nil {
		t.Fatalf("Send under loss with RetransmitAll: %v", err)
	}
	if m, ok := recvMsg(t, p.b, 5*time.Second); !ok || !bytes.Equal(m.Data, msg) {
		t.Fatal("message not delivered intact")
	}
}

func TestGarbledSegmentIgnored(t *testing.T) {
	p := newPair(t, 16, netsim.LinkConfig{}, fastOpts())
	// Short junk datagram straight to b's endpoint address.
	ep, err := p.net.Listen(p.net.NewHost(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	ep.Send(p.b.Addr(), []byte{1, 2, 3})
	if _, ok := recvMsg(t, p.b, 50*time.Millisecond); ok {
		t.Fatal("garbled segment produced a delivery")
	}
	// Normal traffic still works afterwards.
	cn := p.a.NextCallNum(p.b.Addr())
	if err := p.a.Send(context.Background(), p.b.Addr(), Call, cn, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvMsg(t, p.b, time.Second); !ok {
		t.Fatal("delivery broken after garbled segment")
	}
}

func TestSegmentHeaderRoundTrip(t *testing.T) {
	h := segHeader{typ: Return, pleaseAck: true, totalSegs: 9, segNum: 3, callNum: 0xdeadbeef}
	enc := h.encode([]byte("payload"))
	got, payload, err := decodeSegment(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("decoded %+v, want %+v", got, h)
	}
	if string(payload) != "payload" {
		t.Fatalf("payload = %q", payload)
	}
}

func TestSegmentMessageSizes(t *testing.T) {
	cases := []struct {
		size int
		want int
	}{
		{0, 1},
		{1, 1},
		{maxSegPayload, 1},
		{maxSegPayload + 1, 2},
		{5 * maxSegPayload, 5},
		{MaxMessage, 255},
	}
	for _, c := range cases {
		segs, err := segmentMessage(Call, 1, make([]byte, c.size))
		if err != nil {
			t.Fatalf("size %d: %v", c.size, err)
		}
		if len(segs) != c.want {
			t.Errorf("size %d: %d segments, want %d", c.size, len(segs), c.want)
		}
		total := 0
		for _, s := range segs {
			total += len(s) - headerLen
		}
		if total != c.size {
			t.Errorf("size %d: segments carry %d bytes", c.size, total)
		}
	}
}

// TestCompletedRecordAcrossRotations: the record of a completed
// exchange answers a replayed segment from any of its generations —
// acknowledged, not redelivered — and once its last generation has been
// dropped the same segment is a new message (§4.2.4: by then delayed
// duplicates can no longer arrive).
func TestCompletedRecordAcrossRotations(t *testing.T) {
	opts := fastOpts()
	opts.CompletedTTL = time.Hour // only this test rotates
	p, rec := newPairTraced(t, 14, netsim.LinkConfig{}, opts)
	_, rotate := settledSession(t, p.b, p.a.Addr())

	cn := p.a.NextCallNum(p.b.Addr())
	if err := p.a.Send(context.Background(), p.b.Addr(), Call, cn, []byte("m")); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvMsg(t, p.b, time.Second); !ok {
		t.Fatal("not delivered")
	}
	if n := p.b.Stats().CompletedRecords; n != 1 {
		t.Fatalf("CompletedRecords = %d after one exchange", n)
	}
	replay := func() {
		t.Helper()
		tr, err := p.a.StartSend(p.b.Addr(), Call, cn, []byte("m"))
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-tr.Done():
			if tr.Err() != nil {
				t.Fatalf("replay: %v", tr.Err())
			}
		case <-time.After(2 * time.Second):
			t.Fatal("replayed segment never acknowledged")
		}
	}
	for rotation := 1; rotation < tomb.Generations; rotation++ {
		rotate()
		replay()
		if dups := rec.Count(func(e trace.Event) bool {
			return e.Kind == trace.KindDupSegment && e.Node == p.b.Addr() && e.CallNum == cn
		}); dups < rotation {
			t.Fatalf("after rotation %d: %d replays suppressed", rotation, dups)
		}
		select {
		case m := <-p.b.Incoming():
			t.Fatalf("after rotation %d: redelivered %+v", rotation, m)
		default:
		}
	}
	rotate()
	if n := p.b.Stats().CompletedRecords; n != 0 {
		t.Fatalf("CompletedRecords = %d after its last generation was dropped", n)
	}
	replay()
	if m, ok := recvMsg(t, p.b, time.Second); !ok || m.CallNum != cn {
		t.Fatalf("expired exchange not treated as new: %+v, %v", m, ok)
	}
}

// TestCompletedRecordLifetime: the timer pass drops a completed
// exchange's record no sooner than CompletedTTL after it completed and
// not much later than one and a half.
func TestCompletedRecordLifetime(t *testing.T) {
	const ttl = 120 * time.Millisecond
	opts := fastOpts()
	opts.CompletedTTL = ttl
	p := newPair(t, 15, netsim.LinkConfig{}, opts)
	cn := p.a.NextCallNum(p.b.Addr())
	sent := time.Now() // before the record exists, so no later than its birth
	if err := p.a.Send(context.Background(), p.b.Addr(), Call, cn, []byte("m")); err != nil {
		t.Fatal(err)
	}
	if n := p.b.Stats().CompletedRecords; n != 1 {
		t.Fatalf("CompletedRecords = %d after one exchange", n)
	}
	for p.b.Stats().CompletedRecords != 0 {
		if time.Since(sent) > 10*ttl {
			t.Fatal("completed record never expired")
		}
		time.Sleep(time.Millisecond)
	}
	if gone := time.Since(sent); gone < ttl {
		t.Fatalf("record gone %v after the send began, sooner than CompletedTTL %v", gone, ttl)
	}
}

// settledSession returns c's session with peer once the timer pass has
// made its first rotation — which it does for a new session at its
// first tick — and a function that rotates the completed records by
// hand. Tests that rotate set CompletedTTL long, so only they do.
func settledSession(t *testing.T, c *Conn, peer transport.Addr) (*session, func()) {
	t.Helper()
	s := c.session(peer)
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		ticked := !s.nextRotate.IsZero()
		s.mu.Unlock()
		if ticked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timer pass never reached the session")
		}
	}
	return s, func() {
		s.mu.Lock()
		s.completed.Rotate()
		s.completedSegs.Rotate()
		s.mu.Unlock()
	}
}

// TestCompletedMultiSegmentReplay: the record of a finished 3-segment
// exchange answers a probe with ack 3/3 and acknowledges a replayed
// segment 2 (please-ack set) without delivering it again — before and
// after a rotation, when the record and its segment count sit in an
// older generation.
func TestCompletedMultiSegmentReplay(t *testing.T) {
	opts := fastOpts()
	opts.CompletedTTL = time.Hour // only this test rotates
	p, rec := newPairTraced(t, 16, netsim.LinkConfig{}, opts)
	_, rotate := settledSession(t, p.b, p.a.Addr())

	msg := bytes.Repeat([]byte{'x'}, 2*maxSegPayload+10)
	cn := p.a.NextCallNum(p.b.Addr())
	if err := p.a.Send(context.Background(), p.b.Addr(), Call, cn, msg); err != nil {
		t.Fatal(err)
	}
	if m, ok := recvMsg(t, p.b, time.Second); !ok || !bytes.Equal(m.Data, msg) {
		t.Fatal("3-segment message not delivered")
	}
	segs, err := segmentMessage(Call, cn, msg)
	if err != nil || len(segs) != 3 {
		t.Fatalf("%d segments, %v", len(segs), err)
	}
	replayed := append([]byte(nil), segs[1]...)
	replayed[1] |= ctlPleaseAck
	probe := segHeader{typ: Call, pleaseAck: true, callNum: cn}.encode(nil)

	full := func(e trace.Event) bool {
		return e.Kind == trace.KindAckSend && e.Node == p.b.Addr() && e.CallNum == cn &&
			e.N == 3 && e.Total == 3
	}
	dup2 := func(e trace.Event) bool {
		return e.Kind == trace.KindDupSegment && e.Node == p.b.Addr() && e.CallNum == cn && e.N == 2
	}
	for phase, name := range []string{"before rotation", "after one rotation"} {
		if phase > 0 {
			rotate()
		}
		acks := rec.Count(full)
		p.b.handleSegment(p.a.Addr(), probe, nil)
		if _, ok := rec.WaitN(time.Second, acks+1, full); !ok {
			t.Fatalf("%s: probe not answered with ack 3/3", name)
		}
		p.b.handleSegment(p.a.Addr(), replayed, nil)
		if _, ok := rec.WaitN(time.Second, acks+2, full); !ok {
			t.Fatalf("%s: replayed segment 2 not acknowledged 3/3", name)
		}
		if got := rec.Count(dup2); got != phase+1 {
			t.Fatalf("%s: %d replays of segment 2 suppressed, want %d", name, got, phase+1)
		}
		select {
		case m := <-p.b.Incoming():
			t.Fatalf("%s: redelivered %+v", name, m)
		default:
		}
	}
}

// TestCompletedRecordsCompact: the records of 10 000 exchanges with
// consecutive call numbers share a few hundred bitmap blocks, and the
// gauge still counts each exchange. Multicast call numbers (high bit
// set), unicast numbers with the same low bits, and the two message
// types are all distinct exchanges: none answers for another.
func TestCompletedRecordsCompact(t *testing.T) {
	const n = 10_000
	opts := fastOpts()
	opts.CompletedTTL = time.Hour
	p := newPair(t, 17, netsim.LinkConfig{}, opts)
	s, _ := settledSession(t, p.b, p.a.Addr())
	from := p.a.Addr()
	// deliver feeds b one single-segment message from a and reports
	// whether b handed it up as new.
	deliver := func(typ MsgType, cn uint32) bool {
		p.b.handleSegment(from, segHeader{typ: typ, totalSegs: 1, segNum: 1, callNum: cn}.encode([]byte("m")), nil)
		select {
		case m := <-p.b.Incoming():
			if m.Type != typ || m.CallNum != cn {
				t.Fatalf("delivered %v %#x, fed %v %#x", m.Type, m.CallNum, typ, cn)
			}
			return true
		default:
			return false
		}
	}
	base := p.a.NextCallNum(p.b.Addr())
	for i := uint32(0); i < n; i++ {
		if !deliver(Call, base+i) {
			t.Fatalf("call %d not delivered", i)
		}
	}
	s.mu.Lock()
	blocks := s.completed.Blocks()
	s.mu.Unlock()
	if got := p.b.Stats().CompletedRecords; got != n || blocks > 200 {
		t.Fatalf("%d exchanges: %d completed records in %d blocks, want %d in <= 200", n, got, blocks, n)
	}

	for _, i := range []uint32{0, 1, 63, 64, n - 1} {
		multi := 0x8000_0000 | (base + i)
		if deliver(Call, base+i) {
			t.Fatalf("unicast call %#x redelivered", base+i)
		}
		if !deliver(Call, multi) {
			t.Fatalf("multicast call %#x answered by unicast %#x's record", multi, base+i)
		}
		if deliver(Call, multi) {
			t.Fatalf("multicast call %#x redelivered", multi)
		}
		if !deliver(Return, base+i) {
			t.Fatalf("return %#x answered by the call's record", base+i)
		}
	}
	if got := p.b.Stats().CompletedRecords; got != n+10 {
		t.Fatalf("CompletedRecords = %d, want %d", got, n+10)
	}
}

// TestReplyWithoutHandle: Reply sends a return that no completion
// channel tracks. It reaches the caller's observer, and one still
// unacknowledged when its peer goes silent, or when the Conn closes,
// ends quietly.
func TestReplyWithoutHandle(t *testing.T) {
	p := newPair(t, 12, netsim.LinkConfig{}, fastOpts())
	obs, cn := beginWatched(t, p, "ping")
	if err := p.b.Reply(p.a.Addr(), cn, []byte("pong")); err != nil {
		t.Fatal(err)
	}
	select {
	case data := <-obs.returned:
		if data != "pong" {
			t.Fatalf("observer handed return %q, want pong", data)
		}
	case <-time.After(time.Second):
		t.Fatal("reply not handed to the observer")
	}

	lost := newPair(t, 13, netsim.LinkConfig{LossRate: 1}, fastOpts())
	for cn := uint32(1); cn <= 2; cn++ {
		if err := lost.b.Reply(lost.a.Addr(), cn, []byte("unheard")); err != nil {
			t.Fatal(err)
		}
	}
	s := lost.b.session(lost.a.Addr())
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		s.mu.Lock()
		pending := len(s.out)
		s.mu.Unlock()
		if pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replies to a silent peer never gave up")
		}
	}
	if err := lost.b.Reply(lost.a.Addr(), 3, []byte("closing")); err != nil {
		t.Fatal(err)
	}
	lost.b.Close()
	if err := lost.b.Reply(lost.a.Addr(), 4, []byte("closed")); err == nil {
		t.Fatal("Reply on a closed Conn returned nil")
	}
}
