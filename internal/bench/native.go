package bench

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"circus/internal/collate"
	"circus/internal/core"
	"circus/internal/netsim"
	"circus/internal/pairedmsg"
	"circus/internal/probmodel"
	"circus/internal/trace"
	"circus/internal/txn"
)

// Trace, when set before an experiment runs, receives the trace
// events of every runtime the native benchmarks construct (the
// cmd/experiments -trace flag points it at a JSONL exporter). It must
// be set before goroutines start; nil keeps tracing disabled.
var Trace trace.Sink

// benchOpts are protocol timers for benchmarking on the simulated
// network.
func benchOpts() core.Options {
	return core.Options{
		Message: pairedmsg.Options{
			RetransmitInterval: 50 * time.Millisecond,
			MaxRetries:         20,
			ProbeInterval:      100 * time.Millisecond,
			ProbeMissLimit:     5,
		},
		ManyToOneTimeout: time.Second,
		Trace:            Trace,
	}
}

// echoMod is the rpctest module of Figure 4.7: echo(buffer) = buffer.
type echoMod struct{}

func (echoMod) Dispatch(call *core.ServerCall, proc uint16, args []byte) ([]byte, error) {
	return args, nil
}

// Cluster is a reusable server troupe plus client for the native
// benchmarks.
type Cluster struct {
	Net     *netsim.Network
	Client  *core.Runtime
	Troupe  core.Troupe
	servers []*core.Runtime
}

// NewCluster builds an n-member echo troupe over a simulated network
// with the given one-way wire delay.
func NewCluster(seed int64, n int, wireDelay time.Duration) (*Cluster, error) {
	return NewClusterMode(seed, n, wireDelay, false)
}

// NewClusterMode additionally selects the multicast implementation of
// one-to-many calls (§4.3.3).
func NewClusterMode(seed int64, n int, wireDelay time.Duration, multicast bool) (*Cluster, error) {
	return newCluster(seed, n, wireDelay, multicast, Trace)
}

// NewClusterSink builds the echo cluster with the given trace sink on
// every runtime instead of the package-level Trace — the monitored
// benchmarks attach an online monitor here without disturbing global
// state. A nil sink is the disabled fast path.
func NewClusterSink(seed int64, n int, wireDelay time.Duration, sink trace.Sink) (*Cluster, error) {
	return newCluster(seed, n, wireDelay, false, sink)
}

func newCluster(seed int64, n int, wireDelay time.Duration, multicast bool, sink trace.Sink) (*Cluster, error) {
	net := netsim.New(seed)
	if wireDelay > 0 {
		net.SetLink(netsim.LinkConfig{MinDelay: wireDelay, MaxDelay: wireDelay + wireDelay/4})
	}
	opts := benchOpts()
	opts.Multicast = multicast
	opts.Trace = sink
	c := &Cluster{Net: net, Troupe: core.Troupe{ID: 0xbec}}
	for i := 0; i < n; i++ {
		ep, err := net.Listen(net.NewHost(), 0)
		if err != nil {
			return nil, err
		}
		rt := core.NewRuntime(ep, opts)
		addr := rt.Export(echoMod{}, core.ExportOptions{})
		rt.SetTroupeID(addr.Module, c.Troupe.ID)
		c.Troupe.Members = append(c.Troupe.Members, addr)
		c.servers = append(c.servers, rt)
	}
	ep, err := net.Listen(net.NewHost(), 0)
	if err != nil {
		return nil, err
	}
	c.Client = core.NewRuntime(ep, opts)
	return c, nil
}

// MulticastAblation measures design choice 4 of DESIGN.md: repeated
// point-to-point sends versus one multicast per segment on the call
// leg (§4.3.3's m·n vs m+n messages, here with m = 1 client).
func MulticastAblation(seed int64, iters int) (string, error) {
	var b strings.Builder
	b.WriteString("§4.3.3 ablation (native) — unicast vs multicast call leg, netsim\n")
	fmt.Fprintf(&b, "%-7s %16s %16s %18s\n", "degree", "unicast sendops", "multicast sendops", "multicast ms/call")
	for _, n := range []int{2, 3, 5, 8} {
		var ops [2]float64
		var ms float64
		for mode := 0; mode < 2; mode++ {
			c, err := NewClusterMode(seed+int64(n), n, 0, mode == 1)
			if err != nil {
				return "", err
			}
			if err := c.Call([]byte("w")); err != nil {
				c.Close()
				return "", err
			}
			c.Net.ResetStats()
			start := time.Now()
			for i := 0; i < iters; i++ {
				if err := c.Call([]byte("x")); err != nil {
					c.Close()
					return "", err
				}
			}
			if mode == 1 {
				ms = float64(time.Since(start).Microseconds()) / 1000 / float64(iters)
			}
			st := c.Net.Stats()
			ops[mode] = float64(st.SendOps) / float64(iters)
			c.Close()
		}
		fmt.Fprintf(&b, "%-7d %16.1f %16.1f %18.2f\n", n, ops[0], ops[1], ms)
	}
	b.WriteString("shape: the call leg collapses from n send operations to 1; returns and\n")
	b.WriteString("acknowledgments remain per-member, as §4.3.3's m+n analysis counts.\n")
	return b.String(), nil
}

// Close tears the cluster down.
func (c *Cluster) Close() {
	c.Client.Close()
	for _, s := range c.servers {
		s.Close()
	}
}

// Call performs one replicated echo call of the given payload size.
func (c *Cluster) Call(payload []byte) error {
	_, err := c.Client.Call(context.Background(), c.Troupe, 1, payload, core.CallOptions{})
	return err
}

// ConcurrentCalls drives total replicated echo calls of a 16-byte
// payload through callers closed-loop worker goroutines: each goroutine
// issues its next call as soon as its previous one collates, claiming
// iterations from a shared counter. Every call runs on its own fresh
// thread context, so the calls are independent at the servers and
// exercise the parallel dispatch path. It returns the first error
// encountered, if any.
func (c *Cluster) ConcurrentCalls(callers, total int) error {
	payload := []byte("0123456789abcdef")
	var next atomic.Int64
	errc := make(chan error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(total) {
				if err := c.Call(payload); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errc:
		return err
	default:
		return nil
	}
}

// NativeReplicatedCall measures this repository's own implementation —
// the modern analogue of Table 4.1/Figure 4.8: latency and datagram
// counts per replicated call as the degree of replication grows, over
// the simulated network with a 1 ms wire.
func NativeReplicatedCall(seed int64, degrees []int, iters int) (string, error) {
	var b strings.Builder
	b.WriteString("Native (this implementation) — replicated call vs degree, netsim 1ms wire\n")
	fmt.Fprintf(&b, "%-7s %12s %14s %12s\n", "degree", "ms/call", "datagrams/call", "sendops/call")
	xs := make([]int, 0, len(degrees))
	var lat []float64
	for _, n := range degrees {
		c, err := NewCluster(seed+int64(n), n, time.Millisecond)
		if err != nil {
			return "", err
		}
		payload := []byte("0123456789abcdef")
		// Warm up one call (binding-free here, but first-call paths
		// differ).
		if err := c.Call(payload); err != nil {
			c.Close()
			return "", err
		}
		c.Net.ResetStats()
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := c.Call(payload); err != nil {
				c.Close()
				return "", err
			}
		}
		elapsed := time.Since(start)
		st := c.Net.Stats()
		perCall := float64(elapsed.Microseconds()) / 1000 / float64(iters)
		fmt.Fprintf(&b, "%-7d %12.2f %14.1f %12.1f\n",
			n, perCall,
			float64(st.Datagrams)/float64(iters),
			float64(st.SendOps)/float64(iters))
		xs = append(xs, n)
		lat = append(lat, perCall)
		c.Close()
	}
	slope, intercept := probmodel.LinearFit(xs, lat)
	fmt.Fprintf(&b, "linear fit: ms/call ≈ %.2f·n + %.2f\n", slope, intercept)
	b.WriteString("shape: datagram count per call grows linearly in n (the m·n pattern of\n")
	b.WriteString("§4.3.3 with m=1); goroutine parallelism keeps the latency slope small,\n")
	b.WriteString("as the paper predicts for an implementation with cheap concurrency.\n")
	return b.String(), nil
}

// OrderedBroadcastNative runs the Figure 5.1 protocol end-to-end over
// the simulated network: several concurrent broadcasters, a member
// troupe, identical-delivery-order verification, and throughput.
func OrderedBroadcastNative(seed int64, clients, members, perClient int) (string, error) {
	net := netsim.New(seed)
	opts := benchOpts()
	resolver := core.StaticResolver{}
	opts.Resolver = resolver

	dest := core.Troupe{ID: 0x0b}
	var mus []*sync.Mutex
	orders := make([][]string, members)
	var rts []*core.Runtime
	defer func() {
		for _, rt := range rts {
			rt.Close()
		}
	}()
	for i := 0; i < members; i++ {
		i := i
		mu := &sync.Mutex{}
		mus = append(mus, mu)
		q := txn.NewQueue(func(id string, msg []byte) {
			mu.Lock()
			orders[i] = append(orders[i], id)
			mu.Unlock()
		})
		ep, err := net.Listen(net.NewHost(), 0)
		if err != nil {
			return "", err
		}
		rt := core.NewRuntime(ep, opts)
		rts = append(rts, rt)
		addr := rt.Export(&txn.Module{Queue: q}, core.ExportOptions{})
		rt.SetTroupeID(addr.Module, dest.ID)
		dest.Members = append(dest.Members, addr)
	}
	resolver[dest.ID] = dest.Members

	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		c := c
		ep, err := net.Listen(net.NewHost(), 0)
		if err != nil {
			return "", err
		}
		rt := core.NewRuntime(ep, opts)
		rts = append(rts, rt)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				id := fmt.Sprintf("c%02d-%04d", c, k)
				if err := txn.Broadcast(context.Background(), rt, dest, id, []byte(id)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return "", err
	}
	elapsed := time.Since(start)

	// Wait for deliveries to drain.
	total := clients * perClient
	deadline := time.Now().Add(5 * time.Second)
	for {
		mus[0].Lock()
		n := len(orders[0])
		mus[0].Unlock()
		if n >= total || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	identical := true
	for i := 1; i < members; i++ {
		mus[0].Lock()
		a := append([]string(nil), orders[0]...)
		mus[0].Unlock()
		mus[i].Lock()
		bb := append([]string(nil), orders[i]...)
		mus[i].Unlock()
		if !reflect.DeepEqual(a, bb) {
			identical = false
		}
	}

	var b strings.Builder
	b.WriteString("Figure 5.1 — Ordered broadcast protocol, end to end over netsim\n")
	fmt.Fprintf(&b, "broadcasters: %d × %d messages; troupe of %d members\n", clients, perClient, members)
	fmt.Fprintf(&b, "delivered at member 0:        %d / %d (starvation-free: all make progress)\n", len(orders[0]), total)
	fmt.Fprintf(&b, "identical order at all members: %v (the §5.4 guarantee)\n", identical)
	fmt.Fprintf(&b, "throughput: %.0f broadcasts/s (two replicated calls each)\n",
		float64(total)/elapsed.Seconds())
	return b.String(), nil
}

// WaitPolicyNative measures the unanimous vs first-come collators of
// §4.3.4 against a troupe with one slow member — the native ablation
// for design choice 1 of DESIGN.md.
func WaitPolicyNative(seed int64, iters int) (string, error) {
	net := netsim.New(seed)
	opts := benchOpts()
	troupe := core.Troupe{ID: 0xfa}
	var rts []*core.Runtime
	defer func() {
		for _, rt := range rts {
			rt.Close()
		}
	}()
	for i := 0; i < 3; i++ {
		ep, err := net.Listen(net.NewHost(), 0)
		if err != nil {
			return "", err
		}
		rt := core.NewRuntime(ep, opts)
		rts = append(rts, rt)
		addr := rt.Export(echoMod{}, core.ExportOptions{})
		rt.SetTroupeID(addr.Module, troupe.ID)
		troupe.Members = append(troupe.Members, addr)
	}
	// Slow down every link to the third member.
	slow := troupe.Members[2].Addr.Host
	for _, m := range troupe.Members[:2] {
		net.SetLinkBetween(slow, m.Addr.Host, netsim.LinkConfig{MinDelay: 20 * time.Millisecond, MaxDelay: 22 * time.Millisecond})
	}

	ep, err := net.Listen(net.NewHost(), 0)
	if err != nil {
		return "", err
	}
	client := core.NewRuntime(ep, opts)
	rts = append(rts, client)
	net.SetLinkBetween(slow, client.Addr().Host, netsim.LinkConfig{MinDelay: 20 * time.Millisecond, MaxDelay: 22 * time.Millisecond})

	measure := func(co core.CallOptions) (float64, error) {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := client.Call(context.Background(), troupe, 1, []byte("x"), co); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start).Microseconds()) / 1000 / float64(iters), nil
	}
	unan, err := measure(core.CallOptions{})
	if err != nil {
		return "", err
	}
	fc, err := measure(core.CallOptions{Collator: collate.FirstCome})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("§4.3.4 ablation (native) — troupe of 3 with one slow member (20 ms wire)\n")
	fmt.Fprintf(&b, "unanimous wait:  %7.2f ms/call (paced by the slowest member)\n", unan)
	fmt.Fprintf(&b, "first-come wait: %7.2f ms/call (paced by the fastest member)\n", fc)
	fmt.Fprintf(&b, "speedup: %.1f× — the latency cost of error detection\n", unan/fc)
	return b.String(), nil
}

// RetransmitAblation measures design choice 3 of DESIGN.md: §4.2.4's
// two retransmission strategies for multi-segment messages under loss
// — resend only the first unacknowledged segment (Circus default,
// minimal traffic) versus resend all unacknowledged segments (faster
// recovery on lossy links, more duplicates).
func RetransmitAblation(seed int64, iters int) (string, error) {
	var b strings.Builder
	b.WriteString("§4.2.4 ablation (native) — retransmission strategy, 8-segment messages\n")
	fmt.Fprintf(&b, "%-10s %18s %18s %20s %20s\n", "loss", "first-only ms/msg", "all-unacked ms/msg",
		"first retrans/msg", "all retrans/msg")
	msg := make([]byte, 8*1400)
	for _, loss := range []float64{0.05, 0.2, 0.4} {
		var ms [2]float64
		var rt [2]float64
		for mode := 0; mode < 2; mode++ {
			net := netsim.New(seed + int64(loss*100))
			net.SetLink(netsim.LinkConfig{LossRate: loss})
			epA, err := net.Listen(net.NewHost(), 0)
			if err != nil {
				return "", err
			}
			epB, err := net.Listen(net.NewHost(), 0)
			if err != nil {
				return "", err
			}
			opts := pairedmsg.Options{
				RetransmitInterval: 15 * time.Millisecond,
				MaxRetries:         200,
				Trace:              Trace,
			}
			if mode == 1 {
				opts.Strategy = pairedmsg.RetransmitAll
			}
			sender, receiver := pairedmsg.New(epA, opts), pairedmsg.New(epB, opts)
			drain := make(chan struct{})
			go func() {
				for range receiver.Incoming() {
				}
				close(drain)
			}()
			start := time.Now()
			for i := 0; i < iters; i++ {
				cn := sender.NextCallNum(epB.Addr())
				if err := sender.Send(context.Background(), epB.Addr(), pairedmsg.Call, cn, msg); err != nil {
					sender.Close()
					receiver.Close()
					return "", fmt.Errorf("loss %.2f mode %d: %w", loss, mode, err)
				}
			}
			ms[mode] = float64(time.Since(start).Microseconds()) / 1000 / float64(iters)
			rt[mode] = float64(sender.Stats().Retransmits) / float64(iters)
			sender.Close()
			receiver.Close()
			<-drain
		}
		fmt.Fprintf(&b, "%-10.2f %18.1f %18.1f %20.1f %20.1f\n", loss, ms[0], ms[1], rt[0], rt[1])
	}
	b.WriteString("shape: at low loss the strategies tie; as loss grows, resending all\n")
	b.WriteString("unacknowledged segments recovers faster at the cost of extra traffic —\n")
	b.WriteString("§4.2.4's \"depending on the reliability characteristics of the network\".\n")
	return b.String(), nil
}
