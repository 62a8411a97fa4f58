package bench

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"circus/internal/core"
	"circus/internal/pairedmsg"
	"circus/internal/udptrans"
)

// udpOpts are protocol timers for real loopback UDP: the wire is fast
// and effectively lossless, so retransmission exists only as a safety
// net and the probe machinery idles.
func udpOpts() core.Options {
	return core.Options{
		Message: pairedmsg.Options{
			RetransmitInterval: 100 * time.Millisecond,
			MaxRetries:         20,
			ProbeInterval:      500 * time.Millisecond,
			ProbeMissLimit:     10,
		},
		ManyToOneTimeout: 5 * time.Second,
		Trace:            Trace,
	}
}

// NewUDPCluster builds an n-member echo troupe over real loopback UDP,
// every member (and the client) listening on the given number of
// SO_REUSEPORT sockets. Unlike NewCluster there is no netsim
// underneath — c.Net is nil and delivery is the kernel's own. This is
// the cluster the transport-scaling experiment drives: datagrams flow
// through recvmmsg drain goroutines and pooled buffers into the
// protocol, and out through sendmmsg.
func NewUDPCluster(n, shards int) (*Cluster, error) {
	opts := udpOpts()
	c := &Cluster{Troupe: core.Troupe{ID: 0xbed}}
	for i := 0; i <= n; i++ {
		ep, err := udptrans.ListenSharded(0, shards)
		if err != nil {
			for _, s := range c.servers {
				s.Close()
			}
			return nil, err
		}
		rt := core.NewRuntime(ep, opts)
		if i == n {
			c.Client = rt
			break
		}
		addr := rt.Export(echoMod{}, core.ExportOptions{})
		rt.SetTroupeID(addr.Module, c.Troupe.ID)
		c.Troupe.Members = append(c.Troupe.Members, addr)
		c.servers = append(c.servers, rt)
	}
	return c, nil
}

// UDPThroughput measures closed-loop calls/s for the given concurrent
// caller count against a degree-n echo troupe over sharded loopback
// UDP.
func UDPThroughput(shards, callers, degree, total int) (float64, error) {
	c, err := NewUDPCluster(degree, shards)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	if err := c.Call(ThroughputPayload); err != nil {
		return 0, err
	}
	start := time.Now()
	if err := c.ConcurrentCalls(callers, total); err != nil {
		return 0, err
	}
	return float64(total) / time.Since(start).Seconds(), nil
}

// TransportShardCounts is the shard sweep the transport experiment
// measures — 1, 2, 4, and NumCPU — deduplicated and sorted, so a
// 4-core runner sweeps {1, 2, 4} and a 32-core one {1, 2, 4, 32}.
func TransportShardCounts() []int {
	set := map[int]bool{1: true, 2: true, 4: true, runtime.NumCPU(): true}
	out := make([]int, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// TransportScaling sweeps calls/s at the given caller count and degree
// across SO_REUSEPORT shard counts — the calls/s-vs-shards table of
// the kernel transport tier. On a single-core box the widths tie (every
// drain loop serializes on one CPU); the sweep still verifies that
// sharded sockets deliver correctly at every width.
func TransportScaling(callers, degree, total int) (string, error) {
	var b strings.Builder
	b.WriteString("Kernel transport — closed-loop calls/s vs SO_REUSEPORT shard count\n")
	fmt.Fprintf(&b, "loopback UDP, echo troupe degree %d, %d concurrent callers, GOMAXPROCS=%d\n",
		degree, callers, runtime.GOMAXPROCS(0))
	fmt.Fprintf(&b, "%-7s %12s %9s\n", "shards", "calls/sec", "scaling")
	var base float64
	for _, shards := range TransportShardCounts() {
		cps, err := UDPThroughput(shards, callers, degree, total)
		if err != nil {
			return "", err
		}
		if base == 0 {
			base = cps
		}
		fmt.Fprintf(&b, "%-7d %12.0f %8.2fx\n", shards, cps, cps/base)
	}
	b.WriteString("shape: the kernel's 4-tuple hash spreads peers across per-socket drain\n")
	b.WriteString("loops, so on a multi-core runner calls/s climbs with shard count until\n")
	b.WriteString("dispatch saturates; one core collapses the sweep to a correctness check.\n")
	return b.String(), nil
}
