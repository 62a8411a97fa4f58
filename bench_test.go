package circus

// One testing.B benchmark per table and figure of the dissertation's
// evaluation (see DESIGN.md's experiment index). The formatted
// paper-vs-measured tables are produced by `go run ./cmd/experiments`
// and recorded in EXPERIMENTS.md; the benchmarks here measure the
// underlying operations so `go test -bench` tracks them over time.

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"circus/internal/avail"
	"circus/internal/bench"
	"circus/internal/collate"
	"circus/internal/core"
	"circus/internal/netsim"
	"circus/internal/pairedmsg"
	"circus/internal/probmodel"
	"circus/internal/txn"
	"circus/internal/vaxsim"
	"circus/internal/wire"
)

// BenchmarkTable41 regenerates Table 4.1 (performance of UDP, TCP and
// Circus in the 1985 cost model) once per iteration.
func BenchmarkTable41(b *testing.B) {
	m := vaxsim.Default1985()
	for i := 0; i < b.N; i++ {
		rows := m.Table41()
		if len(rows) != 7 {
			b.Fatal("table shape")
		}
	}
}

// BenchmarkTable42 exercises the cost-model constants lookup behind
// Table 4.2.
func BenchmarkTable42(b *testing.B) {
	m := vaxsim.Default1985()
	var sum float64
	for i := 0; i < b.N; i++ {
		for _, n := range vaxsim.SyscallNames() {
			sum += m.Cost[n]
		}
	}
	_ = sum
}

// BenchmarkTable43 regenerates the Table 4.3 execution profile.
func BenchmarkTable43(b *testing.B) {
	m := vaxsim.Default1985()
	for i := 0; i < b.N; i++ {
		rows := m.Table43()
		if rows[0].Percent[vaxsim.Sendmsg] <= 0 {
			b.Fatal("profile shape")
		}
	}
}

// BenchmarkFigure48 sweeps the Figure 4.8 series (call time vs degree
// of replication, unicast model).
func BenchmarkFigure48(b *testing.B) {
	m := vaxsim.Default1985()
	for i := 0; i < b.N; i++ {
		for n := 1; n <= 8; n++ {
			m.CircusCall(n)
		}
	}
}

// BenchmarkMulticastAnalysis samples the §4.4.2 multicast model
// (max of n exponential round trips, Theorem 4.3).
func BenchmarkMulticastAnalysis(b *testing.B) {
	m := vaxsim.Default1985()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		m.CircusCallMulticast(5, rng)
	}
}

// BenchmarkTroupeCommitDeadlock samples Eq 5.1 rounds (k=3
// conflicting transactions, troupe of 3).
func BenchmarkTroupeCommitDeadlock(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	dead := 0
	for i := 0; i < b.N; i++ {
		if txn.SimulateCommitRound(3, 3, rng) {
			dead++
		}
	}
	if b.N > 10000 {
		got := float64(dead) / float64(b.N)
		want := probmodel.DeadlockProbability(3, 3)
		if got < want-0.05 || got > want+0.05 {
			b.Fatalf("deadlock rate %.3f, analytic %.3f", got, want)
		}
	}
}

// BenchmarkOrderedBroadcast measures the Figure 5.1 protocol at the
// queue level: one propose/accept round per iteration.
func BenchmarkOrderedBroadcast(b *testing.B) {
	delivered := 0
	q := txn.NewQueue(func(string, []byte) { delivered++ })
	msg := []byte("payload")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := string(rune('a'+i%26)) + "-" + itoa(i)
		t := q.Propose(id, msg)
		q.Accept(id, t)
	}
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkAvailability runs the Figure 6.3 birth–death Monte-Carlo
// model.
func BenchmarkAvailability(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		res := avail.Simulate(3, 1, 9, 1000, rng)
		if res.Availability <= 0 {
			b.Fatal("simulation shape")
		}
	}
}

// BenchmarkNativeReplicatedCall measures this implementation's
// replicated echo call end to end over the in-memory network, per
// degree of replication — the native analogue of Figure 4.8.
func BenchmarkNativeReplicatedCall(b *testing.B) {
	for _, n := range []int{1, 2, 3, 5} {
		b.Run("degree="+itoa(n), func(b *testing.B) {
			c, err := bench.NewCluster(int64(n), n, 0)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			payload := []byte("0123456789abcdef")
			if err := c.Call(payload); err != nil {
				b.Fatal(err)
			}
			c.Net.ResetStats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Call(payload); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(c.Net.Stats().Datagrams)/float64(b.N), "datagrams/op")
		})
	}
}

// BenchmarkNativeMulticastCall measures the multicast implementation
// of the one-to-many call (§4.3.3) on the same workload.
func BenchmarkNativeMulticastCall(b *testing.B) {
	for _, n := range []int{2, 3, 5} {
		b.Run("degree="+itoa(n), func(b *testing.B) {
			c, err := bench.NewClusterMode(int64(n)+400, n, 0, true)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			payload := []byte("0123456789abcdef")
			if err := c.Call(payload); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Call(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNativeFirstComeCall measures the first-come collator on the
// same workload (ablation, §4.3.4).
func BenchmarkNativeFirstComeCall(b *testing.B) {
	c, err := bench.NewCluster(77, 3, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	payload := []byte("x")
	opts := core.CallOptions{Collator: collate.FirstCome}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Client.Call(context.Background(), c.Troupe, 1, payload, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPairedMessageExchange measures one reliable call/return
// message exchange at the paired message layer (§4.2) — the modern
// equivalent of the UDP echo row of Table 4.1.
func BenchmarkPairedMessageExchange(b *testing.B) {
	net := netsim.New(1)
	epA, err := net.Listen(net.NewHost(), 0)
	if err != nil {
		b.Fatal(err)
	}
	epB, err := net.Listen(net.NewHost(), 0)
	if err != nil {
		b.Fatal(err)
	}
	opts := pairedmsg.Options{RetransmitInterval: 50 * time.Millisecond}
	ca, cb := pairedmsg.New(epA, opts), pairedmsg.New(epB, opts)
	defer ca.Close()
	defer cb.Close()

	go func() {
		for m := range cb.Incoming() {
			if m.Type == pairedmsg.Call {
				cb.StartSend(m.From, pairedmsg.Return, m.CallNum, m.Data)
			}
		}
	}()

	payload := []byte("0123456789abcdef")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cn := ca.NextCallNum(epB.Addr())
		if err := ca.Send(context.Background(), epB.Addr(), pairedmsg.Call, cn, payload); err != nil {
			b.Fatal(err)
		}
		m := <-ca.Incoming()
		if m.CallNum != cn {
			// Multiple returns can interleave only if the benchmark
			// pipelines, which it does not.
			b.Fatal("mismatched return")
		}
	}
}

// BenchmarkMarshal measures externalization of a typical record
// (§7.1's stub-compiler hot path).
func BenchmarkMarshal(b *testing.B) {
	type rec struct {
		Name  string
		Count uint32
		Tags  []string
		Data  []byte
	}
	// Box the record once: the steady-state call path holds its header
	// in a long-lived variable, so per-iteration interface conversion
	// would measure the benchmark harness, not the codec.
	var v any = rec{Name: "troupe", Count: 3, Tags: []string{"a", "b"}, Data: make([]byte, 64)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Marshal(v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnmarshal measures internalization of the same record.
func BenchmarkUnmarshal(b *testing.B) {
	type rec struct {
		Name  string
		Count uint32
		Tags  []string
		Data  []byte
	}
	data, err := wire.Marshal(rec{Name: "troupe", Count: 3, Tags: []string{"a", "b"}, Data: make([]byte, 64)})
	if err != nil {
		b.Fatal(err)
	}
	// Reuse the target across iterations: the decoder keeps existing
	// backing store when capacity suffices, which is the steady state
	// for a long-lived reply buffer.
	var out rec
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := wire.Unmarshal(data, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransactionCommit measures a read-modify-write lightweight
// transaction (§5.2).
func BenchmarkTransactionCommit(b *testing.B) {
	s := txn.NewStore()
	seed := s.Begin()
	seed.Set("k", []byte{0})
	seed.Commit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := s.Begin()
		v, err := t.Get("k")
		if err != nil {
			b.Fatal(err)
		}
		t.Set("k", []byte{v[0] + 1})
		if err := t.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}
