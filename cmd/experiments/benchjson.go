package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"circus/internal/bench"
	"circus/internal/meshbench"
	"circus/internal/netsim"
	"circus/internal/pairedmsg"
	"circus/internal/wire"
)

// benchResult is one benchmark measurement in BENCH_<n>.json, the
// machine-readable counterpart of `go test -bench` for CI trend
// tracking.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Extra carries benchmark-reported metrics beyond the standard
	// three — the throughput suite records "calls/s" and
	// "datagrams/op" here.
	Extra map[string]float64 `json:"extra,omitempty"`
}

type benchDoc struct {
	Go         string        `json:"go"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	MaxDegree  int           `json:"max_degree"`
	Benchmarks []benchResult `json:"benchmarks"`
}

func record(name string, r testing.BenchmarkResult) benchResult {
	res := benchResult{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
	if len(r.Extra) > 0 {
		res.Extra = make(map[string]float64, len(r.Extra))
		for k, v := range r.Extra {
			res.Extra[k] = v
		}
	}
	return res
}

type benchRec struct {
	Name  string
	Count uint32
	Tags  []string
	Data  []byte
}

// writeBenchJSON measures the hot-path benchmarks — wire codec,
// paired message exchange, and the native replicated call at degrees
// 1..maxDegree — and writes them to BENCH_<maxDegree>.json in the
// current directory.
func writeBenchJSON(maxDegree int, seed int64) (string, error) {
	doc := benchDoc{
		Go:        runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		MaxDegree: maxDegree,
	}

	var v any = benchRec{Name: "troupe", Count: 3, Tags: []string{"a", "b"}, Data: make([]byte, 64)}
	doc.Benchmarks = append(doc.Benchmarks, record("Marshal", testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := wire.Marshal(v); err != nil {
				b.Fatal(err)
			}
		}
	})))

	data, err := wire.Marshal(v)
	if err != nil {
		return "", err
	}
	var out benchRec
	doc.Benchmarks = append(doc.Benchmarks, record("Unmarshal", testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := wire.Unmarshal(data, &out); err != nil {
				b.Fatal(err)
			}
		}
	})))

	if r, err := benchPairedExchange(seed); err != nil {
		return "", err
	} else {
		doc.Benchmarks = append(doc.Benchmarks, r)
	}

	for n := 1; n <= maxDegree; n++ {
		c, err := bench.NewCluster(seed+int64(n), n, 0)
		if err != nil {
			return "", err
		}
		payload := []byte("0123456789abcdef")
		if err := c.Call(payload); err != nil {
			c.Close()
			return "", err
		}
		r := testing.Benchmark(func(b *testing.B) {
			c.Net.ResetStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Call(payload); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(c.Net.Stats().Datagrams)/float64(b.N), "datagrams/op")
		})
		c.Close()
		doc.Benchmarks = append(doc.Benchmarks,
			record(fmt.Sprintf("NativeReplicatedCall/degree=%d", n), r))
	}

	// Concurrent-call throughput scaling (BenchmarkThroughput): closed-
	// loop callers against echo troupes over a 1 ms netsim wire. The
	// "calls/s" extra metric is the scaling curve; ns_per_op is
	// wall-time per call at that concurrency.
	for _, degree := range []int{1, 3} {
		for _, callers := range []int{1, 4, 16, 64} {
			c, err := bench.NewCluster(seed+int64(100*degree+callers), degree, time.Millisecond)
			if err != nil {
				return "", err
			}
			if err := c.Call(bench.ThroughputPayload); err != nil {
				c.Close()
				return "", err
			}
			callers := callers
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				c.Net.ResetStats()
				b.ResetTimer()
				if err := c.ConcurrentCalls(callers, b.N); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "calls/s")
				b.ReportMetric(float64(c.Net.Stats().Datagrams)/float64(b.N), "datagrams/op")
			})
			c.Close()
			doc.Benchmarks = append(doc.Benchmarks,
				record(fmt.Sprintf("Throughput/callers=%d/degree=%d", callers, degree), r))
		}
	}

	// Durable-member throughput (BenchmarkThroughputDurable): degree-3
	// troupes whose members append-fsync every call to a WAL on an
	// in-memory disk with a 50 µs fsync. The "fsyncs/op" extra metric
	// shows the group commit: ≈3 (one per member) for a single caller,
	// falling well below the degree as concurrent callers share rounds.
	for _, callers := range []int{1, 16, 64} {
		c, err := bench.NewDurableCluster(seed+int64(200+callers), 3, time.Millisecond, 50*time.Microsecond)
		if err != nil {
			return "", err
		}
		if err := c.Call(bench.ThroughputPayload); err != nil {
			c.Close()
			return "", err
		}
		callers := callers
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			c.Net.ResetStats()
			base := c.Fsyncs()
			b.ResetTimer()
			if err := c.ConcurrentCalls(callers, b.N); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "calls/s")
			b.ReportMetric(float64(c.Fsyncs()-base)/float64(b.N), "fsyncs/op")
		})
		c.Close()
		doc.Benchmarks = append(doc.Benchmarks,
			record(fmt.Sprintf("ThroughputDurable/callers=%d/degree=3", callers), r))
	}

	// Kernel-transport shard scaling: closed-loop calls/s at 16 callers
	// against a degree-3 echo troupe over real sharded loopback UDP —
	// no netsim, so datagrams ride recvmmsg drain loops, pooled
	// buffers and sendmmsg. The shard sweep (1/2/4/NumCPU) is the
	// scaling table; "calls/s" and "shards" land in extra.
	for _, shards := range bench.TransportShardCounts() {
		c, err := bench.NewUDPCluster(3, shards)
		if err != nil {
			return "", err
		}
		if err := c.Call(bench.ThroughputPayload); err != nil {
			c.Close()
			return "", err
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			if err := c.ConcurrentCalls(16, b.N); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "calls/s")
		})
		c.Close()
		res := record(fmt.Sprintf("TransportUDP/shards=%d/callers=16/degree=3", shards), r)
		if res.Extra == nil {
			res.Extra = make(map[string]float64, 1)
		}
		res.Extra["shards"] = float64(shards)
		doc.Benchmarks = append(doc.Benchmarks, res)
	}

	// Partitioned-mesh scale-out: closed-loop keyed reads/s through
	// routing mesh clients against 1/2/4/8 consistent-hash shards of
	// degree-3 guarded stores, at the network-bound operating point of
	// meshbench.MeshScaling (1 Mb/s member links, 128 B values, 32 callers
	// over 16 client runtimes). The committed curve is the scale-out
	// gate: the 4-shard "calls/s" must stay ≥ 3× the 1-shard figure.
	for _, shards := range meshbench.MeshShardCounts() {
		c, err := meshbench.NewMeshCluster(seed+int64(300+shards), shards, 3, 16)
		if err != nil {
			return "", err
		}
		if err := c.Preload(meshbench.MeshKeyspace); err != nil {
			c.Close()
			return "", err
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			if err := c.ConcurrentGets(32, b.N, meshbench.MeshKeyspace); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "calls/s")
		})
		c.Close()
		res := record(fmt.Sprintf("MeshScale/shards=%d/degree=3/callers=32", shards), r)
		if res.Extra == nil {
			res.Extra = make(map[string]float64, 2)
		}
		res.Extra["shards"] = float64(shards)
		res.Extra["read_frac"] = 1
		doc.Benchmarks = append(doc.Benchmarks, res)
	}

	// Read-path scale-out: single-shard degree-3 keyed reads at 16
	// closed-loop callers, once over the strict quorum read (every
	// member serializes the value onto its downlink) and once over the
	// spread read (one member per read, position-token checked). The
	// committed pair is the read-scaling gate: the spread "calls/s"
	// must stay ≥ 2× the quorum figure, and -read-smoke re-measures
	// both against it.
	for _, mode := range []string{"quorum", "spread"} {
		c, err := meshbench.NewMeshCluster(seed+int64(500), 1, 3, 16)
		if err != nil {
			return "", err
		}
		if err := c.Preload(meshbench.MeshKeyspace); err != nil {
			c.Close()
			return "", err
		}
		w := meshbench.Workload{ReadFrac: 1, Spread: mode == "spread", Seed: seed}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			if err := c.ConcurrentOps(16, b.N, meshbench.MeshKeyspace, w); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "calls/s")
		})
		c.Close()
		res := record(fmt.Sprintf("MeshRead/path=%s/shards=1/degree=3/callers=16", mode), r)
		if res.Extra == nil {
			res.Extra = make(map[string]float64, 1)
		}
		res.Extra["read_frac"] = 1
		doc.Benchmarks = append(doc.Benchmarks, res)
	}

	// The same mesh over real sharded loopback UDP (2 SO_REUSEPORT
	// shards per endpoint): no simulated bandwidth cap, so this row
	// tracks routing-path dispatch cost rather than wire scale-out.
	for _, shards := range []int{1, 4} {
		c, err := meshbench.NewMeshClusterUDP(seed+int64(400+shards), shards, 3, 8, 2)
		if err != nil {
			return "", err
		}
		if err := c.Preload(meshbench.MeshKeyspace); err != nil {
			c.Close()
			return "", err
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			if err := c.ConcurrentGets(32, b.N, meshbench.MeshKeyspace); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "calls/s")
		})
		c.Close()
		res := record(fmt.Sprintf("MeshScaleUDP/shards=%d/degree=3/callers=32", shards), r)
		if res.Extra == nil {
			res.Extra = make(map[string]float64, 1)
		}
		res.Extra["shards"] = float64(shards)
		doc.Benchmarks = append(doc.Benchmarks, res)
	}

	path := fmt.Sprintf("BENCH_%d.json", maxDegree)
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(buf, '\n'), 0o644)
}

// benchPairedExchange measures one reliable call/return exchange at the
// paired message layer, mirroring BenchmarkPairedMessageExchange.
func benchPairedExchange(seed int64) (benchResult, error) {
	net := netsim.New(seed)
	epA, err := net.Listen(net.NewHost(), 0)
	if err != nil {
		return benchResult{}, err
	}
	epB, err := net.Listen(net.NewHost(), 0)
	if err != nil {
		return benchResult{}, err
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
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cn := ca.NextCallNum(epB.Addr())
			if err := ca.Send(context.Background(), epB.Addr(), pairedmsg.Call, cn, payload); err != nil {
				b.Fatal(err)
			}
			m := <-ca.Incoming()
			if m.CallNum != cn {
				b.Fatal("mismatched return")
			}
		}
	})
	return record("PairedMessageExchange", r), nil
}
