package circus

// Monitor overhead benchmarks: the online runtime monitor attached to
// the native benchmark clusters in its three configurations — off (a
// nil sink, the disabled fast path), 1-in-64 identity sampling, and
// full observation. The monitor verifies the live stream while the
// benchmark runs; any violation fails the benchmark, so these double
// as always-on conformance runs. The companion test pins the
// contract that the disabled configuration adds exactly nothing.

import (
	"runtime"
	"testing"
	"time"

	"circus/internal/bench"
	"circus/internal/trace"
	"circus/internal/trace/monitor"
)

// monitorModes are the three configurations the overhead sweep runs.
var monitorModes = []struct {
	name string
	mon  func() *monitor.Monitor
}{
	{"off", func() *monitor.Monitor { return nil }},
	{"sampled64", func() *monitor.Monitor { return monitor.New(monitor.Options{SampleRate: 64}) }},
	{"full", func() *monitor.Monitor { return monitor.New(monitor.Options{}) }},
}

// monitorSink narrows a monitor to the kinds its rules read, or
// composes to the nil (disabled) sink when the monitor is off.
func monitorSink(m *monitor.Monitor) trace.Sink {
	if m == nil {
		return nil
	}
	return trace.FilterKinds(m, m.TraceKinds())
}

// finishMonitored fails the benchmark if the live monitor caught a
// protocol violation, and reports what it watched.
func finishMonitored(b *testing.B, m *monitor.Monitor) {
	if m == nil {
		return
	}
	st := m.Stats()
	if st.Violations != 0 {
		b.Fatalf("monitor caught %d violations during the benchmark: %v",
			st.Violations, m.Violations())
	}
	b.ReportMetric(float64(st.Sampled)/float64(b.N), "monitored-events/op")
}

// BenchmarkNativeReplicatedCallMonitored is BenchmarkNativeReplicatedCall
// (degree 3) with the monitor watching the call's full event stream.
func BenchmarkNativeReplicatedCallMonitored(b *testing.B) {
	for _, mode := range monitorModes {
		b.Run("monitor="+mode.name, func(b *testing.B) {
			m := mode.mon()
			c, err := bench.NewClusterSink(3, 3, 0, monitorSink(m))
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
			b.StopTimer()
			finishMonitored(b, m)
		})
	}
}

// BenchmarkThroughputMonitored drives 16 closed-loop callers against a
// degree-3 echo troupe over a 1 ms wire under the three monitor
// configurations — the sampled column is the always-on production
// shape.
func BenchmarkThroughputMonitored(b *testing.B) {
	const degree, callers = 3, 16
	for _, mode := range monitorModes {
		b.Run("monitor="+mode.name, func(b *testing.B) {
			m := mode.mon()
			c, err := bench.NewClusterSink(int64(100*degree+callers), degree, time.Millisecond, monitorSink(m))
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			if err := c.Call([]byte("0123456789abcdef")); err != nil {
				b.Fatal(err)
			}
			c.Net.ResetStats()
			b.ReportAllocs()
			b.ResetTimer()
			if err := c.ConcurrentCalls(callers, b.N); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "calls/s")
			b.ReportMetric(float64(c.Net.Stats().Datagrams)/float64(b.N), "datagrams/op")
			finishMonitored(b, m)
		})
	}
}

// TestMonitorDisabledAddsNoAllocs pins the zero-cost-when-off
// contract: the off configuration composes to the nil sink, so every
// emitter's EnabledFor guard short-circuits and a replicated call
// allocates exactly what it does with no tracing at all.
func TestMonitorDisabledAddsNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	if s := monitorSink(nil); s != nil {
		t.Fatal("disabled monitor must compose to the nil sink")
	}
	if s := trace.Multi(nil, monitorSink(nil)); s != nil {
		t.Fatal("sink fan-out over a disabled monitor must stay nil")
	}
	// callAllocs is the steady-state allocation cost of one call: the
	// most common malloc count over a hundred back-to-back one-call
	// windows. The windows are contiguous — one ReadMemStats ends a
	// window and starts the next — so an allocation another goroutine
	// makes after Call returns (a delayed-ack flush, say) still lands
	// in some window; a gap between separate before and after reads
	// would sometimes swallow it and report one call too cheap. The
	// mode, not the mean, because periodic maintenance (completed-
	// record expiry sweeps, pool refills) spikes a few calls per
	// hundred, and integer-dividing those spikes into a mean flips it
	// between adjacent integers run to run.
	callAllocs := func(sink trace.Sink) uint64 {
		c, err := bench.NewClusterSink(31, 3, 0, sink)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		payload := []byte("0123456789abcdef")
		if err := c.Call(payload); err != nil {
			t.Fatal(err)
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		prev := ms.Mallocs
		seen := make(map[uint64]int)
		var mode uint64
		for i := 0; i < 100; i++ {
			if err := c.Call(payload); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&ms)
			d := ms.Mallocs - prev
			prev = ms.Mallocs
			if seen[d]++; seen[d] > seen[mode] {
				mode = d
			}
		}
		return mode
	}
	base := callAllocs(nil)
	off := callAllocs(monitorSink(nil))
	if off != base {
		t.Fatalf("disabled monitor changed allocations: %d allocs/op vs %d baseline", off, base)
	}
}
