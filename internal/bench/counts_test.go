package bench

import (
	"fmt"
	"runtime/metrics"
	"testing"
	"time"
)

// TestCallCounts pins the per-call costs of a replicated echo call
// that are counts, so no timing noise can hide a regression in them:
// allocations, datagrams and goroutine wake-ups. Allocations are
// measured the way `go test -bench NativeReplicatedCall` measures them
// (a serial caller on an instant netsim, under testing.Benchmark): 6
// at degree 3 and 5 at degree 1, above the 4 and 4 read once a call
// was collated where its returns land and the message layer reused its
// transfers (the call header, the thread, the one result copy, and a
// quarter of a call path), 18 and 10 before that, once server call
// records and return messages lived in core's call table, 39 and 17
// before that with hand-written call and return codecs, 46 and 20
// with the reflective codec, 57 and 27 while member legs were
// goroutines. The multicast call at degree 3 reads 9 (21 before
// the call state held its group and transfers): its transfers are
// handed to the caller, so they are not reused. A serial degree-n call
// is n calls and n returns, acks implicit: 6.00 datagrams at degree 3;
// a multicast call's returns wait for standalone acks, delayed and
// cumulative, which add about 0.02. Wake-ups count every hand-off
// between goroutines: 4.01 at degree 1 and 9.97 at degree 3 once the
// caller is woken once per call, on the decision, 4.03 and 11.8 while
// it was woken per member and the message layer handed a return
// straight to its member leg, 5.04 and 15.0 while a dispatch worker
// carried returns and the worker that readies a call ran it, 6.05 and
// 18.0 with an execute pool after the workers, 8.05 and 23.9 with a
// fan-out goroutine before them as well. Sixteen callers over a 1 ms
// wire share bundles and acks: 3.28 when the gate was set, 9.00 with
// neither.
func TestCallCounts(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations and slows the wire")
	}
	payload := []byte("0123456789abcdef")
	for _, tc := range []struct {
		degree     int
		multicast  bool
		maxAllocs  int64
		maxWakeups float64
		dgrams     [2]float64 // per call, least and most
	}{
		{1, false, 5, 4.2, [2]float64{2, 2.05}},
		{3, false, 6, 10.2, [2]float64{6, 6.05}},
		{3, true, 10, 10.2, [2]float64{6, 6.1}},
	} {
		name := fmt.Sprintf("degree=%d", tc.degree)
		if tc.multicast {
			name += "/multicast"
		}
		t.Run(name, func(t *testing.T) {
			c, err := NewClusterMode(int64(tc.degree), tc.degree, 0, tc.multicast)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.Call(payload); err != nil {
				t.Fatal(err)
			}
			var callErr error
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				c.Net.ResetStats()
				b.ResetTimer()
				wakeups := schedules()
				for i := 0; i < b.N; i++ {
					if callErr = c.Call(payload); callErr != nil {
						b.FailNow()
					}
				}
				wakeups = schedules() - wakeups
				b.StopTimer()
				b.ReportMetric(float64(c.Net.Stats().Datagrams)/float64(b.N), "datagrams/op")
				b.ReportMetric(float64(wakeups)/float64(b.N), "wakeups/op")
			})
			if callErr != nil {
				t.Fatal(callErr)
			}
			allocs, dgrams, wakeups := r.AllocsPerOp(), r.Extra["datagrams/op"], r.Extra["wakeups/op"]
			t.Logf("%d calls: %d allocs/call, %.3f datagrams/call, %.2f wake-ups/call", r.N, allocs, dgrams, wakeups)
			if allocs > tc.maxAllocs {
				t.Errorf("%d allocs per call, budget %d", allocs, tc.maxAllocs)
			}
			if wakeups > tc.maxWakeups {
				t.Errorf("%.2f goroutine wake-ups per call, budget %.1f", wakeups, tc.maxWakeups)
			}
			if dgrams < tc.dgrams[0] || dgrams > tc.dgrams[1] {
				t.Errorf("%.3f datagrams per call, want %.2f to %.2f", dgrams, tc.dgrams[0], tc.dgrams[1])
			}
		})
	}

	t.Run("degree=3/callers=16", func(t *testing.T) {
		const callers, calls = 16, 1600
		c, err := NewCluster(316, 3, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Call(payload); err != nil {
			t.Fatal(err)
		}
		c.Net.ResetStats()
		if err := c.ConcurrentCalls(callers, calls); err != nil {
			t.Fatal(err)
		}
		dgrams := float64(c.Net.Stats().Datagrams) / calls
		t.Logf("%d calls: %.3f datagrams/call", calls, dgrams)
		if dgrams > 4.0 {
			t.Errorf("%.3f datagrams per call with %d callers, want <= 4.00", dgrams, callers)
		}
	})
}

// schedules estimates how many times, so far, a goroutine was made to
// run after waiting in a run queue: every wake-up, and every hand-off
// from one goroutine to another. The runtime records the scheduling
// latency of one in eight of each goroutine's schedules in
// /sched/latencies:seconds, so its total count times eight is the
// estimate.
func schedules() uint64 {
	s := []metrics.Sample{{Name: "/sched/latencies:seconds"}}
	metrics.Read(s)
	var n uint64
	for _, c := range s[0].Value.Float64Histogram().Counts {
		n += c
	}
	return 8 * n
}

// TestMulticastSerialCallsNeverPaced: a serial caller's multicast call
// messages carry no acknowledgments (one datagram serves every member),
// so each member's returns wait for a standalone ack and pile up in its
// session. Those returns only await their acks; no other call is in
// progress, so no return is about to follow, and holding a reply for
// company would only wait out the coalesce timer, late on an idle
// runtime. It did, on every call once six returns had piled up: the
// serial degree-3 multicast call took about 800 µs against 18 µs
// unicast.
func TestMulticastSerialCallsNeverPaced(t *testing.T) {
	const calls = 500
	c, err := NewClusterMode(403, 3, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := []byte("0123456789abcdef")
	for i := 0; i < calls; i++ {
		if err := c.Call(payload); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	var paced int64
	for _, s := range c.servers {
		paced += s.MessageStats().Paced
	}
	if paced != 0 {
		t.Errorf("%d of %d serial multicast calls' returns were held for company", paced, 3*calls)
	}
}
