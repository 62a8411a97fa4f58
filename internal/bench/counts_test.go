package bench

import (
	"fmt"
	"testing"
	"time"
)

// TestCallCounts pins the two per-call costs of a replicated echo call
// that are exact, so no timing noise can hide a regression in them:
// allocations and datagrams. Allocations are measured the way
// `go test -bench NativeReplicatedCall` measures them (a serial caller
// on an instant netsim, under testing.Benchmark): 49 at degree 3 and
// 23 at degree 1, three above the 46 and 20 read once member legs
// stopped being goroutines (57 and 27 before). A
// serial degree-n call is n calls and n returns, acks implicit: 6.00
// datagrams at degree 3. Sixteen callers over a 1 ms wire share
// bundles and acks: 3.28 when the gate was set, 9.00 before PR 5.
func TestCallCounts(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations and slows the wire")
	}
	payload := []byte("0123456789abcdef")
	for _, tc := range []struct {
		degree    int
		maxAllocs int64
	}{{1, 23}, {3, 49}} {
		t.Run(fmt.Sprintf("degree=%d", tc.degree), func(t *testing.T) {
			c, err := NewCluster(int64(tc.degree), tc.degree, 0)
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
				for i := 0; i < b.N; i++ {
					if callErr = c.Call(payload); callErr != nil {
						b.FailNow()
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(c.Net.Stats().Datagrams)/float64(b.N), "datagrams/op")
			})
			if callErr != nil {
				t.Fatal(callErr)
			}
			allocs, dgrams := r.AllocsPerOp(), r.Extra["datagrams/op"]
			t.Logf("%d calls: %d allocs/call, %.3f datagrams/call", r.N, allocs, dgrams)
			if allocs > tc.maxAllocs {
				t.Errorf("%d allocs per call, budget %d", allocs, tc.maxAllocs)
			}
			if want := float64(2 * tc.degree); dgrams < want || dgrams > want+0.05 {
				t.Errorf("%.3f datagrams per call, want %.2f to %.2f", dgrams, want, want+0.05)
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
