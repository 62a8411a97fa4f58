//go:build linux && (amd64 || arm64)

package udptrans

import (
	"sync/atomic"
	"testing"
	"time"

	"circus/internal/transport"
)

// TestSendBatchWarmAllocatesNothing: a batch within sendBatchMax goes
// out through pooled kernel-facing scratch, so once warm a 3-datagram
// sendmmsg allocates nothing, and its datagrams arrive.
func TestSendBatchWarmAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	a, err := Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var got atomic.Int64
	b.SetHandler(func(p transport.Packet) {
		p.Buf.Release()
		got.Add(1)
	})
	batch := []transport.Datagram{
		{To: b.Addr(), Data: []byte("one")},
		{To: b.Addr(), Data: []byte("two")},
		{To: b.Addr(), Data: []byte("three")},
	}
	send := func() {
		if err := a.SendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	send()
	for deadline := time.Now().Add(2 * time.Second); got.Load() < 3 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := got.Load(); n != 3 {
		t.Fatalf("received %d of 3 datagrams", n)
	}
	if n := testing.AllocsPerRun(100, send); n != 0 {
		t.Errorf("warm 3-datagram SendBatch: %v allocations, want 0", n)
	}
}
