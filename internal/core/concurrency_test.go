package core

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"circus/internal/trace/check"
)

// TestConcurrentCallersConformance drives 16 concurrent caller
// goroutines through one client runtime against a degree-3 troupe and
// then replays the full trace through the protocol conformance
// checker. It pins the properties the sharded message layer and the
// parallel dispatcher must preserve under contention: per-sender
// monotone call numbers, at-most-once execution at every member, and
// correct replies for every caller. Run with -race; must stay stable
// at -count=5.
func TestConcurrentCallersConformance(t *testing.T) {
	c, rec := newClusterTraced(t, 41, 3, ExportOptions{})

	const callers, perCaller = 16, 4
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				arg := []byte{byte(g), byte(i)}
				got, err := c.client.Call(context.Background(), c.troupe, 1, arg, CallOptions{})
				if err != nil {
					errs <- fmt.Errorf("caller %d call %d: %v", g, i, err)
					return
				}
				if !bytes.Equal(got, arg) {
					errs <- fmt.Errorf("caller %d call %d echoed %v, want %v", g, i, got, arg)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// At-most-once (and in fact exactly-once): every member ran every
	// call exactly one time, with no cross-caller duplication.
	want := int64(3 * callers * perCaller)
	if got := c.totalExecs(); got != want {
		t.Fatalf("total executions = %d, want %d", got, want)
	}

	vs := check.Check(rec.Events(), check.Config{
		RetransmitInterval: fastMsgOpts().RetransmitInterval,
	})
	if len(vs) != 0 {
		t.Fatalf("conformance violations under 16-caller load:\n%v", check.Strings(vs))
	}
}
