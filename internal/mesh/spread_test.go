package mesh_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"circus"
	"circus/internal/chaos"
	"circus/internal/core"
	"circus/internal/mesh"
)

// spreadClient is the fixture client with hot-key widening disabled,
// so every read follows the deterministic cold-key affinity rotation.
func spreadClient(ctx context.Context, f *fixture, seed int64) *mesh.Client {
	f.t.Helper()
	n, err := f.sim.NewNode(circus.WithBinder(f.boot))
	if err != nil {
		f.t.Fatal(err)
	}
	f.t.Cleanup(func() { n.Close() })
	c, err := mesh.NewClient(ctx, n.Runtime(), n.Binder(), "kv",
		mesh.Options{Resilient: simResilient(seed), HotKeyRate: -1})
	if err != nil {
		f.t.Fatal(err)
	}
	return c
}

// runStaleScenario drives the spread-read freshness check against a
// genuinely lagging member: preload a batch of keys on all three
// members, crash one, write more keys past it at quorum, bring it
// back, and then spread-read the preloaded keys. Once any read lands
// on an up-to-date member the client's position token passes the
// laggard's position, so every read whose rotation starts at the
// laggard must be refused (stale bounce) — or, with the planted guard
// defect, answered anyway and caught by the client's reply audit.
// Either way the returned values must be correct: the preloaded keys
// are present identically on every member, and audited-stale answers
// are discarded, never surfaced.
func runStaleScenario(t *testing.T, planted bool) mesh.ClientStats {
	t.Helper()
	if planted {
		mesh.PlantedStaleReadBug = true
		t.Cleanup(func() { mesh.PlantedStaleReadBug = false })
	}
	f := newFixture(t, 311)
	s := f.addShard("kv/s0")
	ctl := f.controller()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := ctl.Bootstrap(ctx, []string{"kv/s0"}, 0); err != nil {
		t.Fatal(err)
	}
	c := spreadClient(ctx, f, 313)

	want := make(map[string]string)
	for i := 0; i < 12; i++ {
		key, val := fmt.Sprintf("a%d", i), fmt.Sprintf("v%d", i)
		if err := put(ctx, c, key, val); err != nil {
			t.Fatalf("preload %s: %v", key, err)
		}
		want[key] = val
	}
	// Member 1 sleeps through four more writes; the survivors ack them
	// and move four positions ahead.
	f.sim.Crash(s.nodes[1])
	for i := 0; i < 4; i++ {
		if err := put(ctx, c, fmt.Sprintf("b%d", i), "behind"); err != nil {
			t.Fatalf("quorum write b%d: %v", i, err)
		}
	}
	f.sim.Restart(s.nodes[1])
	// Let the write-time suspicion of the crashed member expire so the
	// read rotation includes it again.
	time.Sleep(600 * time.Millisecond)

	for round := 0; round < 2; round++ {
		for i := 0; i < 12; i++ {
			key := fmt.Sprintf("a%d", i)
			out, err := c.SpreadRead(ctx, key, chaos.ProcGet, []byte(key),
				core.CallOptions{Timeout: 2 * time.Second})
			if err != nil {
				t.Fatalf("round %d spread read %s: %v", round, key, err)
			}
			if string(out) != want[key] {
				t.Fatalf("round %d spread read %s: got %q, want %q", round, key, out, want[key])
			}
		}
	}
	return c.Stats()
}

// TestSpreadReadStaleBounce: a healthy guard behind the client's token
// refuses the read, and the client bounces to a fresher member — it
// never records a member answering below the token.
func TestSpreadReadStaleBounce(t *testing.T) {
	st := runStaleScenario(t, false)
	if st.StaleBounces == 0 {
		t.Fatalf("lagging member never bounced a spread read: stats %+v", st)
	}
	if st.StaleServes != 0 {
		t.Fatalf("healthy guards must refuse, not answer, below the token: stats %+v", st)
	}
	if st.SpreadReads == 0 {
		t.Fatalf("no spread reads recorded: stats %+v", st)
	}
}

// TestSpreadReadPlantedBugCaught plants the guard defect that answers
// below the demanded token. The client's reply audit must count every
// such answer (the campaign turns that counter into a violation) while
// still discarding the stale data — runStaleScenario asserts all
// returned values are correct.
func TestSpreadReadPlantedBugCaught(t *testing.T) {
	st := runStaleScenario(t, true)
	if st.StaleServes == 0 {
		t.Fatalf("planted stale-read bug went undetected: stats %+v", st)
	}
}

// TestSplitRecoversByPull: a client learns a split's epochs only by
// pulling the map after a refusal, so across a live split the serial
// client pays at most one wrong-shard redirect and one refetch beyond
// the fetch NewClient makes, and every key written before and after
// the split reads back.
func TestSplitRecoversByPull(t *testing.T) {
	f := newFixture(t, 321)
	f.addShard("kv/s0")
	s1 := f.addShard("kv/s1")
	ctl := f.controller()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	boot, err := ctl.Bootstrap(ctx, []string{"kv/s0"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The spare must know the map so its guards refuse keyed traffic
	// until the split admits them.
	for _, g := range s1.guards {
		g.Install(boot)
	}
	c := spreadClient(ctx, f, 322)

	keys := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			key, val := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
			if err := put(ctx, c, key, val); err != nil {
				t.Fatalf("put %s: %v", key, err)
			}
			got, err := get(ctx, c, key)
			if err != nil {
				t.Fatalf("get %s: %v", key, err)
			}
			if got != val {
				t.Fatalf("get %s: got %q, want %q", key, got, val)
			}
		}
	}
	keys(0, 24)
	if st := c.Stats(); st.Redirects != 0 || st.Refreshes != 1 {
		t.Fatalf("pre-split traffic needed routing recovery: stats %+v", st)
	}
	if err := ctl.Split(ctx, "kv/s1"); err != nil {
		t.Fatal(err)
	}
	// The client still holds the pre-split map: the first key that
	// moved is refused by its old owner, and one refetch installs the
	// final epoch.
	keys(24, 48)
	for i := 0; i < 24; i++ {
		key := fmt.Sprintf("k%d", i)
		got, err := get(ctx, c, key)
		if err != nil {
			t.Fatalf("post-split get %s: %v", key, err)
		}
		if got != fmt.Sprintf("v%d", i) {
			t.Fatalf("post-split get %s: got %q", key, got)
		}
	}

	st := c.Stats()
	if st.Redirects > 1 || st.Refreshes > 2 {
		t.Fatalf("pull recovery cost more than one redirect and one refetch: stats %+v", st)
	}
	if got := c.Map().Epoch; got != boot.Epoch+2 {
		t.Fatalf("client ended on epoch %d, want the split's final epoch %d", got, boot.Epoch+2)
	}
	t.Logf("client stats %+v", st)
}
