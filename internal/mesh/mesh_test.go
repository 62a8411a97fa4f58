package mesh_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"circus"
	"circus/internal/chaos"
	"circus/internal/core"
	"circus/internal/kv"
	"circus/internal/mesh"
)

func simResilient(seed int64) circus.ResilientOptions {
	return circus.ResilientOptions{
		Seed:         seed,
		MaxAttempts:  10,
		Backoff:      circus.Backoff{Initial: 15 * time.Millisecond, Max: 250 * time.Millisecond},
		SuspicionTTL: 400 * time.Millisecond,
	}
}

// fixture is a mesh service on the simulated internet: a binder node,
// per-shard troupes of guarded chaos KVs, and helpers to grow it.
type fixture struct {
	t      *testing.T
	sim    *circus.SimNetwork
	binder *circus.Node
	admin  *circus.Node // an ordinary node with a binder client, for test bookkeeping
	boot   []circus.ModuleAddr

	shards map[string]*shardT
}

type shardT struct {
	nodes  []*circus.Node
	kvs    []*chaos.KV
	guards []*mesh.Guard
}

func newFixture(t *testing.T, seed int64) *fixture {
	t.Helper()
	sim := circus.NewSimNetwork(seed)
	binder, err := sim.NewNode()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { binder.Close() })
	if _, err := binder.ServeRingmaster(); err != nil {
		t.Fatal(err)
	}
	f := &fixture{t: t, sim: sim, binder: binder,
		boot: binder.BinderAddrs(), shards: make(map[string]*shardT)}
	admin, err := sim.NewNode(circus.WithBinder(f.boot))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { admin.Close() })
	f.admin = admin
	return f
}

// addShard builds a degree-3 guarded KV troupe and registers it by
// exporting each member.
func (f *fixture) addShard(name string) *shardT {
	f.t.Helper()
	s := &shardT{}
	for i := 0; i < 3; i++ {
		n, err := f.sim.NewNode(circus.WithBinder(f.boot))
		if err != nil {
			f.t.Fatal(err)
		}
		f.t.Cleanup(func() { n.Close() })
		kv := chaos.NewKV()
		g := mesh.NewGuard(name, kv, chaos.KVKeys)
		if _, err := n.Export(name, g); err != nil {
			f.t.Fatal(err)
		}
		s.nodes = append(s.nodes, n)
		s.kvs = append(s.kvs, kv)
		s.guards = append(s.guards, g)
	}
	f.shards[name] = s
	return s
}

func (f *fixture) controller() *mesh.Controller {
	f.t.Helper()
	n, err := f.sim.NewNode(circus.WithBinder(f.boot))
	if err != nil {
		f.t.Fatal(err)
	}
	f.t.Cleanup(func() { n.Close() })
	ctl := mesh.NewController(n.Runtime(), n.Binder(), "kv", kv.Codec{})
	ctl.Resilient = simResilient(77)
	return ctl
}

func (f *fixture) client(ctx context.Context, seed int64) *mesh.Client {
	f.t.Helper()
	n, err := f.sim.NewNode(circus.WithBinder(f.boot))
	if err != nil {
		f.t.Fatal(err)
	}
	f.t.Cleanup(func() { n.Close() })
	c, err := mesh.NewClient(ctx, n.Runtime(), n.Binder(), "kv",
		mesh.Options{Resilient: simResilient(seed)})
	if err != nil {
		f.t.Fatal(err)
	}
	return c
}

// reconcile heals intra-shard divergence the way the chaos repairman
// does (union merge of member states): a member that was wrongly
// suspected during an ack missed that write by design, and unanimous
// reads disagree until a repair pass runs. The mesh tests run no
// repairman, so they reconcile explicitly before verification.
func (f *fixture) reconcile(names ...string) {
	f.t.Helper()
	for _, name := range names {
		kvs := f.shards[name].kvs
		for _, src := range kvs {
			st, err := src.GetState()
			if err != nil {
				f.t.Fatal(err)
			}
			for _, dst := range kvs {
				if err := dst.SetState(st); err != nil {
					f.t.Fatal(err)
				}
			}
		}
	}
}

func put(ctx context.Context, c *mesh.Client, key, val string) error {
	args, err := chaos.PutArgs(key, val)
	if err != nil {
		return err
	}
	_, err = c.Call(ctx, key, chaos.ProcPut, args, core.CallOptions{Timeout: 2 * time.Second})
	return err
}

func get(ctx context.Context, c *mesh.Client, key string) (string, error) {
	res, err := c.Call(ctx, key, chaos.ProcGet, []byte(key), core.CallOptions{Timeout: 2 * time.Second})
	return string(res), err
}

// TestMeshSplitLive is the tentpole scenario: a 2-shard mesh absorbs
// writes while a third shard is split in; every key acked before,
// during, or after the migration must be readable afterwards, moved
// keys must live on the new shard (and be deleted from the old), and
// per-shard replicas must agree.
func TestMeshSplitLive(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t, 11)
	f.addShard("kv/s0")
	f.addShard("kv/s1")
	ctl := f.controller()
	ctl.Log = t.Logf
	if _, err := ctl.Bootstrap(ctx, []string{"kv/s0", "kv/s1"}, 0); err != nil {
		t.Fatal(err)
	}
	c := f.client(ctx, 2)

	var (
		mu    sync.Mutex
		acked = map[string]string{}
	)
	for i := 0; i < 120; i++ {
		k, v := fmt.Sprintf("pre.k%03d", i), fmt.Sprintf("v%03d", i)
		if err := put(ctx, c, k, v); err != nil {
			t.Fatalf("pre-split put %s: %v", k, err)
		}
		acked[k] = v
	}

	// Writers keep the traffic flowing through the migration window.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k, v := fmt.Sprintf("mid.g%d.k%03d", g, i), fmt.Sprintf("v.g%d.%03d", g, i)
				if err := put(ctx, c, k, v); err == nil {
					mu.Lock()
					acked[k] = v
					mu.Unlock()
				}
			}
		}()
	}

	f.addShard("kv/s2")
	time.Sleep(50 * time.Millisecond) // let mid-traffic build up
	if err := ctl.Split(ctx, "kv/s2"); err != nil {
		close(stop)
		wg.Wait()
		t.Fatalf("split: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	for i := 0; i < 40; i++ {
		k, v := fmt.Sprintf("post.k%03d", i), fmt.Sprintf("p%03d", i)
		if err := put(ctx, c, k, v); err != nil {
			t.Fatalf("post-split put %s: %v", k, err)
		}
		acked[k] = v
	}

	m := c.Map()
	if len(m.Shards) != 3 || m.IsParked("kv/s2") {
		t.Fatalf("final map: %+v", m)
	}
	// Migration cleanup really dropped the moved range from its old
	// owners. Checked before reconciliation (which would union a
	// suspicion-skipped member's stale copy back in); one straggler
	// member per shard is tolerated for the same reason the delete was
	// acked without it.
	ring := m.Ring()
	ownedByNew := 0
	for k := range acked {
		if ring.Owner(k) != "kv/s2" {
			continue
		}
		ownedByNew++
		for _, old := range []string{"kv/s0", "kv/s1"} {
			still := 0
			for _, kv := range f.shards[old].kvs {
				if _, ok := kv.Snapshot()[k]; ok {
					still++
				}
			}
			if still > 1 {
				t.Fatalf("moved key %s still on %d members of %s after cleanup", k, still, old)
			}
		}
	}
	if ownedByNew == 0 {
		t.Fatal("split moved no keys to the new shard")
	}

	// Zero acked-write loss, end to end through routing: reconcile
	// (standing in for the repairman), then unanimous reads.
	f.reconcile("kv/s0", "kv/s1", "kv/s2")
	for k, v := range acked {
		got, err := get(ctx, c, k)
		if err != nil {
			t.Fatalf("get %s after split: %v", k, err)
		}
		if got != v {
			t.Fatalf("acked write lost or corrupted: %s = %q, want %q", k, got, v)
		}
	}
	for _, kv := range f.shards["kv/s2"].kvs {
		snap := kv.Snapshot()
		for k, v := range acked {
			if ring.Owner(k) == "kv/s2" && snap[k] != v {
				t.Fatalf("moved key %s missing from a kv/s2 member", k)
			}
		}
	}
	t.Logf("split: %d/%d keys now on kv/s2; client stats %+v", ownedByNew, len(acked), c.Stats())
}

// TestMeshMergeLive shrinks a 3-shard mesh to 2 under the same
// no-lost-update obligation.
func TestMeshMergeLive(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t, 23)
	for _, s := range []string{"kv/s0", "kv/s1", "kv/s2"} {
		f.addShard(s)
	}
	ctl := f.controller()
	ctl.Log = t.Logf
	if _, err := ctl.Bootstrap(ctx, []string{"kv/s0", "kv/s1", "kv/s2"}, 0); err != nil {
		t.Fatal(err)
	}
	c := f.client(ctx, 3)
	acked := map[string]string{}
	for i := 0; i < 150; i++ {
		k, v := fmt.Sprintf("m.k%03d", i), fmt.Sprintf("v%03d", i)
		if err := put(ctx, c, k, v); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
		acked[k] = v
	}
	if err := ctl.Merge(ctx, "kv/s1"); err != nil {
		t.Fatalf("merge: %v", err)
	}
	f.reconcile("kv/s0", "kv/s2")
	for k, v := range acked {
		got, err := get(ctx, c, k)
		if err != nil {
			t.Fatalf("get %s after merge: %v", k, err)
		}
		if got != v {
			t.Fatalf("acked write lost in merge: %s = %q, want %q", k, got, v)
		}
	}
	final := c.Map()
	if len(final.Shards) != 2 {
		t.Fatalf("final map still has %d shards", len(final.Shards))
	}
	for _, s := range final.Shards {
		if s == "kv/s1" {
			t.Fatal("victim still in the map")
		}
	}
}

// TestMeshStaleClientRedirects pins routing edge case 1: a client one
// epoch behind during a split keeps working — its first call to a
// moved key is refused wrong-shard, it refreshes the map, re-routes,
// and succeeds.
func TestMeshStaleClientRedirects(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t, 31)
	f.addShard("kv/s0")
	f.addShard("kv/s1")
	ctl := f.controller()
	if _, err := ctl.Bootstrap(ctx, []string{"kv/s0", "kv/s1"}, 0); err != nil {
		t.Fatal(err)
	}
	stale := f.client(ctx, 4)       // caches the 2-shard epoch-1 map
	quorumStale := f.client(ctx, 6) // likewise, and stays idle until after the split
	acked := map[string]string{}
	for i := 0; i < 100; i++ {
		k, v := fmt.Sprintf("s.k%03d", i), fmt.Sprintf("v%03d", i)
		if err := put(ctx, stale, k, v); err != nil {
			t.Fatal(err)
		}
		acked[k] = v
	}

	f.addShard("kv/s2")
	if err := ctl.Split(ctx, "kv/s2"); err != nil {
		t.Fatal(err)
	}
	if stale.Map().Epoch != 1 {
		t.Fatalf("client refreshed prematurely: epoch %d", stale.Map().Epoch)
	}

	// Find a key the stale map routes to an old shard but whose owner
	// is now kv/s2.
	fresh, err := mesh.FetchShardMap(ctx, f.admin.Binder(), "kv")
	if err != nil {
		t.Fatal(err)
	}
	ring := fresh.Ring()
	moved := ""
	for k := range acked {
		if ring.Owner(k) == "kv/s2" {
			moved = k
			break
		}
	}
	if moved == "" {
		t.Fatal("no acked key moved")
	}
	got, err := get(ctx, stale, moved)
	if err != nil {
		t.Fatalf("stale client get %s: %v", moved, err)
	}
	if got != acked[moved] {
		t.Fatalf("stale client read %q, want %q", got, acked[moved])
	}
	st := stale.Stats()
	if st.Redirects == 0 {
		t.Fatalf("stale client was never redirected: %+v", st)
	}
	if stale.Map().Epoch <= 1 {
		t.Fatalf("redirect did not refresh the map: epoch %d", stale.Map().Epoch)
	}

	// A quorum-collated write of a fresh key the stale map routes to an
	// old shard: its members refuse unanimously with wrong-shard, the
	// quorum collator produces no success, and the refusal must still
	// reach the client as WrongShard so it redirects and the write acks
	// at the new owner.
	fresh2 := ""
	for i := 0; fresh2 == ""; i++ {
		if k := fmt.Sprintf("q.k%d", i); ring.Owner(k) == "kv/s2" {
			fresh2 = k
		}
	}
	args, err := chaos.PutArgs(fresh2, "qv")
	if err != nil {
		t.Fatal(err)
	}
	quorum2 := func(n int) circus.Collator { return circus.Quorum(n, 2) }
	if _, err := quorumStale.Call(ctx, fresh2, chaos.ProcPut, args,
		core.CallOptions{Timeout: 2 * time.Second, Collator: quorum2}); err != nil {
		t.Fatalf("quorum put of %s through a stale map: %v", fresh2, err)
	}
	if st := quorumStale.Stats(); st.Redirects == 0 {
		t.Fatalf("quorum-collated refusal did not redirect: %+v", st)
	}
	holders := 0
	for _, kv := range f.shards["kv/s2"].kvs {
		if kv.Snapshot()[fresh2] == "qv" {
			holders++
		}
	}
	if holders < 2 {
		t.Fatalf("quorum write of %s held by %d members of kv/s2, want >= 2", fresh2, holders)
	}
}

// TestMeshRedirectLoopBound pins routing edge case 2: when a guard
// holds a map the binder never published (so refreshing cannot
// reconcile), the client's redirect budget turns the livelock into an
// error instead of spinning forever.
func TestMeshRedirectLoopBound(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t, 41)
	s0 := f.addShard("kv/s0")
	ctl := f.controller()
	if _, err := ctl.Bootstrap(ctx, []string{"kv/s0"}, 0); err != nil {
		t.Fatal(err)
	}
	c := f.client(ctx, 5)

	// Poison the guards with an unpublished future map whose phantom
	// shard owns some key.
	poison := &mesh.ShardMap{Service: "kv", Epoch: 99, Shards: []string{"kv/s0", "kv/phantom"}}
	for _, g := range s0.guards {
		g.Install(poison)
	}
	ring := poison.Ring()
	victim := ""
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("r.k%d", i)
		if ring.Owner(k) == "kv/phantom" {
			victim = k
			break
		}
	}
	if victim == "" {
		t.Fatal("phantom shard owns nothing")
	}
	err := put(ctx, c, victim, "v")
	if err == nil {
		t.Fatal("call to a phantom-owned key succeeded")
	}
	if !strings.Contains(err.Error(), "redirect loop") {
		t.Fatalf("err = %v, want bounded redirect loop", err)
	}
	if st := c.Stats(); st.Redirects < 4 {
		t.Fatalf("loop gave up after %d redirects, want the full budget", st.Redirects)
	}
}

// TestMeshTroupeReplaced pins routing edge case 3: a shard's troupe
// is replaced wholesale (every member swapped at once via a fresh
// registration), so no old member survives to answer — let alone to
// refuse with a stale troupe ID. The client's cached binding must
// still recover, through the rebind-on-total-failure path.
func TestMeshTroupeReplaced(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t, 53)
	old := f.addShard("kv/s0")
	ctl := f.controller()
	if _, err := ctl.Bootstrap(ctx, []string{"kv/s0"}, 0); err != nil {
		t.Fatal(err)
	}
	c := f.client(ctx, 6)
	if err := put(ctx, c, "warm", "w"); err != nil {
		t.Fatal(err) // warm the cached binding
	}

	// Build the replacement troupe, export locally (no incremental
	// registration), install the current map, then register it as the
	// new kv/s0 and kill every old member.
	m, err := mesh.FetchShardMap(ctx, f.admin.Binder(), "kv")
	if err != nil {
		t.Fatal(err)
	}
	var members []circus.ModuleAddr
	repl := &shardT{}
	for i := 0; i < 3; i++ {
		n, err := f.sim.NewNode(circus.WithBinder(f.boot))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		kv := chaos.NewKV()
		g := mesh.NewGuard("kv/s0", kv, chaos.KVKeys)
		g.Install(m)
		members = append(members, n.ExportLocal("kv/s0", g))
		repl.nodes = append(repl.nodes, n)
		repl.kvs = append(repl.kvs, kv)
	}
	if _, err := f.admin.Binder().Register(ctx, "kv/s0", members); err != nil {
		t.Fatal(err)
	}
	for _, n := range old.nodes {
		f.sim.Crash(n)
	}

	// The cached caller still points at three corpses: the only
	// staleness signal is total failure.
	if err := put(ctx, c, "after", "a"); err != nil {
		t.Fatalf("put after wholesale replacement: %v", err)
	}
	got, err := get(ctx, c, "after")
	if err != nil || got != "a" {
		t.Fatalf("get after replacement: %q, %v", got, err)
	}
	for _, kv := range repl.kvs {
		if kv.Snapshot()["after"] != "a" {
			t.Fatal("replacement troupe did not execute the recovered write")
		}
	}
}

// TestMeshSplitResumesParked covers the stuck-migration state: a split
// attempt that published the park epoch but then died before its push
// reached any guard (or before the copy and flip) leaves the new shard
// present-but-parked in the binder's map. A later Split of the same
// shard must resume that migration — re-push the park, copy the range,
// flip — not report "already in the map": a phantom success there
// strands the range parked forever, owning none of its acked data.
func TestMeshSplitResumesParked(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t, 23)
	f.addShard("kv/s0")
	f.addShard("kv/s1")
	ctl := f.controller()
	ctl.Log = t.Logf
	boot, err := ctl.Bootstrap(ctx, []string{"kv/s0", "kv/s1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := f.client(ctx, 5)

	acked := map[string]string{}
	for i := 0; i < 120; i++ {
		k, v := fmt.Sprintf("pre.k%03d", i), fmt.Sprintf("v%03d", i)
		if err := put(ctx, c, k, v); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
		acked[k] = v
	}

	// The stuck attempt: the parked map reached the binder, no guard
	// ever saw it, no state moved.
	f.addShard("kv/s2")
	stuck := &mesh.ShardMap{Service: "kv", Epoch: boot.Epoch + 1, Vnodes: boot.Vnodes,
		Shards: []string{"kv/s0", "kv/s1", "kv/s2"}, Parked: []string{"kv/s2"}}
	if err := mesh.PublishMap(ctx, f.admin.Binder(), stuck); err != nil {
		t.Fatal(err)
	}

	if err := ctl.Split(ctx, "kv/s2"); err != nil {
		t.Fatalf("split did not resume the parked migration: %v", err)
	}

	final, err := mesh.FetchShardMap(ctx, f.admin.Binder(), "kv")
	if err != nil {
		t.Fatal(err)
	}
	if len(final.Shards) != 3 || final.IsParked("kv/s2") || final.Epoch != stuck.Epoch+1 {
		t.Fatalf("final map after resume: %+v", final)
	}

	// The copy really ran: every acked key the grown ring assigns to
	// kv/s2 is on its members, and every key still reads back through
	// routing (stale client cache reconciles via refusals).
	ring := final.Ring()
	ownedByNew := 0
	for k, v := range acked {
		if got, err := get(ctx, c, k); err != nil || got != v {
			t.Fatalf("acked write lost after resumed split: %s = %q, %v", k, got, err)
		}
		if ring.Owner(k) != "kv/s2" {
			continue
		}
		ownedByNew++
		for i, kv := range f.shards["kv/s2"].kvs {
			if kv.Snapshot()[k] != v {
				t.Fatalf("moved key %s missing from kv/s2 member %d", k, i)
			}
		}
	}
	if ownedByNew == 0 {
		t.Fatal("resumed split moved no keys to the new shard")
	}
	t.Logf("resumed split: %d/%d keys now on kv/s2", ownedByNew, len(acked))
}
