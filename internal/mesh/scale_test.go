package mesh_test

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"circus"
	"circus/internal/chaos"
	"circus/internal/core"
	"circus/internal/mesh"
)

// The scale gates measure what partitioning and spread reads buy, on
// the store the chaos campaigns verify: chaos.KV behind mesh.Guard. The
// simulated operating point is network-bound on purpose. A 1 Mb/s
// transmitter per host with 200–400 µs of propagation makes each
// member's 128 B reply cost over a millisecond of serialization, so one
// shard's member transmitters saturate near 900 strict reads/s while
// the clients' small requests idle. More shards add member
// transmitters; a spread read occupies one member's instead of three.
// On an instant wire the runtimes would contend for the same
// processors and the ratios would measure the CPU instead.
const (
	scaleValueBytes = 128
	scaleKeys       = 512
	scaleClients    = 16
	scaleWindow     = 600 * time.Millisecond
)

// scaleMesh is a preloaded mesh and its routing clients.
type scaleMesh struct {
	clients []*mesh.Client
	keys    []string
}

// newScaleMesh builds, each on its own node from newNode, a Ringmaster,
// shards degree-3 troupes of guarded chaos.KV members, a controller
// that bootstraps a 256-vnode map, and clients routing mesh clients;
// then it writes keys values of scaleValueBytes through the mesh.
func newScaleMesh(t *testing.T, newNode func(...circus.Option) (*circus.Node, error), shards, clients, keys int) *scaleMesh {
	t.Helper()
	node := func(opts ...circus.Option) *circus.Node {
		t.Helper()
		n, err := newNode(opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	binder := node()
	if _, err := binder.ServeRingmaster(); err != nil {
		t.Fatal(err)
	}
	boot := circus.WithBinder(binder.BinderAddrs())
	names := make([]string, shards)
	for s := range names {
		names[s] = fmt.Sprintf("kv/s%d", s)
		for i := 0; i < 3; i++ {
			if _, err := node(boot).Export(names[s], mesh.NewGuard(names[s], chaos.NewKV(), chaos.KVKeys)); err != nil {
				t.Fatal(err)
			}
		}
	}
	admin := node(boot)
	ctl := mesh.NewController(admin.Runtime(), admin.Binder(), "kv", nil)
	ctl.Resilient = simResilient(0xc01)
	if _, err := ctl.Bootstrap(ctx, names, 256); err != nil {
		t.Fatal(err)
	}

	m := &scaleMesh{}
	for i := 0; i < clients; i++ {
		n := node(boot)
		mc, err := mesh.NewClient(ctx, n.Runtime(), n.Binder(), "kv", mesh.Options{Resilient: simResilient(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		m.clients = append(m.clients, mc)
	}
	for k := 0; k < keys; k++ {
		m.keys = append(m.keys, fmt.Sprintf("scale.k%05d", k))
	}
	val := strings.Repeat("v", scaleValueBytes)
	errs := make(chan error, clients)
	for ci, mc := range m.clients {
		go func(ci int, mc *mesh.Client) {
			for k := ci; k < keys; k += clients {
				if err := put(ctx, mc, m.keys[k], val); err != nil {
					errs <- fmt.Errorf("preload %s: %w", m.keys[k], err)
					return
				}
			}
			errs <- nil
		}(ci, mc)
	}
	for range m.clients {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// simScaleMesh is newScaleMesh on the network-bound simulated wire,
// with timers that keep wire queueing under load from passing for loss.
func simScaleMesh(t *testing.T, seed int64, shards int) *scaleMesh {
	t.Helper()
	sim := circus.NewSimNetwork(seed)
	sim.SetLink(circus.LinkConfig{MinDelay: 200 * time.Microsecond, MaxDelay: 400 * time.Microsecond,
		BitsPerSecond: 1_000_000})
	return newScaleMesh(t, func(opts ...circus.Option) (*circus.Node, error) {
		return sim.NewNode(append(opts, circus.WithTimers(100*time.Millisecond, 200*time.Millisecond),
			circus.WithManyToOneWait(2*time.Second))...)
	}, shards, scaleClients, scaleKeys)
}

// reads runs callers closed-loop readers over the preloaded keys for
// scaleWindow, strict replicated reads or spread reads, checks the
// length of every value read, and returns reads per second.
func (m *scaleMesh) reads(t *testing.T, callers int, spread bool) float64 {
	t.Helper()
	var done atomic.Int64
	start := time.Now()
	end := start.Add(scaleWindow)
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		go func(c int) {
			read := m.clients[c%len(m.clients)].Call
			if spread {
				read = m.clients[c%len(m.clients)].SpreadRead
			}
			for i := c; time.Now().Before(end); i += callers {
				key := m.keys[i%len(m.keys)]
				got, err := read(context.Background(), key, chaos.ProcGet, []byte(key), core.CallOptions{Timeout: 5 * time.Second})
				if err == nil && len(got) != scaleValueBytes {
					err = fmt.Errorf("read of %s returned %d bytes, want %d", key, len(got), scaleValueBytes)
				}
				if err != nil {
					errs <- err
					return
				}
				done.Add(1)
			}
			errs <- nil
		}(c)
	}
	for c := 0; c < callers; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	return float64(done.Load()) / time.Since(start).Seconds()
}

// TestShardScale: at 32 callers, four shards serve at least three
// times the strict reads of one.
func TestShardScale(t *testing.T) {
	if raceEnabled {
		t.Skip("a throughput ratio; the race detector makes it a CPU benchmark")
	}
	m1, m4 := simScaleMesh(t, 301, 1), simScaleMesh(t, 304, 4)
	one, four := m1.reads(t, 32, false), m4.reads(t, 32, false)
	m1.calm(t)
	m4.calm(t)
	t.Logf("strict reads/s at 32 callers: 1 shard %.0f, 4 shards %.0f (%.2fx)", one, four, four/one)
	if four < 3*one {
		t.Fatalf("4 shards serve %.0f reads/s, under 3x the %.0f of 1 shard", four, one)
	}
}

// TestSpreadScale: on one shard at 16 callers, spread reads serve at
// least twice the strict reads.
func TestSpreadScale(t *testing.T) {
	if raceEnabled {
		t.Skip("a throughput ratio; the race detector makes it a CPU benchmark")
	}
	m := simScaleMesh(t, 500, 1)
	strict := m.reads(t, 16, false)
	spread := m.reads(t, 16, true)
	m.calm(t)
	t.Logf("reads/s on 1 shard at 16 callers: strict %.0f, spread %.0f (%.2fx)", strict, spread, spread/strict)
	if spread < 2*strict {
		t.Fatalf("spread reads serve %.0f reads/s, under 2x the %.0f of strict reads", spread, strict)
	}
}

// TestMeshUDP routes the mesh over real loopback sockets from
// circus.ListenUDP: two shards, preload, strict reads.
func TestMeshUDP(t *testing.T) {
	m := newScaleMesh(t, func(opts ...circus.Option) (*circus.Node, error) {
		return circus.ListenUDP(0, append(opts, circus.WithTimers(100*time.Millisecond, 500*time.Millisecond),
			circus.WithManyToOneWait(5*time.Second))...)
	}, 2, 2, 16)
	m.reads(t, 4, false)
	m.calm(t)
}

// calm fails the test if any client was redirected or parked: the map
// never changed, so every call should have found its owner first try.
func (m *scaleMesh) calm(t *testing.T) {
	t.Helper()
	for _, mc := range m.clients {
		if st := mc.Stats(); st.Redirects != 0 || st.Parks != 0 {
			t.Fatalf("routing faults on a calm map: %+v", st)
		}
	}
}
