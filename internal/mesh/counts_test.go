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
	"circus/internal/wal"
)

// TestPutCounts pins the allocations of one durable put from end to
// end: a serial caller's mesh.Client, the degree-3 replicated call,
// mesh.Guard's ownership check, chaos.KV's apply, and the WAL append
// and fsync on a wal.MemFS, over an instant netsim with two shards of
// three members. Each put writes a fresh key, so every one is a real
// state change with a redo record. It read 106 allocations per put
// with the reflective call, return and pair codecs, a fresh WAL frame
// per record and a per-key log-position map, 68 without them, 40
// once server call records and return messages lived in core's call
// table and ResilientCaller's reply loop stopped allocating per reply,
// and 26 once a call was collated where its returns land and the
// message layer reused its transfers; the budget is two above that.
func TestPutCounts(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	const maxAllocs = 28
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sim := circus.NewSimNetwork(40)
	node := func(opts ...circus.Option) *circus.Node {
		t.Helper()
		n, err := sim.NewNode(opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}
	binder := node()
	if _, err := binder.ServeRingmaster(); err != nil {
		t.Fatal(err)
	}
	boot := circus.WithBinder(binder.BinderAddrs())
	names := []string{"kv/s0", "kv/s1"}
	for s, name := range names {
		for i := 0; i < 3; i++ {
			log, rec, err := wal.Open(wal.Options{FS: wal.NewMemFS(int64(3*s + i))})
			if err != nil {
				t.Fatal(err)
			}
			kv, err := chaos.NewDurableKV(log, rec)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := node(boot).Export(name, mesh.NewGuard(name, kv, chaos.KVKeys)); err != nil {
				t.Fatal(err)
			}
		}
	}
	admin := node(boot)
	ctl := mesh.NewController(admin.Runtime(), admin.Binder(), "kv", nil)
	ctl.Resilient = simResilient(0xc01)
	if _, err := ctl.Bootstrap(ctx, names, 0); err != nil {
		t.Fatal(err)
	}
	cn := node(boot)
	mc, err := mesh.NewClient(ctx, cn.Runtime(), cn.Binder(), "kv", mesh.Options{Resilient: simResilient(1)})
	if err != nil {
		t.Fatal(err)
	}

	written := 0
	putKeys := func(keys []string) error {
		for _, key := range keys {
			args, err := chaos.PutArgs(key, "value")
			if err != nil {
				return err
			}
			got, err := mc.Call(ctx, key, chaos.ProcPut, args, core.CallOptions{Timeout: 5 * time.Second})
			if err != nil {
				return err
			}
			if string(got) != key {
				return fmt.Errorf("put %q acknowledged as %q", key, got)
			}
		}
		return nil
	}
	freshKeys := func(n int) []string {
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("put.%08d", written)
			written++
		}
		return keys
	}
	// Bind both shards and warm every pool before counting.
	if err := putKeys(freshKeys(200)); err != nil {
		t.Fatal(err)
	}
	var putErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		keys := freshKeys(b.N)
		b.ResetTimer()
		if putErr = putKeys(keys); putErr != nil {
			b.FailNow()
		}
	})
	if putErr != nil {
		t.Fatal(putErr)
	}
	allocs := r.AllocsPerOp()
	t.Logf("%d puts: %d allocs/put, %d B/put", r.N, allocs, r.AllocedBytesPerOp())
	if allocs > maxAllocs {
		t.Errorf("%d allocs per durable put, budget %d", allocs, maxAllocs)
	}
}
