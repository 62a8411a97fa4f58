package chaos

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"circus"
	"circus/internal/wal"
)

func TestScheduleDurableFaults(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		f := Faults{Durable: true, RestartAll: true}
		a := GenerateWith(seed, 3, f)
		b := GenerateWith(seed, 3, f)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: durable schedules differ", seed)
		}
		have := make(map[Kind]int)
		killAt, restartAt := -1, -1
		for i, ev := range a.Events {
			have[ev.Kind]++
			switch ev.Kind {
			case KindKillAll:
				killAt = i
			case KindRestartAll:
				restartAt = i
			case KindDiskFull, KindDiskSlow, KindDiskHeal:
				if ev.Server < 0 || ev.Server >= 3 {
					t.Fatalf("seed %d: disk victim out of range: %v", seed, ev)
				}
			}
		}
		if have[KindKillAll] != 1 || have[KindRestartAll] != 1 {
			t.Fatalf("seed %d: want exactly one kill-all/restart-all pair: %v", seed, a.Events)
		}
		if killAt > restartAt {
			t.Fatalf("seed %d: restart-all precedes kill-all: %v", seed, a.Events)
		}
		if have[KindCrash] != have[KindRestart] {
			t.Fatalf("seed %d: unbalanced crash/restart: %v", seed, a.Events)
		}
		if have[KindDiskFull]+have[KindDiskSlow] != have[KindDiskHeal] {
			t.Fatalf("seed %d: unhealed disk fault: %v", seed, a.Events)
		}
	}
	// The classic generator must never draw from the durable pool: an
	// in-memory troupe cannot survive a whole-troupe power loss.
	for seed := int64(1); seed <= 10; seed++ {
		for _, ev := range Generate(seed, 3).Events {
			switch ev.Kind {
			case KindKillAll, KindRestartAll, KindDiskFull, KindDiskSlow, KindDiskHeal:
				t.Fatalf("seed %d: durable kind %v in classic schedule", seed, ev.Kind)
			}
		}
	}
}

// TestDurableCampaignSmoke runs a full durable campaign: every member
// write-ahead-logs its acked writes, crashes become power losses with
// torn log tails, and the schedule adds disk faults. Every invariant
// must hold, and the logs must actually be exercised.
func TestDurableCampaignSmoke(t *testing.T) {
	res, err := Run(Config{Seed: 7, Ops: 12, Durable: true, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("invariant violations: %v", res.Violations)
	}
	if res.Acked == 0 {
		t.Fatal("no operation was acknowledged during the campaign")
	}
	if res.Fsyncs == 0 {
		t.Fatal("durable campaign performed no fsyncs")
	}
	if res.Recoveries == 0 {
		t.Fatal("durable campaign recovered no member from its log")
	}
	t.Logf("seed %d: acked=%d failed=%d recoveries=%d fsyncs=%d snapshots=%d delta=%d/%dB full=%d/%dB",
		res.Seed, res.Acked, res.Failed, res.Recoveries, res.Fsyncs, res.Snapshots,
		res.DeltaTransfers, res.DeltaBytes, res.FullTransfers, res.FullBytes)
}

// TestDurableCampaignFullRestart is the acceptance scenario: the whole
// troupe is power-failed at once mid-traffic — the failure replication
// alone cannot mask — and every member must recover from its own log
// such that no acknowledged write is lost.
func TestDurableCampaignFullRestart(t *testing.T) {
	res, err := Run(Config{Seed: 5, Ops: 10, Durable: true, RestartAll: true,
		Monitor: true, Linearize: true, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("invariant violations after whole-troupe restart: %v", res.Violations)
	}
	if res.Acked == 0 {
		t.Fatal("no operation was acknowledged during the campaign")
	}
	if res.Recoveries < 3 {
		t.Fatalf("Recoveries = %d after a whole-troupe power loss, want >= 3", res.Recoveries)
	}
	t.Logf("seed %d: acked=%d failed=%d recoveries=%d fsyncs=%d snapshots=%d delta=%d/%dB full=%d/%dB",
		res.Seed, res.Acked, res.Failed, res.Recoveries, res.Fsyncs, res.Snapshots,
		res.DeltaTransfers, res.DeltaBytes, res.FullTransfers, res.FullBytes)
}

// TestRestartAllRequiresDurable pins the config validation: killing
// every machine of an in-memory troupe would simply lose the state.
func TestRestartAllRequiresDurable(t *testing.T) {
	if _, err := Run(Config{Seed: 1, RestartAll: true}); err == nil {
		t.Fatal("RestartAll without Durable was accepted")
	}
}

// TestCrashBetweenAppendAndFsync power-fails a durable member in the
// window between a record's append and its fsync — the injected sync
// delay holds that window open — then restarts it and requires the
// recovered store to hold exactly the pre-crash acked writes: every
// acked key present with its value, nothing corrupted. Run with -race
// -count=20 to shake the interleavings.
func TestCrashBetweenAppendAndFsync(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		fs := wal.NewMemFS(seed)
		log, rec, err := wal.Open(wal.Options{FS: fs, SegmentBytes: 1 << 14, SnapshotEvery: 16})
		if err != nil {
			t.Fatal(err)
		}
		kv, err := NewDurableKV(log, rec)
		if err != nil {
			t.Fatal(err)
		}
		// Every fsync now dawdles, so there is always a moment where a
		// record is appended (and applied in memory) but not yet synced.
		fs.SetSyncDelay(200 * time.Microsecond)

		var (
			mu    sync.Mutex
			acked = make(map[string]string)
		)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				for op := 0; ; op++ {
					select {
					case <-stop:
						return
					default:
					}
					key := fmt.Sprintf("g%d.k%d", g, op)
					p := kvPair{Key: key, Val: "v." + key}
					if err := put(kv, p); err == nil {
						mu.Lock()
						acked[key] = p.Val
						mu.Unlock()
					}
				}
			}()
		}
		// Let some writes be acknowledged, then pull the plug while
		// others are mid-flight.
		deadline := time.Now().Add(2 * time.Second)
		for {
			mu.Lock()
			n := len(acked)
			mu.Unlock()
			if n >= 8 || time.Now().After(deadline) {
				break
			}
			time.Sleep(time.Millisecond)
		}
		fs.Crash()
		close(stop)
		wg.Wait()

		fs.Restart()
		fs.SetSyncDelay(0)
		if err := kv.Restart(); err != nil {
			t.Fatalf("seed %d: recovery failed: %v", seed, err)
		}
		got := kv.Snapshot()
		mu.Lock()
		if len(acked) == 0 {
			t.Fatalf("seed %d: nothing was acked before the crash", seed)
		}
		for k, v := range acked {
			if got[k] != v {
				t.Fatalf("seed %d: acked write %q lost or corrupted after crash: %q != %q",
					seed, k, got[k], v)
			}
		}
		mu.Unlock()
		// Unacked writes may or may not have survived (their fsync raced
		// the crash), but whatever is present must be uncorrupted.
		for k, v := range got {
			if want := "v." + k; v != want {
				t.Fatalf("seed %d: recovered %q = %q, want %q", seed, k, v, want)
			}
		}
		log.Close()
	}
}

// TestDeltaRejoinTransfersDelta pins the incremental state transfer:
// a durable member that was briefly down recovers its state from its
// own log and reports its position, so the repairman ships only a
// peer's apply-order suffix — O(delta) bytes, far less than the full
// state — and the member still converges exactly.
func TestDeltaRejoinTransfersDelta(t *testing.T) {
	sim := circus.NewSimNetwork(42)
	binder, err := sim.NewNode()
	if err != nil {
		t.Fatal(err)
	}
	defer binder.Close()
	if _, err := binder.ServeRingmaster(); err != nil {
		t.Fatal(err)
	}
	boot := binder.BinderAddrs()
	ctx := context.Background()

	const servers = 3
	var (
		nodes [servers]*circus.Node
		kvs   [servers]*KV
		disks [servers]*wal.MemFS
		addrs []circus.ModuleAddr
	)
	for i := 0; i < servers; i++ {
		n, err := sim.NewNode(circus.WithBinder(boot))
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes[i] = n
		disks[i] = wal.NewMemFS(int64(100 + i))
		log, rec, err := wal.Open(wal.Options{FS: disks[i], SegmentBytes: 1 << 16, SnapshotEvery: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		kvs[i], err = NewDurableKV(log, rec)
		if err != nil {
			t.Fatal(err)
		}
		addr, err := n.Export("kv", kvs[i])
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, addr)
	}

	cn, err := sim.NewNode(circus.WithBinder(boot))
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	stub, err := cn.ImportResilient(ctx, "kv", circus.ResilientOptions{
		Seed:         1,
		MaxAttempts:  10,
		Backoff:      circus.Backoff{Initial: 15 * time.Millisecond, Max: 250 * time.Millisecond},
		SuspicionTTL: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	put := func(i int) {
		t.Helper()
		args, _ := PutArgs(fmt.Sprintf("k%03d", i), fmt.Sprintf("v%03d", i))
		if _, err := stub.Call(ctx, ProcPut, args, circus.WithTimeout(2*time.Second)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}

	// Phase 1: the whole troupe absorbs the bulk of the state.
	const bulk = 200
	for i := 0; i < bulk; i++ {
		put(i)
	}

	// Member 2 loses power. The repairman garbage-collects it out of
	// the binding so the troupe keeps making progress without it.
	rn, err := sim.NewNode(circus.WithBinder(boot))
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Close()
	repair := &repairman{node: rn, name: "kv", addrs: addrs, log: t.Logf}
	sim.Crash(nodes[2])
	disks[2].Crash()
	for i := 0; i < 40 && repair.removed == 0; i++ {
		repair.sweep(ctx, false)
		time.Sleep(50 * time.Millisecond)
	}
	if repair.removed == 0 {
		t.Fatal("repairman never garbage-collected the dead member")
	}

	// Phase 2: a small delta lands while member 2 is away.
	const delta = 30
	for i := bulk; i < bulk+delta; i++ {
		put(i)
	}

	// Power back on: the member recovers the bulk from its own log,
	// and the rejoin handshake should ship only the suffix.
	disks[2].Restart()
	if err := kvs[2].Restart(); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if pos := kvs[2].Position(); pos != bulk {
		t.Fatalf("recovered position = %d, want %d", pos, bulk)
	}
	sim.Restart(nodes[2])
	for i := 0; i < 40 && repair.rejoined == 0; i++ {
		repair.sweep(ctx, false)
		time.Sleep(50 * time.Millisecond)
	}
	if repair.rejoined == 0 {
		t.Fatal("repairman never re-admitted the recovered member")
	}
	if repair.deltaTransfers == 0 {
		t.Fatalf("rejoin used no delta transfer (full=%d): position handshake broken", repair.fullTransfers)
	}
	full, err := kvs[0].GetState()
	if err != nil {
		t.Fatal(err)
	}
	if repair.deltaBytes == 0 || repair.deltaBytes >= int64(len(full))/2 {
		t.Fatalf("delta transfer moved %d bytes, want (0, %d): not O(delta)",
			repair.deltaBytes, len(full)/2)
	}

	// And the member must still converge exactly.
	repair.sweep(ctx, true)
	got := kvs[2].Snapshot()
	if len(got) != bulk+delta {
		t.Fatalf("rejoined member has %d keys, want %d", len(got), bulk+delta)
	}
	for i := 0; i < bulk+delta; i++ {
		k := fmt.Sprintf("k%03d", i)
		if got[k] != fmt.Sprintf("v%03d", i) {
			t.Fatalf("rejoined member: %q = %q", k, got[k])
		}
	}
	t.Logf("delta rejoin: %d bytes vs %d full-state bytes", repair.deltaBytes, len(full))
}
