package chaos

import (
	"context"
	"reflect"
	"testing"
	"time"

	"circus"
)

func TestScheduleDeterministicAndComplete(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		a := Generate(seed, 3)
		b := Generate(seed, 3)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: schedules differ", seed)
		}
		have := make(map[Kind]int)
		for _, ev := range a.Events {
			have[ev.Kind]++
		}
		for _, k := range []Kind{KindCrash, KindRestart, KindPartition, KindHeal, KindLossBurst, KindLossEnd} {
			if have[k] == 0 {
				t.Fatalf("seed %d: schedule lacks %v: %v", seed, k, a.Events)
			}
		}
		if have[KindCrash] != have[KindRestart] || have[KindPartition] != have[KindHeal] {
			t.Fatalf("seed %d: unbalanced schedule: %v", seed, a.Events)
		}
		// Every crash is repaired, in order, and victims are valid.
		for _, ev := range a.Events {
			if (ev.Kind == KindCrash || ev.Kind == KindRestart) && (ev.Server < 0 || ev.Server >= 3) {
				t.Fatalf("seed %d: victim out of range: %v", seed, ev)
			}
			if ev.Kind == KindPartition && len(ev.Minority) >= 2 {
				t.Fatalf("seed %d: partitioned a majority of 3 servers: %v", seed, ev)
			}
		}
	}
}

// TestCampaignSmoke runs one full campaign and requires every
// invariant to hold.
func TestCampaignSmoke(t *testing.T) {
	res, err := Run(Config{Seed: 7, Ops: 12, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("invariant violations: %v", res.Violations)
	}
	if res.Acked == 0 {
		t.Fatal("no operation was acknowledged during the campaign")
	}
	t.Logf("seed %d: acked=%d failed=%d retries=%d rebinds=%d suspected=%d removed=%d rejoined=%d",
		res.Seed, res.Acked, res.Failed, res.Retries, res.Rebinds, res.Suspected, res.Removed, res.Rejoined)
}

// TestCampaignConcurrentCallers runs a campaign with four concurrent
// caller goroutines per client process sharing each client's stub —
// the fault schedule plays out against genuinely concurrent replicated
// calls, and every survivability invariant (plus the trace conformance
// check inside Run) must still hold.
func TestCampaignConcurrentCallers(t *testing.T) {
	res, err := Run(Config{Seed: 11, Ops: 6, Callers: 4, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("invariant violations under concurrent callers: %v", res.Violations)
	}
	if res.Acked == 0 {
		t.Fatal("no operation was acknowledged during the campaign")
	}
	t.Logf("seed %d: acked=%d failed=%d retries=%d rebinds=%d suspected=%d removed=%d rejoined=%d",
		res.Seed, res.Acked, res.Failed, res.Retries, res.Rebinds, res.Suspected, res.Removed, res.Rejoined)
}

// TestCampaignMonitoredLinearized runs a campaign with always-on
// verification: the online monitor watches the trace stream live at
// full sampling, and clients interleave cross-client reads under
// quorum discipline (majority-acked writes, strict majority-view
// reads) whose history must linearize. Both layers must stay silent.
func TestCampaignMonitoredLinearized(t *testing.T) {
	res, err := Run(Config{Seed: 7, Ops: 12, Monitor: true, Linearize: true, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("invariant violations: %v", res.Violations)
	}
	if res.MonitorEvents == 0 {
		t.Fatal("monitor saw no events")
	}
	if res.MonitorSampled != res.MonitorEvents {
		t.Fatalf("full sampling retained %d of %d events", res.MonitorSampled, res.MonitorEvents)
	}
	if res.Reads == 0 || res.LinearOps == 0 || res.LinearKeys == 0 {
		t.Fatalf("linearizability layer idle: reads=%d ops=%d keys=%d",
			res.Reads, res.LinearOps, res.LinearKeys)
	}
	t.Logf("seed %d: acked=%d reads=%d monitor-events=%d linear ops=%d keys=%d",
		res.Seed, res.Acked, res.Reads, res.MonitorEvents, res.LinearOps, res.LinearKeys)
}

// TestCampaignMonitorSampled drives the same campaign with 1/8
// identity sampling: the monitor must retain a strict subset without
// inventing violations.
func TestCampaignMonitorSampled(t *testing.T) {
	res, err := Run(Config{Seed: 11, Ops: 12, Monitor: true, MonitorSample: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("invariant violations: %v", res.Violations)
	}
	if res.MonitorSampled == 0 || res.MonitorSampled >= res.MonitorEvents {
		t.Fatalf("1/8 sampling retained %d of %d events", res.MonitorSampled, res.MonitorEvents)
	}
}

// TestRebindDuringReconfiguration pins the acceptance scenario
// deterministically: the binding agent reconfigures the troupe while
// a client holds the old binding; the client's next call must succeed
// transparently via automatic rebind, with no error surfaced.
func TestRebindDuringReconfiguration(t *testing.T) {
	sim := circus.NewSimNetwork(99)
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
	var addrs []circus.ModuleAddr
	for i := 0; i < 3; i++ {
		n, err := sim.NewNode(circus.WithBinder(boot))
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		addr, err := n.Export("kv", NewKV())
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
	stub, err := cn.ImportResilient(ctx, "kv", circus.ResilientOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	args, _ := PutArgs("a", "1")
	if _, err := stub.Call(ctx, ProcPut, args, circus.WithTimeout(2*time.Second)); err != nil {
		t.Fatalf("call before reconfiguration: %v", err)
	}

	// Reconfigure behind the client's back: remove one member via a
	// different binder client, bumping the troupe ID (§6.2).
	if _, err := cn.Binder().RemoveMember(ctx, "kv", addrs[2]); err != nil {
		t.Fatal(err)
	}
	cn.Binder().InvalidateAll() // the stub must not ride the local cache

	args, _ = PutArgs("b", "2")
	if _, err := stub.Call(ctx, ProcPut, args, circus.WithTimeout(2*time.Second)); err != nil {
		t.Fatalf("call across reconfiguration surfaced an error: %v", err)
	}
	if got := stub.Stats().Rebinds; got < 1 {
		t.Fatalf("Rebinds = %d, want >= 1", got)
	}
	if stub.Troupe().Degree() != 2 {
		t.Fatalf("stub binding degree = %d after rebind, want 2", stub.Troupe().Degree())
	}
}
