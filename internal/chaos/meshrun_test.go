package chaos

import (
	"testing"
)

func TestMeshScheduleShardFaults(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		s := GenerateWith(seed, 3, Faults{Durable: true, Shards: 2})
		have := make(map[Kind]int)
		for _, ev := range s.Events {
			have[ev.Kind]++
			switch ev.Kind {
			case KindShardKill, KindShardRestart, KindShardPartition:
				if ev.Shard < 0 || ev.Shard >= 2 {
					t.Fatalf("seed %d: shard victim out of range: %v", seed, ev)
				}
			case KindCrash, KindRestart, KindDiskFull, KindDiskSlow:
				if ev.Shard < 0 || ev.Shard >= 2 || ev.Server < 0 || ev.Server >= 3 {
					t.Fatalf("seed %d: member victim out of range: %v", seed, ev)
				}
			}
		}
		if have[KindShardPartition] == 0 || have[KindShardKill] == 0 {
			t.Fatalf("seed %d: durable mesh schedule lacks shard faults: %v", seed, s.Events)
		}
		if have[KindShardKill] != have[KindShardRestart] || have[KindShardPartition] != have[KindShardHeal] {
			t.Fatalf("seed %d: unbalanced shard faults: %v", seed, s.Events)
		}
	}
	// Single-troupe schedules must be unchanged by the mesh feature:
	// the shard draws are gated on Shards > 1.
	for seed := int64(1); seed <= 10; seed++ {
		for _, ev := range GenerateWith(seed, 3, Faults{Durable: true}).Events {
			switch ev.Kind {
			case KindShardKill, KindShardRestart, KindShardPartition, KindShardHeal:
				t.Fatalf("seed %d: single-troupe schedule drew a shard fault: %v", seed, ev)
			}
		}
	}
}

// TestMeshCampaignSmoke runs the partitioned-mesh fault campaign: two
// consistent-hash shards plus a live split onto a spare while a
// whole-shard partition (among other faults) plays out. Every shard
// must converge and no acknowledged write may be lost at its final
// owner.
func TestMeshCampaignSmoke(t *testing.T) {
	res, err := Run(Config{Seed: 21, Shards: 2, Ops: 10, Callers: 2, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("invariant violations: %v", res.Violations)
	}
	if res.Acked == 0 {
		t.Fatal("no operation was acknowledged during the campaign")
	}
	t.Logf("seed %d: acked=%d failed=%d redirects=%d parks=%d refreshes=%d rollbacks=%d removed=%d rejoined=%d",
		res.Seed, res.Acked, res.Failed, res.Redirects, res.Parks, res.MapRefreshes,
		res.SplitRollbacks, res.Removed, res.Rejoined)
}

// TestMeshCampaignDurableLinearized is the full gauntlet: durable
// members (so the schedule includes a whole-shard power loss),
// quorum-disciplined writes, strict reads, and a per-key
// linearizability check spanning the live split's epoch flips.
func TestMeshCampaignDurableLinearized(t *testing.T) {
	res, err := Run(Config{Seed: 22, Shards: 2, Ops: 8, Callers: 2, Durable: true, Linearize: true, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("invariant violations: %v", res.Violations)
	}
	if res.Acked == 0 {
		t.Fatal("no operation was acknowledged during the campaign")
	}
	if res.LinearOps == 0 {
		t.Fatal("linearizability checker saw no operations")
	}
	t.Logf("seed %d: acked=%d failed=%d reads=%d linear ops=%d keys=%d recoveries=%d rollbacks=%d",
		res.Seed, res.Acked, res.Failed, res.Reads, res.LinearOps, res.LinearKeys,
		res.Recoveries, res.SplitRollbacks)
}

// TestMeshCampaignSpreadReads runs the mesh campaign with the
// spread-read workload: linearized reads routed to one member each
// under position tokens, Zipf-skewed keys exercising the hot-key
// widening, and clients pulling each new shard map after a
// wrong-shard refusal. The recorded history must stay per-key linearizable through the
// faults, the bounce/escalate ladder, and the live split — and no
// member may ever answer below a client's token.
func TestMeshCampaignSpreadReads(t *testing.T) {
	res, err := Run(Config{Seed: 31, Shards: 2, Ops: 8, Callers: 2,
		Linearize: true, SpreadReads: true, Zipf: 1.2, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("invariant violations: %v", res.Violations)
	}
	if res.Acked == 0 {
		t.Fatal("no operation was acknowledged during the campaign")
	}
	if res.SpreadReads == 0 {
		t.Fatal("campaign recorded no spread reads")
	}
	if res.StaleServes != 0 {
		t.Fatalf("members answered %d spread reads below the token", res.StaleServes)
	}
	t.Logf("seed %d: acked=%d reads=%d spread=%d bounces=%d escalations=%d widened=%d linear ops=%d",
		res.Seed, res.Acked, res.Reads, res.SpreadReads, res.StaleBounces,
		res.Escalations, res.HotWidenings, res.LinearOps)
}
