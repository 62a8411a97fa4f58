package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"circus"
	"circus/internal/chaos/linear"
	"circus/internal/core"
	"circus/internal/mesh"
	"circus/internal/pairedmsg"
	"circus/internal/trace"
	"circus/internal/trace/check"
	"circus/internal/trace/monitor"
	"circus/internal/trace/rules"
	"circus/internal/wal"
)

// meshShard is one partition of the campaign's key space: a troupe of
// KV members behind ownership guards, with its own repairman.
type meshShard struct {
	name   string
	nodes  []*circus.Node
	kvs    []*KV
	guards []*mesh.Guard
	disks  []*wal.MemFS
	addrs  []circus.ModuleAddr
	repair *repairman
}

func shardName(i int) string { return fmt.Sprintf("kv/s%d", i) }

// meshWriteQuorum is writeQuorum adapted to routed calls: when no
// quorum forms because the members unanimously refused (the guard's
// wrong-shard or parked answer), it surfaces that refusal verbatim so
// the mesh client's routing layer can parse and absorb it. A mix of
// successes and refusals — the push of a new epoch racing the write —
// stays a retryable generic failure.
func meshWriteQuorum(need int) func(n int) circus.Collator {
	return func(n int) circus.Collator {
		return circus.NewCollator(n, func(items []circus.Reply) ([]byte, error) {
			counts := make(map[string]int)
			for _, it := range items {
				if it.Err != nil {
					continue
				}
				counts[string(it.Data)]++
			}
			for v, c := range counts {
				if c >= need {
					return []byte(v), nil
				}
			}
			var firstErr error
			agree := true
			for _, it := range items {
				if it.Err == nil {
					agree = false
					continue
				}
				if firstErr == nil {
					firstErr = it.Err
				} else if it.Err.Error() != firstErr.Error() {
					agree = false
				}
			}
			if firstErr != nil && agree {
				return nil, firstErr
			}
			return nil, fmt.Errorf("chaos: no write quorum (%d identical answers needed, view of %d)", need, n)
		})
	}
}

// runMesh executes the partitioned-mesh fault campaign: cfg.Shards
// consistent-hash shards of cfg.Servers members each (plus one spare),
// bootstrapped into a shard map, mesh clients routing a concurrent
// workload by key, per-shard repairmen sweeping, a live split
// migrating a range onto the spare mid-campaign, and a fault schedule
// that includes whole-shard kills and partitions. Afterwards the mesh
// must converge shard by shard with no acknowledged write lost at its
// final owner, the trace must pass the protocol conformance check,
// and (Linearize mode) the recorded history must be per-key
// linearizable across the epoch flips.
func runMesh(cfg Config) (*Result, error) {
	const service = "kv"
	if cfg.PlantStaleReadBug {
		mesh.PlantedStaleReadBug = true
		defer func() { mesh.PlantedStaleReadBug = false }()
	}
	res := &Result{Seed: cfg.Seed,
		Schedule: GenerateWith(cfg.Seed, cfg.Servers,
			Faults{Durable: cfg.Durable, RestartAll: cfg.RestartAll, Shards: cfg.Shards})}
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	sim := circus.NewSimNetwork(cfg.Seed)
	baseline := circus.LinkConfig{
		LossRate: 0.02,
		DupRate:  0.02,
		MinDelay: 200 * time.Microsecond,
		MaxDelay: 2 * time.Millisecond,
	}
	sim.SetLink(baseline)

	rec := trace.NewRecorder()
	var mon *monitor.Monitor
	var monSink trace.Sink
	if cfg.Monitor {
		mon = monitor.New(monitor.Options{
			SampleRate: cfg.MonitorSample,
			OnViolation: func(v rules.Violation) {
				cfg.Log("seed %d: monitor: %s", cfg.Seed, v)
			},
		})
		monSink = trace.FilterKinds(mon, mon.TraceKinds())
	}
	sink := trace.Multi(rec, cfg.Trace, monSink)

	binderNode, err := sim.NewNode(circus.WithTrace(sink))
	if err != nil {
		return nil, err
	}
	defer binderNode.Close()
	if _, err := binderNode.ServeRingmaster(); err != nil {
		return nil, err
	}
	boot := binderNode.BinderAddrs()
	nodeOpts := []circus.Option{circus.WithBinder(boot),
		circus.WithAdaptiveRetransmit(), circus.WithTrace(sink)}

	// The shard troupes: cfg.Shards in the bootstrap map, plus one
	// spare the live split will carve a range onto. Every member is an
	// ownership guard wrapping a KV (durable when configured).
	total := cfg.Shards + 1
	shards := make([]*meshShard, total)
	resilient := func(seed int64) core.ResilientOptions {
		return core.ResilientOptions{
			MaxAttempts:  10,
			Backoff:      core.Backoff{Initial: 15 * time.Millisecond, Max: 250 * time.Millisecond},
			SuspicionTTL: 400 * time.Millisecond,
			Seed:         seed,
		}
	}
	for s := 0; s < total; s++ {
		sh := &meshShard{name: shardName(s)}
		for i := 0; i < cfg.Servers; i++ {
			n, err := sim.NewNode(nodeOpts...)
			if err != nil {
				return nil, err
			}
			defer n.Close()
			sh.nodes = append(sh.nodes, n)
			var kv *KV
			if cfg.Durable {
				disk := wal.NewMemFS(cfg.Seed ^ int64(0xd15c<<12|s<<8|i))
				log, recv, err := wal.Open(wal.Options{
					FS:            disk,
					SegmentBytes:  1 << 16,
					SnapshotEvery: cfg.SnapshotEvery,
					Trace:         sink,
					Name:          fmt.Sprintf("kv%d.%d", s, i),
				})
				if err != nil {
					return nil, err
				}
				kv, err = NewDurableKV(log, recv)
				if err != nil {
					return nil, err
				}
				sh.disks = append(sh.disks, disk)
			} else {
				kv = NewKV()
				sh.disks = append(sh.disks, nil)
			}
			guard := mesh.NewGuard(sh.name, kv, KVKeys)
			addr, err := n.Export(sh.name, guard)
			if err != nil {
				return nil, err
			}
			sh.kvs = append(sh.kvs, kv)
			sh.guards = append(sh.guards, guard)
			sh.addrs = append(sh.addrs, addr)
		}
		shards[s] = sh
	}

	// One administrative node runs the migration controller; each
	// shard gets its own repairman machine, as in the single-troupe
	// campaign.
	admin, err := sim.NewNode(nodeOpts...)
	if err != nil {
		return nil, err
	}
	defer admin.Close()
	ctl := mesh.NewController(admin.Runtime(), admin.Binder(), service, KVCodec{})
	ctl.Resilient = resilient(cfg.Seed ^ 0xc01)
	ctl.MinCopyDonors = cfg.Servers/2 + 1
	// A park only protects the migration once so many members hold it
	// that the remaining stragglers cannot form a write quorum.
	ctl.PushQuorum = cfg.Servers/2 + 1
	ctl.Log = func(format string, args ...any) { cfg.Log("seed %d: "+format, append([]any{cfg.Seed}, args...)...) }
	for _, sh := range shards {
		rn, err := sim.NewNode(nodeOpts...)
		if err != nil {
			return nil, err
		}
		defer rn.Close()
		sh.repair = &repairman{node: rn, name: sh.name, addrs: sh.addrs, log: cfg.Log}
	}

	initial := make([]string, cfg.Shards)
	for s := range initial {
		initial[s] = shardName(s)
	}
	bootMap, err := ctl.Bootstrap(ctx, initial, 0)
	if err != nil {
		return nil, err
	}
	// The spare learns the map too: until the split admits it, its
	// guard must refuse keyed traffic rather than serve it.
	pushMap := func(name string, m *mesh.ShardMap) error {
		data, err := m.Encode()
		if err != nil {
			return err
		}
		rc, err := admin.Binder().NewResilientCaller(ctx, name, ctl.Resilient)
		if err != nil {
			return err
		}
		_, err = rc.Call(ctx, mesh.ProcSetShardMap, data, core.CallOptions{})
		return err
	}
	spare := shardName(cfg.Shards)
	if err := pushMap(spare, bootMap); err != nil {
		return nil, err
	}

	// The clients, each on its own machine, routing by key through the
	// shard map.
	type client struct {
		node *circus.Node
		mc   *mesh.Client
	}
	clients := make([]client, cfg.Clients)
	for i := range clients {
		n, err := sim.NewNode(nodeOpts...)
		if err != nil {
			return nil, err
		}
		defer n.Close()
		mc, err := mesh.NewClient(ctx, n.Runtime(), n.Binder(), service,
			mesh.Options{Resilient: resilient(cfg.Seed<<8 | int64(i))})
		if err != nil {
			return nil, err
		}
		clients[i] = client{node: n, mc: mc}
	}
	if cfg.SpreadReads {
		// Spread-read campaigns also exercise the push half of the map
		// distribution: every client registers as a Ringmaster watcher,
		// so epoch flips arrive as pushes and steady-state traffic never
		// needs a refusal-driven refetch. The pull path stays as the
		// fallback for anything a push misses.
		for _, cl := range clients {
			if err := cl.mc.EnableWatch(ctx); err != nil {
				return nil, err
			}
		}
	}

	powerLoss := func(s, i int) {
		sh := shards[s]
		sim.Crash(sh.nodes[i])
		if cfg.Durable {
			sh.disks[i].Crash()
		}
	}
	powerOn := func(s, i int) {
		sh := shards[s]
		if cfg.Durable && sh.disks[i].Crashed() {
			sh.disks[i].Restart()
			if err := sh.kvs[i].Restart(); err != nil {
				cfg.Log("seed %d: s%d.%d recovery failed: %v", cfg.Seed, s, i, err)
			} else {
				res.Recoveries++
			}
		}
		sim.Restart(sh.nodes[i])
		// The member may have slept through epoch flips; the binder
		// holds the newest published map, and Install is forward-only,
		// so refetching is always safe.
		fctx, fcancel := context.WithTimeout(ctx, 500*time.Millisecond)
		if m, err := mesh.FetchShardMap(fctx, sh.nodes[i].Binder(), service); err == nil {
			sh.guards[i].Install(m)
		}
		fcancel()
	}

	// Launch the client workload (as in the single-troupe campaign:
	// unique keys, immutable values, so retries are idempotent and
	// cross-replica equality is meaningful).
	var (
		mu    sync.Mutex
		acked = make(map[string]string)
	)
	var failed, reads int
	var hist *linear.History
	majority := cfg.Servers/2 + 1
	if cfg.Linearize {
		hist = linear.NewHistory()
	}
	scheduleDone := make(chan struct{})
	var wg sync.WaitGroup
	for ci := range clients {
		for gi := 0; gi < cfg.Callers; gi++ {
			ci, gi := ci, gi
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(cfg.Seed ^ int64(0x5eed<<16|ci<<8|gi)))
				for op := 0; ; op++ {
					if op >= cfg.Ops {
						select {
						case <-scheduleDone:
							return
						default:
						}
					}
					key := fmt.Sprintf("c%d.g%d.k%d", ci, gi, op)
					val := fmt.Sprintf("v%d.%s", cfg.Seed, key)
					args, _ := circus.Marshal(kvPair{Key: key, Val: val})
					// Every mesh write acks by quorum (unlike the
					// single-troupe campaign, where a one-member ack is
					// eventually spread by repair): the migration copy
					// draws dumps from a majority of members, and only
					// quorum intersection guarantees an acked record is
					// among them. A one-member ack on a straggler the
					// park never reached would be invisible to the copy
					// and lost at the epoch flip.
					copts := core.CallOptions{Timeout: 600 * time.Millisecond,
						Collator: meshWriteQuorum(majority)}
					var pend *linear.Pending
					if hist != nil {
						pend = hist.Invoke(ci*cfg.Callers+gi, linear.Write, key, val)
					}
					_, err := clients[ci].mc.Call(ctx, key, ProcPut, args, copts)
					if pend != nil {
						if err == nil {
							pend.Done("")
						} else {
							pend.Fail() // indeterminate
						}
					}
					mu.Lock()
					if err == nil {
						acked[key] = val
					} else {
						failed++
					}
					mu.Unlock()
					if hist != nil && rng.Float64() < cfg.ReadFrac {
						rkey := readKey(rng, cfg, op)
						if cfg.SpreadReads {
							// Spread read: one member, chosen by the client's
							// rotation, answering only at or past the client's
							// position token. The invoke is recorded before
							// the call — a late start would unsoundly narrow
							// the operation's window. Campaign keys are
							// write-once, so a present value is the value and
							// is recorded directly; an absent answer is only a
							// session-level fact (another client's acked write
							// may not have reached this member), so absence is
							// confirmed by the strict majority read before it
							// constrains the history, and dropped otherwise.
							rp := hist.Invoke(ci*cfg.Callers+gi, linear.Read, rkey, "")
							out, rerr := clients[ci].mc.SpreadRead(ctx, rkey, ProcGet, []byte(rkey),
								core.CallOptions{Timeout: 300 * time.Millisecond, Collator: strictRead})
							switch {
							case rerr == nil && len(out) > 0:
								rp.Done(string(out))
								mu.Lock()
								reads++
								mu.Unlock()
							case rerr == nil:
								if _, rc, err := clients[ci].mc.ShardCaller(ctx, rkey); err == nil {
									if tr := rc.Troupe(); tr.Degree() >= majority {
										out, rerr = clients[ci].node.StubFor(tr).
											Call(ctx, ProcGet, []byte(rkey), circus.WithTimeout(300*time.Millisecond),
												circus.WithCollator(strictRead))
										if rerr == nil {
											rp.Done(string(out))
											mu.Lock()
											reads++
											mu.Unlock()
										}
									}
								}
							}
						} else if _, rc, err := clients[ci].mc.ShardCaller(ctx, rkey); err == nil {
							// Strict read of a key some caller may have written,
							// routed to its owner shard but collated over the
							// full member view — every member of a
							// majority-sized view must answer identically, or
							// the read is dropped as unanswered (see the
							// single-troupe campaign for why). The guard's
							// refusals land as member errors, so a read against
							// a mid-migration or mis-routed shard simply drops.
							if tr := rc.Troupe(); tr.Degree() >= majority {
								rp := hist.Invoke(ci*cfg.Callers+gi, linear.Read, rkey, "")
								out, rerr := clients[ci].node.StubFor(tr).
									Call(ctx, ProcGet, []byte(rkey), circus.WithTimeout(300*time.Millisecond),
										circus.WithCollator(strictRead))
								if rerr == nil {
									rp.Done(string(out))
									mu.Lock()
									reads++
									mu.Unlock()
								}
							}
						}
					}
					time.Sleep(time.Duration(10+rng.Intn(20)) * time.Millisecond)
				}
			}()
		}
	}

	// Per-shard repairmen sweep concurrently with the faults.
	repairCtx, stopRepair := context.WithCancel(ctx)
	var repairWG sync.WaitGroup
	for _, sh := range shards {
		sh := sh
		repairWG.Add(1)
		go func() {
			defer repairWG.Done()
			for repairCtx.Err() == nil {
				sh.repair.sweep(repairCtx, false)
				select {
				case <-repairCtx.Done():
				case <-time.After(150 * time.Millisecond):
				}
			}
		}()
	}

	// The live split: mid-schedule, while faults fly and traffic
	// flows, migrate the spare's consistent-hash range onto it. A
	// migration that collides with a whole-shard fault rolls back (the
	// dump floor refuses partial copies) and is retried; the campaign
	// must end with the split committed.
	splitDone := make(chan error, 1)
	go func() {
		delay := res.Schedule.Span() * 2 / 5
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			splitDone <- ctx.Err()
			return
		}
		var serr error
		for attempt := 1; ; attempt++ {
			serr = ctl.Split(ctx, spare)
			if serr == nil || strings.Contains(serr.Error(), "already in the map") {
				serr = nil
				break
			}
			res.SplitRollbacks++
			cfg.Log("seed %d: live split attempt %d rolled back: %v", cfg.Seed, attempt, serr)
			if attempt >= 5 || ctx.Err() != nil {
				break
			}
			time.Sleep(400 * time.Millisecond)
		}
		splitDone <- serr
	}()

	// Apply the fault schedule.
	allNodes := func(except *meshShard, exceptMembers map[int]bool) []*circus.Node {
		var out []*circus.Node
		out = append(out, binderNode, admin)
		for _, sh := range shards {
			for i, n := range sh.nodes {
				if sh == except && (exceptMembers == nil || exceptMembers[i]) {
					continue
				}
				out = append(out, n)
			}
			out = append(out, sh.repair.node)
		}
		for _, c := range clients {
			out = append(out, c.node)
		}
		return out
	}
	start := time.Now()
	for _, ev := range res.Schedule.Events {
		if d := time.Until(start.Add(ev.At)); d > 0 {
			time.Sleep(d)
		}
		cfg.Log("seed %d: %v", cfg.Seed, ev)
		switch ev.Kind {
		case KindCrash:
			powerLoss(ev.Shard, ev.Server)
		case KindRestart:
			powerOn(ev.Shard, ev.Server)
		case KindKillAll:
			for s := range shards {
				for i := range shards[s].nodes {
					powerLoss(s, i)
				}
			}
		case KindRestartAll:
			for s := range shards {
				for i := range shards[s].nodes {
					powerOn(s, i)
				}
			}
		case KindShardKill:
			for i := range shards[ev.Shard].nodes {
				powerLoss(ev.Shard, i)
			}
		case KindShardRestart:
			for i := range shards[ev.Shard].nodes {
				powerOn(ev.Shard, i)
			}
		case KindShardPartition:
			sh := shards[ev.Shard]
			sim.Partition(allNodes(sh, nil), sh.nodes)
		case KindShardHeal, KindHeal:
			sim.Heal()
		case KindDiskFull:
			shards[ev.Shard].disks[ev.Server].FillDisk()
		case KindDiskSlow:
			shards[ev.Shard].disks[ev.Server].SetSyncDelay(2 * time.Millisecond)
		case KindDiskHeal:
			shards[ev.Shard].disks[ev.Server].SetQuota(0)
			shards[ev.Shard].disks[ev.Server].SetSyncDelay(0)
			shards[ev.Shard].disks[ev.Server].FailSyncs(false)
		case KindPartition:
			sh := shards[ev.Shard]
			isolated := make(map[int]bool)
			var minority []*circus.Node
			for _, mi := range ev.Minority {
				minority = append(minority, sh.nodes[mi])
				isolated[mi] = true
			}
			sim.Partition(allNodes(sh, isolated), minority)
		case KindLossBurst:
			burst := baseline
			burst.LossRate = ev.Loss
			sim.SetLink(burst)
		case KindLossEnd:
			sim.SetLink(baseline)
		}
	}

	// Quiesce: faults healed, every machine up, split settled.
	serr := <-splitDone
	close(scheduleDone)
	wg.Wait()
	sim.Heal()
	sim.SetLink(baseline)
	for s, sh := range shards {
		for i := range sh.nodes {
			if cfg.Durable {
				sh.disks[i].SetQuota(0)
				sh.disks[i].SetSyncDelay(0)
				sh.disks[i].FailSyncs(false)
			}
			powerOn(s, i)
		}
	}
	time.Sleep(300 * time.Millisecond)
	if serr != nil {
		// The schedule denied every mid-campaign attempt; the split
		// must still commit now that the field is calm — a live
		// rebalance that cannot complete after faults heal is a
		// failure in its own right.
		if serr = ctl.Split(ctx, spare); serr != nil &&
			!strings.Contains(serr.Error(), "already in the map") {
			res.Violations = append(res.Violations,
				fmt.Sprintf("live split never completed: %v", serr))
		}
	}
	stopRepair()
	repairWG.Wait()
	// Re-push the final map everywhere (a guard that slept through the
	// flip behind a partition would refuse its keys forever), then
	// force the per-shard union reconciliations.
	if m, err := mesh.FetchShardMap(ctx, admin.Binder(), service); err == nil {
		for _, sh := range shards {
			if err := pushMap(sh.name, m); err != nil {
				cfg.Log("seed %d: final map push to %s failed: %v", cfg.Seed, sh.name, err)
			}
		}
	}
	for _, sh := range shards {
		for i := 0; i < 4; i++ {
			if sh.repair.sweep(ctx, true) {
				break
			}
			time.Sleep(150 * time.Millisecond)
		}
	}
	time.Sleep(200 * time.Millisecond)

	// Harvest counters.
	res.Acked = len(acked)
	res.Failed = failed
	res.Reads = reads
	for _, c := range clients {
		st := c.mc.Stats()
		res.Redirects += st.Redirects
		res.Parks += st.Parks
		res.MapRefreshes += st.Refreshes
		res.SpreadReads += st.SpreadReads
		res.StaleBounces += st.StaleBounces
		res.Escalations += st.Escalations
		res.HotWidenings += st.HotWidenings
		res.MapPushes += st.MapPushes
		res.StaleServes += st.StaleServes
	}
	if res.StaleServes > 0 {
		// A member answered a spread read from below the demanded
		// position token. The clients discard such answers, so the
		// recorded history stays clean — but the guard is broken, and a
		// campaign that sees one must fail. This is how the planted
		// stale-read defect is caught.
		res.Violations = append(res.Violations,
			fmt.Sprintf("spread reads: %d answers below the client's position token (stale-read guard defect)",
				res.StaleServes))
	}
	for _, sh := range shards {
		res.Removed += sh.repair.removed
		res.Rejoined += sh.repair.rejoined
		res.DeltaTransfers += sh.repair.deltaTransfers
		res.DeltaBytes += sh.repair.deltaBytes
		res.FullTransfers += sh.repair.fullTransfers
		res.FullBytes += sh.repair.fullBytes
		if cfg.Durable {
			for _, kv := range sh.kvs {
				st := kv.WAL().Stats()
				res.Fsyncs += st.Fsyncs
				res.Snapshots += st.Snapshots
			}
		}
	}

	// Invariants: mesh-level application checks, then the recorded
	// trace through the protocol conformance checker.
	final, err := mesh.FetchShardMap(ctx, admin.Binder(), service)
	if err != nil {
		res.Violations = append(res.Violations, fmt.Sprintf("final shard map unavailable: %v", err))
	} else {
		res.Violations = append(res.Violations, meshCheck(shards, final, acked)...)
	}
	conf := check.Check(rec.Events(), check.Config{
		Adaptive: true,
		MinRTO:   pairedmsg.MinRTO,
		// The mesh campaign hosts several times the machines of the
		// single-troupe one in a single OS process, so a retransmit
		// timer can fire tens of milliseconds late and fold that skew
		// into the measured gap sequence. 0.3 absorbs the skew while
		// still flagging a genuine backoff reset, which collapses to
		// the 2 ms floor (a far smaller ratio).
		Tolerance: 0.3,
	})
	res.Violations = append(res.Violations, check.Strings(conf)...)
	nodes := []*circus.Node{binderNode, admin}
	for _, sh := range shards {
		nodes = append(append(nodes, sh.repair.node), sh.nodes...)
	}
	for _, c := range clients {
		nodes = append(nodes, c.node)
	}
	res.Violations = append(res.Violations, tableCheck(nodes, rec.Events())...)
	if mon != nil {
		st := mon.Stats()
		res.MonitorEvents = st.Events
		res.MonitorSampled = st.Sampled
		for _, v := range mon.Violations() {
			res.Violations = append(res.Violations, "monitor: "+v.String())
		}
	}
	if hist != nil {
		lin := linear.Check(hist.Ops(), 0)
		res.LinearOps = lin.Ops
		res.LinearKeys = lin.Keys
		if !lin.Linearizable {
			res.Violations = append(res.Violations,
				fmt.Sprintf("linearizability: key %q: %s", lin.Key, lin.Explanation))
		}
		for _, k := range lin.Exhausted {
			cfg.Log("seed %d: linearizability search exhausted on key %q (inconclusive)", cfg.Seed, k)
		}
	}
	return res, nil
}

// meshCheck verifies the post-quiescence mesh invariants: per-member
// exactly-once execution, per-shard state convergence, and every
// acknowledged update present at its owner shard under the final map.
// Old owners may retain stale copies of migrated keys (cleanup is
// best-effort and repair may resurrect them); they are unreachable
// behind the wrong-shard check and are not a violation.
func meshCheck(shards []*meshShard, final *mesh.ShardMap, acked map[string]string) []string {
	var v []string
	snaps := make(map[string][]map[string]string, len(shards))
	for s, sh := range shards {
		for i, kv := range sh.kvs {
			for _, viol := range kv.Violations() {
				v = append(v, fmt.Sprintf("shard %d member %d: %s", s, i, viol))
			}
			snaps[sh.name] = append(snaps[sh.name], kv.Snapshot())
		}
		for i := 1; i < len(snaps[sh.name]); i++ {
			if diff := diffMaps(snaps[sh.name][0], snaps[sh.name][i]); diff != "" {
				v = append(v, fmt.Sprintf("shard %d members 0 and %d diverge: %s", s, i, diff))
			}
		}
	}
	ring := final.Ring()
	lost, corrupted := 0, 0
	for key, val := range acked {
		owner := ring.Owner(key)
		members, ok := snaps[owner]
		if !ok || len(members) == 0 {
			v = append(v, fmt.Sprintf("acknowledged update %q owned by unknown shard %q", key, owner))
			continue
		}
		got, ok := members[0][key]
		switch {
		case !ok:
			if lost++; lost <= 4 {
				v = append(v, fmt.Sprintf("acknowledged update %q lost (owner %s)", key, owner))
			}
		case got != val:
			if corrupted++; corrupted <= 4 {
				v = append(v, fmt.Sprintf("acknowledged update %q corrupted at %s: %q != %q", key, owner, got, val))
			}
		}
	}
	if lost > 4 {
		v = append(v, fmt.Sprintf("... and %d more lost updates", lost-4))
	}
	if corrupted > 4 {
		v = append(v, fmt.Sprintf("... and %d more corrupted updates", corrupted-4))
	}
	return v
}
