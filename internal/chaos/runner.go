package chaos

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"circus"
	"circus/internal/chaos/linear"
	"circus/internal/pairedmsg"
	"circus/internal/trace"
	"circus/internal/trace/check"
	"circus/internal/trace/monitor"
	"circus/internal/trace/rules"
	"circus/internal/wal"
)

// Config parameterizes one campaign.
type Config struct {
	// Seed drives the network's fault injection, the schedule, the
	// clients' pacing, and the resilient stubs' jitter: two runs with
	// the same Config apply the same schedule.
	Seed int64
	// Servers is the KV troupe degree. Default 3.
	Servers int
	// Shards, when above one, runs the mesh campaign instead of the
	// single-troupe one: Shards consistent-hash partitions of the key
	// space, each its own troupe of Servers members behind an
	// ownership guard, clients routing through the shard map, and a
	// live split migrating a range onto a spare shard while the fault
	// schedule (including whole-shard kills and partitions) plays out.
	Shards int
	// Clients is the number of concurrent client processes. Default 3.
	Clients int
	// Ops is the number of put operations per client caller. Default 30.
	Ops int
	// Callers is the number of concurrent caller goroutines per client
	// process, all sharing that client's resilient stub — exercising
	// the sharded message layer and parallel dispatch under faults.
	// Default 1 (the historical serial client).
	Callers int
	// Durable gives every server an injectable in-memory disk and a
	// write-ahead log: acked writes are fsynced before the reply, a
	// crash becomes a power loss (page cache discarded, log tail
	// possibly torn), and the schedule may add disk faults.
	Durable bool
	// RestartAll additionally schedules a whole-troupe power loss —
	// the failure mode replication cannot mask, survivable only
	// because of the logs. Requires Durable.
	RestartAll bool
	// SnapshotEvery is the per-member snapshot cadence in log records
	// (durable mode). Default 64.
	SnapshotEvery int
	// Monitor runs the online runtime monitor live against the trace
	// stream for the whole campaign: protocol violations are reported
	// the moment the offending event is emitted, not at post-mortem.
	Monitor bool
	// MonitorSample is the monitor's 1-in-N identity sampling rate
	// (0 or 1 = observe everything). Sampling is per call path and per
	// conversation, so a sampled identity is always seen whole.
	MonitorSample int
	// Linearize interleaves reads into the put workload, records every
	// operation's invocation/response window, and checks the history
	// for per-key linearizability at the end of the campaign. The
	// linearized clients opt into quorum discipline — writes ack only
	// on a majority of the original degree, reads demand identical
	// answers from every member of a majority-sized view — because
	// that is the collation choice under which this system IS
	// linearizable: the default ack-from-whoever-answered collation
	// can ack a write on a member the repairman is concurrently
	// removing from the binding, and such a write is legitimately
	// invisible until the member rejoins and merges.
	Linearize bool
	// SpreadReads routes the linearized mesh clients' reads through the
	// spread-read path — one member per read, chosen by load-aware
	// rotation, carrying the client's position token — instead of the
	// strict replicated read. A value answer is recorded directly
	// (campaign keys are write-once, so a present value is always the
	// value); an absent answer is inconclusive under the token's session
	// guarantee and is confirmed by the strict majority read before it
	// is recorded. Requires Shards > 1 and Linearize.
	SpreadReads bool
	// ReadFrac is the probability each caller follows a write with a
	// read (Linearize mode). Default 0.5.
	ReadFrac float64
	// Zipf, when > 1, skews read-key popularity with a Zipfian
	// distribution of that exponent, so a handful of keys soak up most
	// reads — the workload the spread path's hot-key widening must
	// absorb. <= 1 keeps the uniform choice.
	Zipf float64
	// PlantStaleReadBug plants the guard-side defect that answers
	// spread reads from below the demanded position token. The clients'
	// reply-position audit must catch it: a campaign with the bug
	// planted must report a violation. Test-only; requires SpreadReads.
	PlantStaleReadBug bool
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)
	// Trace, when set, additionally receives every node's trace events
	// (e.g. a JSONL exporter). The campaign always records events
	// internally for the protocol conformance checker regardless.
	Trace trace.Sink
}

func (c Config) withDefaults() Config {
	if c.Servers == 0 {
		c.Servers = 3
	}
	if c.Clients == 0 {
		c.Clients = 3
	}
	if c.Ops == 0 {
		c.Ops = 30
	}
	if c.Callers == 0 {
		c.Callers = 1
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 64
	}
	if c.ReadFrac == 0 {
		c.ReadFrac = 0.5
	}
	if c.Log == nil {
		c.Log = func(string, ...any) {}
	}
	return c
}

// Result is the outcome of one campaign.
type Result struct {
	Seed     int64
	Schedule Schedule
	// Acked and Failed count client put operations: Acked operations
	// are covered by the no-lost-update invariant; Failed ones are
	// indeterminate (they may or may not have executed) but must still
	// be value-consistent wherever they surface.
	Acked  int
	Failed int
	// Rebinds, Retries, and Suspected aggregate the resilient stubs'
	// recovery counters.
	Rebinds   int64
	Retries   int64
	Suspected int64
	// Removed and Rejoined count binding-agent reconfigurations
	// performed by the repairman.
	Removed  int
	Rejoined int
	// DeltaTransfers/DeltaBytes and FullTransfers/FullBytes break down
	// how rejoining members were re-initialized: log-suffix transfers
	// vs full-state fallbacks.
	DeltaTransfers int
	DeltaBytes     int64
	FullTransfers  int
	FullBytes      int64
	// Recoveries, Fsyncs, and Snapshots aggregate the members' WAL
	// activity (durable mode).
	Recoveries int
	Fsyncs     uint64
	Snapshots  uint64
	// MonitorEvents/MonitorSampled count what the online monitor saw
	// and retained (Monitor mode); monitor violations land in
	// Violations like any other breach.
	MonitorEvents  uint64
	MonitorSampled uint64
	// Reads counts successful read operations; LinearOps and LinearKeys
	// count the checked history (Linearize mode).
	Reads      int
	LinearOps  int
	LinearKeys int
	// Redirects, Parks, and MapRefreshes aggregate the mesh clients'
	// routing recoveries; SplitRollbacks counts live-split attempts
	// the fault schedule forced into rollback before one stuck
	// (mesh campaigns).
	Redirects      int64
	Parks          int64
	MapRefreshes   int64
	SplitRollbacks int
	// SpreadReads through StaleServes aggregate the spread-read path
	// (mesh campaigns with SpreadReads): reads served by one member,
	// stale refusals bounced past, escalations to the strict replicated
	// read, hot-key widenings, shard maps installed from Ringmaster
	// pushes, and — always a violation — answers below the client's
	// position token.
	SpreadReads  int64
	StaleBounces int64
	Escalations  int64
	HotWidenings int64
	MapPushes    int64
	StaleServes  int64
	// Violations lists every invariant breach; empty means the troupe
	// survived the campaign.
	Violations []string
}

// writeQuorum collates a linearized put's replies: success requires
// `need` (a majority of the troupe's original degree) identical
// successful answers, regardless of how small the attempt's view is.
// With it, an acked write provably resides on a majority of the
// original members — the other half of the quorum-intersection
// argument that makes the recorded history linearizable. An attempt
// against a too-small or partly unreachable view simply fails and is
// recorded as indeterminate.
func writeQuorum(need int) func(n int) circus.Collator {
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
			return nil, fmt.Errorf("chaos: no write quorum (%d identical answers needed, view of %d)", need, n)
		})
	}
}

// strictRead collates the linearizability probes' replies: every
// member of the view must answer, successfully and bit-identically.
// Unlike the default unanimous collator it does NOT exclude failed
// members — a reply assembled from a surviving subset could come from
// a single state-lagging member mid-repair, which is exactly the
// stale read the probe must treat as unanswered, not as an answer.
func strictRead(n int) circus.Collator {
	return circus.NewCollator(n, func(items []circus.Reply) ([]byte, error) {
		if len(items) < n {
			return nil, fmt.Errorf("chaos: %d of %d members answered", len(items), n)
		}
		for _, it := range items {
			if it.Err != nil {
				return nil, fmt.Errorf("chaos: member %d failed: %w", it.Member, it.Err)
			}
		}
		for _, it := range items[1:] {
			if !bytes.Equal(it.Data, items[0].Data) {
				return nil, circus.ErrDisagreement
			}
		}
		return items[0].Data, nil
	})
}

// readKey picks which caller's key a read probe targets — often
// another client's, so reads cross replicas the writer never talked
// to. With Zipf skew the flattened (client, caller, op) rank space is
// sampled Zipfian-ly, making rank 0 — c0.g0.k0 — soak up most reads:
// the hot-key workload the spread path's widening detector must
// absorb. Without skew every written key is equally likely.
func readKey(rng *rand.Rand, cfg Config, op int) string {
	nc, ng := cfg.Clients, cfg.Callers
	if cfg.Zipf > 1 {
		z := rand.NewZipf(rng, cfg.Zipf, 1, uint64(nc*ng*(op+1))-1)
		r := int(z.Uint64())
		return fmt.Sprintf("c%d.g%d.k%d", r%nc, (r/nc)%ng, r/(nc*ng))
	}
	return fmt.Sprintf("c%d.g%d.k%d", rng.Intn(nc), rng.Intn(ng), rng.Intn(op+1))
}

// Run executes one fault campaign: build a replicated KV troupe with
// a binding agent and a repairman, launch concurrent clients through
// resilient stubs, apply the seeded fault schedule, then quiesce,
// repair, and check the invariants.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.RestartAll && !cfg.Durable {
		return nil, fmt.Errorf("chaos: RestartAll requires Durable (a whole-troupe power loss without logs loses everything)")
	}
	if cfg.SpreadReads {
		if cfg.Shards <= 1 {
			return nil, fmt.Errorf("chaos: SpreadReads requires Shards > 1 (the spread path is the mesh client's read path)")
		}
		if !cfg.Linearize {
			return nil, fmt.Errorf("chaos: SpreadReads requires Linearize (the spread workload is the linearized read probe)")
		}
	}
	if cfg.PlantStaleReadBug && !cfg.SpreadReads {
		return nil, fmt.Errorf("chaos: PlantStaleReadBug requires SpreadReads (the defect lives on the spread-read path)")
	}
	if cfg.Shards > 1 {
		return runMesh(cfg)
	}
	res := &Result{Seed: cfg.Seed,
		Schedule: GenerateWith(cfg.Seed, cfg.Servers, Faults{Durable: cfg.Durable, RestartAll: cfg.RestartAll})}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	sim := circus.NewSimNetwork(cfg.Seed)
	baseline := circus.LinkConfig{
		LossRate: 0.02,
		DupRate:  0.02,
		MinDelay: 200 * time.Microsecond,
		MaxDelay: 2 * time.Millisecond,
	}
	sim.SetLink(baseline)

	// Every node traces into the recorder so the protocol conformance
	// checker can replay the whole campaign. In Monitor mode the online
	// monitor joins the fan-out, narrowed to the kinds its rules read,
	// and watches the same stream live.
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

	// The binding agent, on its own machine.
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

	// The KV troupe. In durable mode every member gets its own
	// in-memory disk (seeded, so torn tails are reproducible) and
	// write-ahead log.
	const name = "kv"
	serverNodes := make([]*circus.Node, cfg.Servers)
	kvs := make([]*KV, cfg.Servers)
	disks := make([]*wal.MemFS, cfg.Servers)
	serverAddrs := make([]circus.ModuleAddr, cfg.Servers)
	for i := range serverNodes {
		n, err := sim.NewNode(nodeOpts...)
		if err != nil {
			return nil, err
		}
		defer n.Close()
		serverNodes[i] = n
		if cfg.Durable {
			disks[i] = wal.NewMemFS(cfg.Seed ^ int64(0xd15c<<8|i))
			log, recv, err := wal.Open(wal.Options{
				FS:            disks[i],
				SegmentBytes:  1 << 16,
				SnapshotEvery: cfg.SnapshotEvery,
				Trace:         sink,
				Name:          fmt.Sprintf("kv%d", i),
			})
			if err != nil {
				return nil, err
			}
			kvs[i], err = NewDurableKV(log, recv)
			if err != nil {
				return nil, err
			}
		} else {
			kvs[i] = NewKV()
		}
		addr, err := n.Export(name, kvs[i])
		if err != nil {
			return nil, err
		}
		serverAddrs[i] = addr
	}
	// powerLoss / powerOn simulate a machine losing (and later
	// recovering) its memory and page cache, on top of the network
	// crash/restart the simulator provides. The in-flight fsyncs fail,
	// the unsynced log tail is (mostly) torn away, and on power-on the
	// member rebuilds itself from what its disk kept.
	powerLoss := func(i int) {
		sim.Crash(serverNodes[i])
		if cfg.Durable {
			disks[i].Crash()
		}
	}
	powerOn := func(i int) {
		if cfg.Durable && disks[i].Crashed() {
			disks[i].Restart()
			if err := kvs[i].Restart(); err != nil {
				cfg.Log("seed %d: s%d recovery failed: %v", cfg.Seed, i, err)
			} else {
				res.Recoveries++
			}
		}
		sim.Restart(serverNodes[i])
	}

	// The repairman, on its own machine.
	repairNode, err := sim.NewNode(nodeOpts...)
	if err != nil {
		return nil, err
	}
	defer repairNode.Close()
	repair := &repairman{
		node:  repairNode,
		name:  name,
		addrs: serverAddrs,
		log:   cfg.Log,
	}

	// The clients, each on its own machine.
	type client struct {
		node *circus.Node
		stub *circus.ResilientStub
	}
	clients := make([]client, cfg.Clients)
	for i := range clients {
		n, err := sim.NewNode(nodeOpts...)
		if err != nil {
			return nil, err
		}
		defer n.Close()
		stub, err := n.ImportResilient(ctx, name, circus.ResilientOptions{
			MaxAttempts:  10,
			Backoff:      circus.Backoff{Initial: 15 * time.Millisecond, Max: 250 * time.Millisecond},
			SuspicionTTL: 400 * time.Millisecond,
			Seed:         cfg.Seed<<8 | int64(i),
		})
		if err != nil {
			return nil, err
		}
		clients[i] = client{node: n, stub: stub}
	}

	// Launch the client workload: unique keys, immutable values, so
	// retries are idempotent and cross-replica value equality is a
	// meaningful invariant. Clients perform at least cfg.Ops
	// operations each and keep operating until the fault schedule has
	// run its course, so every fault window sees live traffic.
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
					putOpts := []circus.CallOption{circus.WithTimeout(600 * time.Millisecond)}
					var pend *linear.Pending
					if hist != nil {
						pend = hist.Invoke(ci*cfg.Callers+gi, linear.Write, key, val)
						// Quorum discipline: the write only acks if a
						// majority of the original degree answered
						// identically, so an acked write provably sits on
						// a majority — the default collation can ack from
						// a single reachable member that repair is busy
						// removing from the binding, leaving the write
						// legitimately invisible until it rejoins.
						putOpts = append(putOpts, circus.WithCollator(writeQuorum(majority)))
					}
					_, err := clients[ci].stub.Call(ctx, ProcPut, args, putOpts...)
					if pend != nil {
						if err == nil {
							pend.Done("")
						} else {
							pend.Fail() // indeterminate: may or may not have taken effect
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
						// Read a key some caller may have written by now —
						// often another client's, so the read crosses
						// replicas the writer never talked to. The read
						// goes through a plain stub over the full bound
						// troupe with a strict collator: every member of a
						// majority-sized view must answer, successfully
						// and identically, or the call fails and the read
						// is dropped as unanswered. Strictness matters —
						// the default unanimous collator excludes failed
						// members and proceeds with the rest, so mid-repair
						// a single state-lagging member could answer alone.
						// A majority-sized strict view intersects every
						// write quorum, so a recorded read cannot miss a
						// recorded write. The resilient stub is wrong here
						// for the same reason: its suspicion skipping is
						// built to leave lagging members out.
						rkey := readKey(rng, cfg, op)
						if tr := clients[ci].stub.Troupe(); tr.Degree() >= majority {
							rp := hist.Invoke(ci*cfg.Callers+gi, linear.Read, rkey, "")
							out, rerr := clients[ci].node.StubFor(tr).
								Call(ctx, ProcGet, []byte(rkey), circus.WithTimeout(300*time.Millisecond),
									circus.WithCollator(strictRead))
							if rerr == nil {
								rp.Done(string(out))
								mu.Lock()
								reads++
								mu.Unlock()
							} // an unanswered read constrains nothing: dropped
						}
					}
					time.Sleep(time.Duration(10+rng.Intn(20)) * time.Millisecond)
				}
			}()
		}
	}

	// The repairman sweeps concurrently with the faults.
	repairCtx, stopRepair := context.WithCancel(ctx)
	var repairWG sync.WaitGroup
	repairWG.Add(1)
	go func() {
		defer repairWG.Done()
		for repairCtx.Err() == nil {
			repair.sweep(repairCtx, false)
			select {
			case <-repairCtx.Done():
			case <-time.After(150 * time.Millisecond):
			}
		}
	}()

	// Apply the fault schedule.
	start := time.Now()
	for _, ev := range res.Schedule.Events {
		if d := time.Until(start.Add(ev.At)); d > 0 {
			time.Sleep(d)
		}
		cfg.Log("seed %d: %v", cfg.Seed, ev)
		switch ev.Kind {
		case KindCrash:
			powerLoss(ev.Server)
		case KindRestart:
			powerOn(ev.Server)
		case KindKillAll:
			for i := range serverNodes {
				powerLoss(i)
			}
		case KindRestartAll:
			for i := range serverNodes {
				powerOn(i)
			}
		case KindDiskFull:
			disks[ev.Server].FillDisk()
		case KindDiskSlow:
			disks[ev.Server].SetSyncDelay(2 * time.Millisecond)
		case KindDiskHeal:
			disks[ev.Server].SetQuota(0)
			disks[ev.Server].SetSyncDelay(0)
			disks[ev.Server].FailSyncs(false)
		case KindPartition:
			minority := make([]*circus.Node, 0, len(ev.Minority))
			isolated := make(map[int]bool)
			for _, si := range ev.Minority {
				minority = append(minority, serverNodes[si])
				isolated[si] = true
			}
			majority := []*circus.Node{binderNode, repairNode}
			for si, n := range serverNodes {
				if !isolated[si] {
					majority = append(majority, n)
				}
			}
			for _, c := range clients {
				majority = append(majority, c.node)
			}
			sim.Partition(majority, minority)
		case KindHeal:
			sim.Heal()
		case KindLossBurst:
			burst := baseline
			burst.LossRate = ev.Loss
			sim.SetLink(burst)
		case KindLossEnd:
			sim.SetLink(baseline)
		}
	}

	// Let the workload finish, then quiesce: no faults outstanding,
	// every machine up, and the repairman given the field.
	close(scheduleDone)
	wg.Wait()
	sim.Heal()
	sim.SetLink(baseline)
	if cfg.Durable {
		for _, d := range disks {
			d.SetQuota(0)
			d.SetSyncDelay(0)
			d.FailSyncs(false)
		}
	}
	for i := range serverNodes {
		powerOn(i)
	}
	time.Sleep(300 * time.Millisecond) // drain in-flight retransmissions
	stopRepair()
	repairWG.Wait()
	// Final sweeps force the full union reconciliation: the position
	// gossip fast path is for the steady state, not for the verdict.
	for i := 0; i < 4; i++ {
		if repair.sweep(ctx, true) {
			break
		}
		time.Sleep(150 * time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond)

	// Harvest counters.
	res.Acked = len(acked)
	res.Failed = failed
	res.Reads = reads
	for _, c := range clients {
		st := c.stub.Stats()
		res.Rebinds += st.Rebinds
		res.Retries += st.Retries
		res.Suspected += st.Suspected
	}
	res.Removed = repair.removed
	res.Rejoined = repair.rejoined
	res.DeltaTransfers = repair.deltaTransfers
	res.DeltaBytes = repair.deltaBytes
	res.FullTransfers = repair.fullTransfers
	res.FullBytes = repair.fullBytes
	if cfg.Durable {
		for _, kv := range kvs {
			st := kv.WAL().Stats()
			res.Fsyncs += st.Fsyncs
			res.Snapshots += st.Snapshots
		}
	}

	// Invariants: application-level first, then the recorded trace is
	// replayed through the protocol conformance checker.
	res.Violations = appCheck(kvs, acked)
	conf := check.Check(rec.Events(), check.Config{
		Adaptive: true,
		MinRTO:   pairedmsg.MinRTO,
	})
	res.Violations = append(res.Violations, check.Strings(conf)...)
	nodes := append([]*circus.Node{binderNode, repairNode}, serverNodes...)
	for _, c := range clients {
		nodes = append(nodes, c.node)
	}
	res.Violations = append(res.Violations, tableCheck(nodes, rec.Events())...)
	// The online monitor saw the same stream live; anything it caught
	// is a breach too (at full sampling it subsumes the offline rules,
	// reported here with its own prefix so drift is visible).
	if mon != nil {
		st := mon.Stats()
		res.MonitorEvents = st.Events
		res.MonitorSampled = st.Sampled
		for _, v := range mon.Violations() {
			res.Violations = append(res.Violations, "monitor: "+v.String())
		}
	}
	// Linearizability: every read must be explainable by some
	// interleaving of the recorded operation windows, key by key.
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

// tableCheck verifies that the at-most-once state stayed bounded: once
// the campaign has quiesced no node holds a live call record, holds no
// more tombstones than it started executions (each finished execution
// leaves exactly one, for at most 1.5 CallRetention), and remembers no
// more completed exchanges than messages were delivered to it. The
// client side must have drained too: no member leg still listed for a
// return, no call still probed for liveness.
func tableCheck(nodes []*circus.Node, events []trace.Event) []string {
	started := make(map[circus.Addr]int)
	for _, e := range events {
		if e.Kind == trace.KindCallStart {
			started[e.Node]++
		}
	}
	var v []string
	for _, n := range nodes {
		rt := n.Runtime()
		ct, msgs := rt.CallTable(), rt.MessageStats()
		switch {
		case ct.Live != 0:
			v = append(v, fmt.Sprintf("node %v: %d call records still live after quiescence", n.Addr(), ct.Live))
		case ct.Pending != 0:
			v = append(v, fmt.Sprintf("node %v: %d client legs still pending after quiescence", n.Addr(), ct.Pending))
		case msgs.Watches != 0:
			v = append(v, fmt.Sprintf("node %v: %d liveness watches still armed after quiescence", n.Addr(), msgs.Watches))
		case ct.Tombstones > started[n.Addr()]:
			v = append(v, fmt.Sprintf("node %v: %d call tombstones for %d executions", n.Addr(), ct.Tombstones, started[n.Addr()]))
		case msgs.CompletedRecords > msgs.MessagesDelivered:
			v = append(v, fmt.Sprintf("node %v: %d completed-exchange records for %d delivered messages",
				n.Addr(), msgs.CompletedRecords, msgs.MessagesDelivered))
		}
	}
	return v
}

// appCheck verifies the post-quiescence invariants: per-member
// exactly-once execution and write consistency, cross-member state
// convergence, and no acknowledged update lost.
func appCheck(kvs []*KV, acked map[string]string) []string {
	var v []string
	for i, kv := range kvs {
		for _, s := range kv.Violations() {
			v = append(v, fmt.Sprintf("member %d: %s", i, s))
		}
	}
	snaps := make([]map[string]string, len(kvs))
	for i, kv := range kvs {
		snaps[i] = kv.Snapshot()
	}
	for i := 1; i < len(snaps); i++ {
		if diff := diffMaps(snaps[0], snaps[i]); diff != "" {
			v = append(v, fmt.Sprintf("members 0 and %d diverge: %s", i, diff))
		}
	}
	for key, val := range acked {
		got, ok := snaps[0][key]
		switch {
		case !ok:
			v = append(v, fmt.Sprintf("acknowledged update %q lost", key))
		case got != val:
			v = append(v, fmt.Sprintf("acknowledged update %q corrupted: %q != %q", key, got, val))
		}
	}
	sort.Strings(v)
	return v
}

// diffMaps describes the first few differences between two maps,
// empty if equal.
func diffMaps(a, b map[string]string) string {
	var diffs []string
	for k, va := range a {
		if vb, ok := b[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%q only in first", k))
		} else if va != vb {
			diffs = append(diffs, fmt.Sprintf("%q: %q vs %q", k, va, vb))
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%q only in second", k))
		}
	}
	sort.Strings(diffs)
	if len(diffs) > 4 {
		diffs = append(diffs[:4], fmt.Sprintf("... and %d more", len(diffs)-4))
	}
	if len(diffs) == 0 {
		return ""
	}
	return fmt.Sprintf("%d diffs: %v", len(diffs), diffs)
}
