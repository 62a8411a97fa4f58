package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"circus"
	"circus/internal/chaos/linear"
	"circus/internal/core"
	"circus/internal/kv"
	"circus/internal/mesh"
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
	// Shards, when above one, makes the campaign a mesh: Shards
	// consistent-hash partitions of the key space, each its own troupe
	// of Servers members behind an ownership guard, clients routing
	// through the shard map, and a live split migrating a range onto a
	// spare shard while the fault schedule (including whole-shard kills
	// and partitions) plays out.
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
	// read, hot-key widenings, and — always a violation — answers below
	// the client's position token.
	SpreadReads  int64
	StaleBounces int64
	Escalations  int64
	HotWidenings int64
	StaleServes  int64
	// Violations lists every invariant breach; empty means the troupe
	// survived the campaign.
	Violations []string
}

// service is the campaign's KV service name: the single troupe's
// name, and the mesh whose shards are service/s0, service/s1, ...
const service = "kv"

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

// resilient is the retry budget of every campaign caller; seed varies
// the backoff jitter per caller.
func resilient(seed int64) circus.ResilientOptions {
	return circus.ResilientOptions{
		MaxAttempts:  10,
		Backoff:      circus.Backoff{Initial: 15 * time.Millisecond, Max: 250 * time.Millisecond},
		SuspicionTTL: 400 * time.Millisecond,
		Seed:         seed,
	}
}

// troupe is one KV troupe of a campaign — the single troupe, or one
// shard of a mesh — with its members' disks (durable mode), their
// ownership guards (mesh mode), and its own repairman.
type troupe struct {
	name   string
	nodes  []*circus.Node
	kvs    []*KV
	disks  []*wal.MemFS
	guards []*mesh.Guard
	addrs  []circus.ModuleAddr
	repair *repairman
}

// client is one client machine. It writes through a resilient stub
// bound to the single troupe, or through a mesh client routing by key.
type client struct {
	node *circus.Node
	stub *circus.ResilientStub
	mc   *mesh.Client
}

func (cl *client) put(ctx context.Context, key string, args []byte, opts core.CallOptions) error {
	var err error
	if cl.mc != nil {
		_, err = cl.mc.Call(ctx, key, ProcPut, args, opts)
	} else {
		_, err = cl.stub.Call(ctx, ProcPut, args, func(o *core.CallOptions) { *o = opts })
	}
	return err
}

// view returns the membership a strict read of key collates over: the
// stub's binding, or the binding of the shard the client's map says
// owns key (the empty troupe if that cannot be resolved).
func (cl *client) view(ctx context.Context, key string) circus.Troupe {
	if cl.mc == nil {
		return cl.stub.Troupe()
	}
	if _, rc, err := cl.mc.ShardCaller(ctx, key); err == nil {
		return rc.Troupe()
	}
	return circus.Troupe{}
}

// campaign is the state of one Run.
type campaign struct {
	cfg      Config
	res      *Result
	ctx      context.Context
	majority int // of the troupe degree: the write and read quorum

	sim      *circus.SimNetwork
	baseline circus.LinkConfig
	rec      *trace.Recorder
	mon      *monitor.Monitor
	machines []*circus.Node // every node, closed when the campaign ends

	binder  *circus.Node
	admin   *circus.Node     // runs ctl (mesh only)
	ctl     *mesh.Controller // mesh only
	troupes []*troupe        // mesh: the shards, then the spare the split admits
	clients []*client

	// putOpts and strict are the collation disciplines of writes and of
	// linearizability reads; see Run.
	putOpts core.CallOptions
	strict  core.CallOptions

	mu     sync.Mutex
	acked  map[string]string
	failed int
	reads  int
	hist   *linear.History // Linearize mode
}

// Run executes one fault campaign: build the KV troupes (one, or a
// mesh's shards plus a spare) with a binding agent and a repairman per
// troupe, launch concurrent clients, apply the seeded fault schedule —
// and in a mesh the live split — then quiesce, repair, and check the
// invariants: every troupe converged, every replicated call executed at
// most once per member, no acknowledged write lost at its final owner,
// the trace conformant, the call tables drained, and (Linearize mode)
// the recorded history per-key linearizable.
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
	if cfg.PlantStaleReadBug {
		mesh.PlantedStaleReadBug = true
		defer func() { mesh.PlantedStaleReadBug = false }()
	}
	sharded := cfg.Shards > 1
	deadline := 60 * time.Second
	if sharded {
		deadline = 90 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	c := &campaign{cfg: cfg, ctx: ctx, majority: cfg.Servers/2 + 1, acked: make(map[string]string),
		res: &Result{Seed: cfg.Seed, Schedule: GenerateWith(cfg.Seed, cfg.Servers,
			Faults{Durable: cfg.Durable, RestartAll: cfg.RestartAll, Shards: cfg.Shards})}}
	defer func() {
		for i := len(c.machines) - 1; i >= 0; i-- {
			c.machines[i].Close()
		}
	}()

	// Quorum discipline (collate.Quorum, deciding at the majority-th
	// identical answer): an acked write provably resides on a majority
	// of the troupe's original degree, however small the attempt's view,
	// and an attempt against a too-small or partly unreachable view
	// fails and is recorded as indeterminate. Linearized campaigns need
	// it because the default collation can ack from a single reachable
	// member the repairman is busy removing from the binding, leaving
	// the write legitimately invisible until it rejoins. Every mesh
	// write needs it because the migration copy draws dumps from a
	// majority of members, and only quorum intersection guarantees an
	// acked record is among them. A refusal is a vote, so a majority
	// of identical refusals (the guard's wrong-shard or parked answer)
	// is the collator's result, which the mesh client absorbs.
	c.putOpts = core.CallOptions{Timeout: 600 * time.Millisecond}
	if cfg.Linearize || sharded {
		c.putOpts.Collator = func(n int) circus.Collator { return circus.Quorum(n, c.majority) }
	}
	// A linearizability read demands every member of the view answer,
	// successfully and identically. Unlike the default unanimous
	// collator it does not exclude failed members: mid-repair a single
	// state-lagging member could otherwise answer alone — exactly the
	// stale read the probe must treat as unanswered. Reads collate only
	// over majority-sized views, which intersect every write quorum.
	c.strict = core.CallOptions{Timeout: 300 * time.Millisecond,
		Collator: func(n int) circus.Collator { return circus.Quorum(n, n) }}
	if cfg.Linearize {
		c.hist = linear.NewHistory()
	}
	if err := c.build(); err != nil {
		return nil, err
	}

	// The workload, the repairmen, and (mesh) the live split run
	// concurrently with the fault schedule.
	scheduleDone := make(chan struct{})
	var wg sync.WaitGroup
	for ci, cl := range c.clients {
		for gi := 0; gi < cfg.Callers; gi++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.caller(cl, ci, gi, scheduleDone)
			}()
		}
	}
	repairCtx, stopRepair := context.WithCancel(ctx)
	var repairWG sync.WaitGroup
	for _, t := range c.troupes {
		repairWG.Add(1)
		go func() {
			defer repairWG.Done()
			for repairCtx.Err() == nil {
				t.repair.sweep(repairCtx, false)
				select {
				case <-repairCtx.Done():
				case <-time.After(150 * time.Millisecond):
				}
			}
		}()
	}
	var splitDone <-chan error
	if sharded {
		splitDone = c.split()
	}
	c.play()

	// Quiesce: the split settled, the workload finished, no fault
	// outstanding, every machine up, and the repairmen given the field.
	var serr error
	if splitDone != nil {
		serr = <-splitDone
	}
	close(scheduleDone)
	wg.Wait()
	c.sim.Heal()
	c.sim.SetLink(c.baseline)
	for _, t := range c.troupes {
		for i := range t.nodes {
			if cfg.Durable {
				healDisk(t.disks[i])
			}
			c.powerOn(t, i)
		}
	}
	time.Sleep(300 * time.Millisecond) // drain in-flight retransmissions
	if serr != nil {
		// The schedule denied every mid-campaign attempt; the split
		// must still commit now that the field is calm — a live
		// rebalance that cannot complete after faults heal is a
		// failure in its own right.
		if serr = c.ctl.Split(ctx, c.spare().name); serr != nil &&
			!strings.Contains(serr.Error(), "already in the map") {
			c.res.Violations = append(c.res.Violations,
				fmt.Sprintf("live split never completed: %v", serr))
		}
	}
	stopRepair()
	repairWG.Wait()
	if sharded {
		// Re-push the final map everywhere: a guard that slept through
		// the flip behind a partition would refuse its keys forever.
		if m, err := mesh.FetchShardMap(ctx, c.admin.Binder(), service); err == nil {
			for _, t := range c.troupes {
				if err := c.pushMap(t.name, m); err != nil {
					cfg.Log("seed %d: final map push to %s failed: %v", cfg.Seed, t.name, err)
				}
			}
		}
	}
	// Final sweeps force the full union reconciliation: the position
	// gossip fast path is for the steady state, not for the verdict.
	for _, t := range c.troupes {
		for i := 0; i < 4; i++ {
			if t.repair.sweep(ctx, true) {
				break
			}
			time.Sleep(150 * time.Millisecond)
		}
	}
	time.Sleep(200 * time.Millisecond)

	c.harvest()
	c.verdict()
	return c.res, nil
}

// The paired message timers of every machine: the simulated network's
// defaults, stated here so the conformance check holds each
// retransmission to the interval the members actually run.
const retransmitInterval, probeInterval = 20 * time.Millisecond, 40 * time.Millisecond

func (c *campaign) newNode(opts ...circus.Option) (*circus.Node, error) {
	n, err := c.sim.NewNode(append([]circus.Option{circus.WithTimers(retransmitInterval, probeInterval)}, opts...)...)
	if err == nil {
		c.machines = append(c.machines, n)
	}
	return n, err
}

func (c *campaign) spare() *troupe { return c.troupes[len(c.troupes)-1] }

// build creates the simulated network and every machine on it: the
// binding agent, the troupes, (mesh) the controller and the
// bootstrapped shard map, the repairmen, and the clients.
func (c *campaign) build() error {
	cfg := c.cfg
	sharded := cfg.Shards > 1
	c.sim = circus.NewSimNetwork(cfg.Seed)
	c.baseline = circus.LinkConfig{
		LossRate: 0.02,
		DupRate:  0.02,
		MinDelay: 200 * time.Microsecond,
		MaxDelay: 2 * time.Millisecond,
	}
	c.sim.SetLink(c.baseline)

	// Every node traces into the recorder so the protocol conformance
	// checker can replay the whole campaign. In Monitor mode the online
	// monitor joins the fan-out, narrowed to the kinds its rules read,
	// and watches the same stream live.
	c.rec = trace.NewRecorder()
	var monSink trace.Sink
	if cfg.Monitor {
		c.mon = monitor.New(monitor.Options{
			SampleRate: cfg.MonitorSample,
			OnViolation: func(v rules.Violation) {
				cfg.Log("seed %d: monitor: %s", cfg.Seed, v)
			},
		})
		monSink = trace.FilterKinds(c.mon, c.mon.TraceKinds())
	}
	sink := trace.Multi(c.rec, cfg.Trace, monSink)

	// The binding agent, on its own machine.
	var err error
	if c.binder, err = c.newNode(circus.WithTrace(sink)); err != nil {
		return err
	}
	if _, err := c.binder.ServeRingmaster(); err != nil {
		return err
	}
	nodeOpts := []circus.Option{circus.WithBinder(c.binder.BinderAddrs()), circus.WithTrace(sink)}

	// The troupes: the single one, or cfg.Shards shards in the
	// bootstrap map plus one spare the live split will carve a range
	// onto, every member then an ownership guard wrapping its KV. In
	// durable mode every member gets its own in-memory disk (seeded, so
	// torn tails are reproducible) and write-ahead log.
	names := []string{service}
	if sharded {
		names = names[:0]
		for s := 0; s <= cfg.Shards; s++ {
			names = append(names, fmt.Sprintf("%s/s%d", service, s))
		}
	}
	for s, name := range names {
		t := &troupe{name: name}
		for i := 0; i < cfg.Servers; i++ {
			n, err := c.newNode(nodeOpts...)
			if err != nil {
				return err
			}
			kv, disk := NewKV(), (*wal.MemFS)(nil)
			if cfg.Durable {
				disk = wal.NewMemFS(cfg.Seed ^ int64(0xd15c<<12|s<<8|i))
				log, recv, err := wal.Open(wal.Options{
					FS:            disk,
					SegmentBytes:  1 << 16,
					SnapshotEvery: cfg.SnapshotEvery,
					Trace:         sink,
					Name:          fmt.Sprintf("kv%d.%d", s, i),
				})
				if err != nil {
					return err
				}
				if kv, err = NewDurableKV(log, recv); err != nil {
					return err
				}
			}
			var mod circus.Module = kv
			if sharded {
				g := mesh.NewGuard(name, kv, KVKeys)
				t.guards = append(t.guards, g)
				mod = g
			}
			addr, err := n.Export(name, mod)
			if err != nil {
				return err
			}
			t.nodes = append(t.nodes, n)
			t.kvs = append(t.kvs, kv)
			t.disks = append(t.disks, disk)
			t.addrs = append(t.addrs, addr)
		}
		c.troupes = append(c.troupes, t)
	}

	// One administrative node runs the migration controller.
	if sharded {
		if c.admin, err = c.newNode(nodeOpts...); err != nil {
			return err
		}
		c.ctl = mesh.NewController(c.admin.Runtime(), c.admin.Binder(), service, kv.Codec{})
		c.ctl.Resilient = resilient(cfg.Seed ^ 0xc01)
		// A park only protects the migration once so many members hold
		// it that the remaining stragglers cannot form a write quorum,
		// and a dump from that many holds every acked write.
		c.ctl.Quorum = c.majority
		c.ctl.Log = func(format string, args ...any) { cfg.Log("seed %d: "+format, append([]any{cfg.Seed}, args...)...) }
	}
	// Each troupe's repairman, on its own machine.
	for _, t := range c.troupes {
		rn, err := c.newNode(nodeOpts...)
		if err != nil {
			return err
		}
		t.repair = &repairman{node: rn, name: t.name, addrs: t.addrs, log: cfg.Log}
	}
	if sharded {
		bootMap, err := c.ctl.Bootstrap(c.ctx, names[:cfg.Shards], 0)
		if err != nil {
			return err
		}
		// The spare learns the map too: until the split admits it, its
		// guard must refuse keyed traffic rather than serve it.
		if err := c.pushMap(c.spare().name, bootMap); err != nil {
			return err
		}
	}

	// The clients, each on its own machine.
	for i := 0; i < cfg.Clients; i++ {
		n, err := c.newNode(nodeOpts...)
		if err != nil {
			return err
		}
		cl := &client{node: n}
		if sharded {
			cl.mc, err = mesh.NewClient(c.ctx, n.Runtime(), n.Binder(), service,
				mesh.Options{Resilient: resilient(cfg.Seed<<8 | int64(i))})
		} else {
			cl.stub, err = n.ImportResilient(c.ctx, service, resilient(cfg.Seed<<8|int64(i)))
		}
		if err != nil {
			return err
		}
		c.clients = append(c.clients, cl)
	}
	return nil
}

// pushMap installs m at every member of the named shard troupe.
func (c *campaign) pushMap(name string, m *mesh.ShardMap) error {
	data, err := m.Encode()
	if err != nil {
		return err
	}
	rc, err := c.admin.Binder().NewResilientCaller(c.ctx, name, c.ctl.Resilient)
	if err != nil {
		return err
	}
	_, err = rc.Call(c.ctx, mesh.ProcSetShardMap, data, core.CallOptions{})
	return err
}

// caller runs one client caller's workload: unique keys, immutable
// values, so retries are idempotent and cross-replica value equality is
// a meaningful invariant. It performs at least cfg.Ops operations and
// keeps operating until the fault schedule has run its course, so
// every fault window sees live traffic.
func (c *campaign) caller(cl *client, ci, gi int, scheduleDone <-chan struct{}) {
	cfg := c.cfg
	who := ci*cfg.Callers + gi
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
		args, _ := PutArgs(key, val)
		var pend *linear.Pending
		if c.hist != nil {
			pend = c.hist.Invoke(who, linear.Write, key, val)
		}
		err := cl.put(c.ctx, key, args, c.putOpts)
		if pend != nil {
			if err == nil {
				pend.Done("")
			} else {
				pend.Fail() // indeterminate: may or may not have taken effect
			}
		}
		c.mu.Lock()
		if err == nil {
			c.acked[key] = val
		} else {
			c.failed++
		}
		c.mu.Unlock()
		if c.hist != nil && rng.Float64() < cfg.ReadFrac {
			c.read(cl, who, readKey(rng, cfg, op))
		}
		time.Sleep(time.Duration(10+rng.Intn(20)) * time.Millisecond)
	}
}

// read probes key for the linearizability history. The strict read
// goes over the full bound view of the key's troupe — not through the
// resilient stub, whose suspicion skipping is built to leave lagging
// members out — and only when that view is majority-sized; an
// unanswered read constrains nothing and is dropped. The guard's
// refusals land as member errors, so a strict read against a
// mid-migration or mis-routed shard simply drops.
//
// A spread read goes to one member, chosen by the client's rotation,
// answering only at or past the client's position token. Its invoke is
// recorded before the call — a late start would unsoundly narrow the
// operation's window. Campaign keys are write-once, so a present value
// is the value and is recorded directly; an absent answer is only a
// session-level fact (another client's acked write may not have
// reached this member), so absence is confirmed by the strict read
// before it constrains the history.
func (c *campaign) read(cl *client, who int, key string) {
	var rp *linear.Pending
	if c.cfg.SpreadReads {
		rp = c.hist.Invoke(who, linear.Read, key, "")
		out, err := cl.mc.SpreadRead(c.ctx, key, ProcGet, []byte(key), c.strict)
		if err != nil {
			return
		}
		if len(out) > 0 {
			c.answered(rp, out)
			return
		}
	}
	tr := cl.view(c.ctx, key)
	if tr.Degree() < c.majority {
		return
	}
	if rp == nil {
		rp = c.hist.Invoke(who, linear.Read, key, "")
	}
	if out, err := cl.node.Runtime().Call(c.ctx, tr, ProcGet, []byte(key), c.strict); err == nil {
		c.answered(rp, out)
	}
}

func (c *campaign) answered(rp *linear.Pending, out []byte) {
	rp.Done(string(out))
	c.mu.Lock()
	c.reads++
	c.mu.Unlock()
}

// split runs the live split: at two fifths of the schedule, while
// faults fly and traffic flows, migrate the spare's consistent-hash
// range onto it. A migration that collides with a whole-shard fault
// rolls back (the dump floor refuses partial copies) and is retried;
// the campaign must end with the split committed.
func (c *campaign) split() <-chan error {
	done := make(chan error, 1)
	go func() {
		select {
		case <-time.After(c.res.Schedule.Span() * 2 / 5):
		case <-c.ctx.Done():
			done <- c.ctx.Err()
			return
		}
		var err error
		for attempt := 1; ; attempt++ {
			err = c.ctl.Split(c.ctx, c.spare().name)
			if err == nil || strings.Contains(err.Error(), "already in the map") {
				err = nil
				break
			}
			c.res.SplitRollbacks++
			c.cfg.Log("seed %d: live split attempt %d rolled back: %v", c.cfg.Seed, attempt, err)
			if attempt >= 5 || c.ctx.Err() != nil {
				break
			}
			time.Sleep(400 * time.Millisecond)
		}
		done <- err
	}()
	return done
}

// powerLoss and powerOn simulate a machine losing (and later
// recovering) its memory and page cache, on top of the network
// crash/restart the simulator provides. The in-flight fsyncs fail, the
// unsynced log tail is (mostly) torn away, and on power-on the member
// rebuilds itself from what its disk kept.
func (c *campaign) powerLoss(t *troupe, i int) {
	c.sim.Crash(t.nodes[i])
	if c.cfg.Durable {
		t.disks[i].Crash()
	}
}

func (c *campaign) powerOn(t *troupe, i int) {
	if c.cfg.Durable && t.disks[i].Crashed() {
		t.disks[i].Restart()
		if err := t.kvs[i].Restart(); err != nil {
			c.cfg.Log("seed %d: %s member %d recovery failed: %v", c.cfg.Seed, t.name, i, err)
		} else {
			c.res.Recoveries++
		}
	}
	c.sim.Restart(t.nodes[i])
	if t.guards != nil {
		// The member may have slept through epoch flips; the binder
		// holds the newest published map, and Install is forward-only,
		// so refetching is always safe.
		fctx, fcancel := context.WithTimeout(c.ctx, 500*time.Millisecond)
		if m, err := mesh.FetchShardMap(fctx, t.nodes[i].Binder(), service); err == nil {
			t.guards[i].Install(m)
		}
		fcancel()
	}
}

func healDisk(d *wal.MemFS) {
	d.SetQuota(0)
	d.SetSyncDelay(0)
	d.FailSyncs(false)
}

// everyMember applies f to every member of ts.
func everyMember(ts []*troupe, f func(*troupe, int)) {
	for _, t := range ts {
		for i := range t.nodes {
			f(t, i)
		}
	}
}

// without returns every machine of the campaign except those of
// minority: the majority side of a partition.
func (c *campaign) without(minority []*circus.Node) []*circus.Node {
	var rest []*circus.Node
	for _, n := range c.machines {
		if !slices.Contains(minority, n) {
			rest = append(rest, n)
		}
	}
	return rest
}

// play applies the fault schedule in real time. Member-level faults
// land on troupe ev.Shard, which is 0 in single-troupe schedules. The
// binding agent, the controller, the repairmen, and the clients always
// stay on the majority side of a partition.
func (c *campaign) play() {
	start := time.Now()
	for _, ev := range c.res.Schedule.Events {
		if d := time.Until(start.Add(ev.At)); d > 0 {
			time.Sleep(d)
		}
		c.cfg.Log("seed %d: %v", c.cfg.Seed, ev)
		t := c.troupes[ev.Shard]
		switch ev.Kind {
		case KindCrash:
			c.powerLoss(t, ev.Server)
		case KindRestart:
			c.powerOn(t, ev.Server)
		case KindKillAll:
			everyMember(c.troupes, c.powerLoss)
		case KindRestartAll:
			everyMember(c.troupes, c.powerOn)
		case KindShardKill:
			everyMember([]*troupe{t}, c.powerLoss)
		case KindShardRestart:
			everyMember([]*troupe{t}, c.powerOn)
		case KindDiskFull:
			t.disks[ev.Server].FillDisk()
		case KindDiskSlow:
			t.disks[ev.Server].SetSyncDelay(2 * time.Millisecond)
		case KindDiskHeal:
			healDisk(t.disks[ev.Server])
		case KindPartition:
			var minority []*circus.Node
			for _, i := range ev.Minority {
				minority = append(minority, t.nodes[i])
			}
			c.sim.Partition(c.without(minority), minority)
		case KindShardPartition:
			c.sim.Partition(c.without(t.nodes), t.nodes)
		case KindHeal, KindShardHeal:
			c.sim.Heal()
		case KindLossBurst:
			burst := c.baseline
			burst.LossRate = ev.Loss
			c.sim.SetLink(burst)
		case KindLossEnd:
			c.sim.SetLink(c.baseline)
		}
	}
}

// harvest aggregates the clients', repairmen's, and logs' counters.
func (c *campaign) harvest() {
	res := c.res
	res.Acked, res.Failed, res.Reads = len(c.acked), c.failed, c.reads
	for _, cl := range c.clients {
		if cl.stub != nil {
			st := cl.stub.Stats()
			res.Rebinds += st.Rebinds
			res.Retries += st.Retries
			res.Suspected += st.Suspected
			continue
		}
		st := cl.mc.Stats()
		res.Redirects += st.Redirects
		res.Parks += st.Parks
		res.MapRefreshes += st.Refreshes
		res.SpreadReads += st.SpreadReads
		res.StaleBounces += st.StaleBounces
		res.Escalations += st.Escalations
		res.HotWidenings += st.HotWidenings
		res.StaleServes += st.StaleServes
	}
	for _, t := range c.troupes {
		res.Removed += t.repair.removed
		res.Rejoined += t.repair.rejoined
		res.DeltaTransfers += t.repair.deltaTransfers
		res.DeltaBytes += t.repair.deltaBytes
		res.FullTransfers += t.repair.fullTransfers
		res.FullBytes += t.repair.fullBytes
		if c.cfg.Durable {
			for _, kv := range t.kvs {
				st := kv.WAL().Stats()
				res.Fsyncs += st.Fsyncs
				res.Snapshots += st.Snapshots
			}
		}
	}
}

// verdict checks the invariants: application-level first, then the
// recorded trace through the protocol conformance checker, the call
// tables, the online monitor, and the linearizability checker.
func (c *campaign) verdict() {
	res := c.res
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
	// A single troupe owns every key; a mesh key is owned by its shard
	// under the final map.
	if c.ctl == nil {
		res.Violations = append(res.Violations,
			meshCheck(c.troupes, func(string) string { return service }, c.acked)...)
	} else if final, err := mesh.FetchShardMap(c.ctx, c.admin.Binder(), service); err != nil {
		res.Violations = append(res.Violations, fmt.Sprintf("final shard map unavailable: %v", err))
	} else {
		res.Violations = append(res.Violations, meshCheck(c.troupes, final.Ring().Owner, c.acked)...)
	}
	events := c.rec.Events()
	cc := check.Config{RetransmitInterval: retransmitInterval}
	res.Violations = append(res.Violations, check.Strings(check.Check(events, cc))...)
	res.Violations = append(res.Violations, tableCheck(c.machines, events)...)
	// The online monitor saw the same stream live; anything it caught
	// is a breach too (at full sampling it subsumes the offline rules,
	// reported here with its own prefix so drift is visible).
	if c.mon != nil {
		st := c.mon.Stats()
		res.MonitorEvents = st.Events
		res.MonitorSampled = st.Sampled
		for _, v := range c.mon.Violations() {
			res.Violations = append(res.Violations, "monitor: "+v.String())
		}
	}
	// Linearizability: every read must be explainable by some
	// interleaving of the recorded operation windows, key by key.
	if c.hist != nil {
		lin := linear.Check(c.hist.Ops(), 0)
		res.LinearOps = lin.Ops
		res.LinearKeys = lin.Keys
		if !lin.Linearizable {
			res.Violations = append(res.Violations,
				fmt.Sprintf("linearizability: key %q: %s", lin.Key, lin.Explanation))
		}
		for _, k := range lin.Exhausted {
			c.cfg.Log("seed %d: linearizability search exhausted on key %q (inconclusive)", c.cfg.Seed, k)
		}
	}
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

// meshCheck verifies the post-quiescence state invariants: per-member
// exactly-once execution and write consistency, per-troupe state
// convergence, and every acknowledged update present at the troupe
// that owner names for its key — the one troupe of a single-troupe
// campaign, the owner shard under the final map of a mesh. Old owners
// may retain stale copies of migrated keys (cleanup is best-effort and
// repair may resurrect them); they are unreachable behind the
// wrong-shard check and are not a violation.
func meshCheck(troupes []*troupe, owner func(key string) string, acked map[string]string) []string {
	var v []string
	snaps := make(map[string][]map[string]string, len(troupes))
	for _, t := range troupes {
		for i, kv := range t.kvs {
			for _, viol := range kv.Violations() {
				v = append(v, fmt.Sprintf("%s member %d: %s", t.name, i, viol))
			}
			snaps[t.name] = append(snaps[t.name], kv.Snapshot())
		}
		for i := 1; i < len(snaps[t.name]); i++ {
			if diff := diffMaps(snaps[t.name][0], snaps[t.name][i]); diff != "" {
				v = append(v, fmt.Sprintf("%s members 0 and %d diverge: %s", t.name, i, diff))
			}
		}
	}
	lost, corrupted := 0, 0
	for key, val := range acked {
		o := owner(key)
		members, ok := snaps[o]
		if !ok || len(members) == 0 {
			v = append(v, fmt.Sprintf("acknowledged update %q owned by unknown troupe %q", key, o))
			continue
		}
		got, ok := members[0][key]
		switch {
		case !ok:
			if lost++; lost <= 4 {
				v = append(v, fmt.Sprintf("acknowledged update %q lost (owner %s)", key, o))
			}
		case got != val:
			if corrupted++; corrupted <= 4 {
				v = append(v, fmt.Sprintf("acknowledged update %q corrupted at %s: %q != %q", key, o, got, val))
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
