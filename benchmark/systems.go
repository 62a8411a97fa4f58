package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"circus"
	"circus/internal/chaos"
	"circus/internal/core"
	"circus/internal/mesh"
	"circus/internal/netsim"
	"circus/internal/pairedmsg"
	"circus/internal/thread"
	"circus/internal/wal"
)

const (
	procPut = chaos.ProcPut
	procGet = chaos.ProcGet

	echoDegree   = 3
	smallPayload = 16
	largePayload = 4096 // three segments
	largeEvery   = 10   // echo_udp: every 10th call is large

	kvShards     = 2
	kvDegree     = 3
	kvValueBytes = 128
	kvPreload    = 4096
	kvZipf       = 1.2
	kvService    = "kv"
	opTimeout    = 5 * time.Second
	opsPerCaller = 1 << 17 // pre-generated operation mix per caller, reused cyclically
)

// counters are the cumulative layer counters a system exposes; the
// per-layer metrics are differences over the measured window.
type counters struct {
	netSendOps, netDgrams, netDropped int64
	msg                               pairedmsg.Stats
	attempts, rebinds, suspected      int64
	mesh                              mesh.ClientStats
	wal                               wal.Stats
	diskFsyncs                        int64
}

func sumMsg(rts []*core.Runtime) pairedmsg.Stats {
	var t pairedmsg.Stats
	for _, rt := range rts {
		s := rt.MessageStats()
		t.SegmentsSent += s.SegmentsSent
		t.Retransmits += s.Retransmits
		t.AcksSent += s.AcksSent
		t.ProbesSent += s.ProbesSent
		t.DupSegments += s.DupSegments
		t.MessagesDelivered += s.MessagesDelivered
		t.DeliveryDrops += s.DeliveryDrops
		t.AcksPiggybacked += s.AcksPiggybacked
		t.BundlesSent += s.BundlesSent
		t.BundledFrames += s.BundledFrames
	}
	return t
}

// ---------------------------------------------------------------------
// Echo troupe (echo_serial over netsim, echo_udp over loopback UDP).

type echoSystem struct {
	net      *netsim.Network // nil over UDP
	runtimes []*core.Runtime // client first
	closers  []func()
	troupe   core.Troupe
	small    []byte
	large    []byte
	mixLarge bool
}

func echoModule() core.Module {
	return core.ModuleFunc(func(_ *core.ServerCall, _ uint16, args []byte) ([]byte, error) { return args, nil })
}

func payload(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// newEchoSim builds an echo troupe of the given degree and one client
// on a netsim with instant delivery: no delay is injected, so latency
// is processor time only. The protocol timers are those of
// internal/bench, whose NativeReplicatedCall row is the number README
// quotes.
func newEchoSim(seed int64, degree int, tr *tracer) (*echoSystem, error) {
	s := &echoSystem{net: netsim.New(seed), troupe: core.Troupe{ID: 0xbec}}
	opts := core.Options{
		Message: pairedmsg.Options{
			RetransmitInterval: 50 * time.Millisecond,
			MaxRetries:         20,
			ProbeInterval:      100 * time.Millisecond,
			ProbeMissLimit:     5,
		},
		ManyToOneTimeout: time.Second,
		Trace:            tr.sink(),
	}
	for i := 0; i <= degree; i++ {
		ep, err := s.net.Listen(s.net.NewHost(), 0)
		if err != nil {
			s.close()
			return nil, err
		}
		rt := core.NewRuntime(ep, opts)
		s.runtimes = append(s.runtimes, rt)
		s.closers = append(s.closers, func() { rt.Close() })
		if i > 0 {
			s.addMember(rt)
		}
	}
	s.small = payload(rand.New(rand.NewSource(seed)), smallPayload)
	return s, s.prime()
}

// newEchoUDP builds the same troupe on real sockets of the host's
// loopback interface, every node from circus.ListenUDP with its
// defaults.
func newEchoUDP(seed int64, tr *tracer) (*echoSystem, error) {
	s := &echoSystem{troupe: core.Troupe{ID: 0xbed}, mixLarge: true}
	for i := 0; i <= echoDegree; i++ {
		n, err := circus.ListenUDP(0, circus.WithTrace(tr.sink()))
		if err != nil {
			s.close()
			return nil, err
		}
		s.runtimes = append(s.runtimes, n.Runtime())
		s.closers = append(s.closers, func() { n.Close() })
		if i > 0 {
			s.addMember(n.Runtime())
		}
	}
	rng := rand.New(rand.NewSource(seed))
	s.small, s.large = payload(rng, smallPayload), payload(rng, largePayload)
	return s, s.prime()
}

// prime makes the first call of each size, which opens the message
// channels to every member; set-up time includes it.
func (s *echoSystem) prime() error {
	for i := largeEvery - 2; i < largeEvery; i++ {
		if _, err := s.op(context.Background(), 0, i, nil); err != nil {
			s.close()
			return err
		}
	}
	return nil
}

func (s *echoSystem) addMember(rt *core.Runtime) {
	addr := rt.Export(echoModule(), core.ExportOptions{})
	rt.SetTroupeID(addr.Module, s.troupe.ID)
	s.troupe.Members = append(s.troupe.Members, addr)
}

func (s *echoSystem) op(ctx context.Context, _, i int, th *thread.Context) (opKind, error) {
	kind, msg := opPrimary, s.small
	if s.mixLarge && i%largeEvery == largeEvery-1 {
		kind, msg = opLarge, s.large
	}
	got, err := s.runtimes[0].Call(ctx, s.troupe, 1, msg, core.CallOptions{Timeout: opTimeout, Thread: th})
	if err == nil && !bytes.Equal(got, msg) {
		err = errors.New("echo reply differs from the payload")
	}
	return kind, err
}

func (s *echoSystem) counters() counters {
	c := counters{msg: sumMsg(s.runtimes)}
	if s.net != nil {
		st := s.net.Stats()
		c.netSendOps, c.netDgrams, c.netDropped = st.SendOps, st.Datagrams, st.Dropped
	}
	return c
}

// verify has nothing left to do: every reply was compared in op.
func (s *echoSystem) verify(context.Context) error { return nil }

func (s *echoSystem) close() {
	for _, c := range s.closers {
		c()
	}
}

// ---------------------------------------------------------------------
// Durable sharded KV mesh (kv_write_open, kv_read_mix).

// kvConfig is what differs between the two KV workloads.
type kvConfig struct {
	link      circus.LinkConfig
	fsync     time.Duration
	clients   int
	callers   int  // closed-loop callers (the open loop deals to clients)
	readMix   bool // preload keys and draw the 80/10/10 mix; else every op is a fresh write
	retrans   time.Duration
	probeTime time.Duration
}

type kvSystem struct {
	cfg      kvConfig
	sim      *circus.SimNetwork
	nodes    []*circus.Node
	runtimes []*core.Runtime
	kvs      [][]*chaos.KV // by shard, member
	disks    []*wal.MemFS
	logs     []*wal.Log
	clients  []*mesh.Client
	shardKey map[string]string // shard -> some key it owns
	prefix   string
	preload  []string
	mix      [][]uint32 // per caller: kind<<24 | key rank

	mu    sync.Mutex
	acked []string // keys whose write was acknowledged
}

// valueFor is the value every write stores under key: the key padded
// to kvValueBytes, so any reader can check a reply without a table.
func valueFor(key string) string {
	return key + strings.Repeat(".", kvValueBytes-len(key))
}

func isValueFor(got []byte, key string) bool {
	if len(got) != kvValueBytes || string(got[:len(key)]) != key {
		return false
	}
	for _, b := range got[len(key):] {
		if b != '.' {
			return false
		}
	}
	return true
}

func kvResilient(seed int64) core.ResilientOptions {
	return core.ResilientOptions{
		MaxAttempts:  10,
		Backoff:      core.Backoff{Initial: 15 * time.Millisecond, Max: 250 * time.Millisecond},
		SuspicionTTL: 400 * time.Millisecond,
		Seed:         seed,
	}
}

// newKV builds the mesh: a Ringmaster, kvShards shards of kvDegree
// durable chaos.KV members, each behind a mesh.Guard and on its own
// wal.MemFS with the configured fsync time, a controller that
// bootstraps the shard map, and the routing clients. The logs are
// opened through Node.OpenWAL, so segment size and snapshot cadence are
// the facade's defaults.
func newKV(seed int64, cfg kvConfig, tr *tracer) (_ *kvSystem, err error) {
	s := &kvSystem{cfg: cfg, sim: circus.NewSimNetwork(seed), shardKey: make(map[string]string),
		prefix: fmt.Sprintf("s%x", uint64(seed))}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	s.sim.SetLink(cfg.link)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	base := []circus.Option{circus.WithTimers(cfg.retrans, cfg.probeTime),
		circus.WithManyToOneWait(2 * time.Second), circus.WithTrace(tr.sink())}
	newNode := func(opts ...circus.Option) (*circus.Node, error) {
		n, err := s.sim.NewNode(append(opts, base...)...)
		if err == nil {
			s.nodes = append(s.nodes, n)
			s.runtimes = append(s.runtimes, n.Runtime())
		}
		return n, err
	}

	binder, err := newNode()
	if err != nil {
		return nil, err
	}
	if _, err := binder.ServeRingmaster(); err != nil {
		return nil, err
	}
	boot := circus.WithBinder(binder.BinderAddrs())

	names := make([]string, kvShards)
	s.kvs = make([][]*chaos.KV, kvShards)
	for sh := range names {
		names[sh] = fmt.Sprintf("%s/s%d", kvService, sh)
		for i := 0; i < kvDegree; i++ {
			disk := wal.NewMemFS(seed ^ int64(0xd15c<<12|sh<<8|i))
			disk.SetSyncDelay(cfg.fsync)
			s.disks = append(s.disks, disk)
			var fs wal.FS = disk
			if tr != nil {
				fs = timedFS{FS: disk, tr: tr}
			}
			n, err := newNode(boot)
			if err != nil {
				return nil, err
			}
			log, rec, err := wal.Open(wal.Options{FS: fs, Name: fmt.Sprintf("kv%d.%d", sh, i)})
			if err != nil {
				return nil, err
			}
			s.logs = append(s.logs, log)
			kv, err := chaos.NewDurableKV(log, rec)
			if err != nil {
				return nil, err
			}
			s.kvs[sh] = append(s.kvs[sh], kv)
			var inner core.Module = kv
			if tr != nil {
				inner = &timedModule{inner: kv, pos: kv, tr: tr, node: n.Addr()}
			}
			var mod core.Module = mesh.NewGuard(names[sh], inner, chaos.KVKeys)
			if tr != nil {
				mod = &timedModule{inner: mod, tr: tr, node: n.Addr(), outer: true}
			}
			if _, err := n.Export(names[sh], mod); err != nil {
				return nil, err
			}
		}
	}

	admin, err := newNode(boot)
	if err != nil {
		return nil, err
	}
	// The controller only bootstraps the map; it never migrates, so it
	// needs no state codec.
	ctl := mesh.NewController(admin.Runtime(), admin.Binder(), kvService, nil)
	ctl.Resilient = kvResilient(seed ^ 0xc01)
	if _, err := ctl.Bootstrap(ctx, names, 0); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.clients; i++ {
		n, err := newNode(boot)
		if err != nil {
			return nil, err
		}
		mc, err := mesh.NewClient(ctx, n.Runtime(), n.Binder(), kvService,
			mesh.Options{Resilient: kvResilient(seed<<8 | int64(i))})
		if err != nil {
			return nil, err
		}
		s.clients = append(s.clients, mc)
	}
	for i := 0; len(s.shardKey) < kvShards; i++ {
		key := fmt.Sprintf("%s.probe%d", s.prefix, i)
		if owner := s.clients[0].Owner(key); s.shardKey[owner] == "" {
			s.shardKey[owner] = key
		}
	}

	// Inputs, all from the seed and all before any load: the preloaded
	// keys, and per caller the operation mix with its Zipf draws.
	rng := rand.New(rand.NewSource(seed))
	if cfg.readMix {
		for i := 0; i < kvPreload; i++ {
			s.preload = append(s.preload, fmt.Sprintf("%s.k%05d", s.prefix, i))
		}
		rng.Shuffle(len(s.preload), func(i, j int) { s.preload[i], s.preload[j] = s.preload[j], s.preload[i] })
		s.mix = make([][]uint32, cfg.callers)
		for c := range s.mix {
			zipf := rand.NewZipf(rng, kvZipf, 1, kvPreload-1)
			s.mix[c] = make([]uint32, opsPerCaller)
			for i := range s.mix[c] {
				kind := opPrimary
				switch r := rng.Float64(); {
				case r >= 0.9:
					kind = opWrite
				case r >= 0.8:
					kind = opStrictRead
				}
				s.mix[c][i] = uint32(kind)<<24 | uint32(zipf.Uint64())
			}
		}
		if err := s.load(ctx); err != nil {
			return nil, err
		}
	}
	// Bind every client to every shard and open its message channels.
	for _, mc := range s.clients {
		for _, key := range s.shardKey {
			if _, err := mc.Call(ctx, key, procGet, []byte(key), core.CallOptions{Timeout: opTimeout}); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// load writes the preloaded keys through the clients, eight at a time.
func (s *kvSystem) load(ctx context.Context) error {
	const writers = 8
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for i := w; i < len(s.preload); i += writers {
				if err := s.put(ctx, s.clients[i%len(s.clients)], s.preload[i], nil); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	var first error
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (s *kvSystem) put(ctx context.Context, mc *mesh.Client, key string, th *thread.Context) error {
	args, err := chaos.PutArgs(key, valueFor(key))
	if err != nil {
		return err
	}
	got, err := mc.Call(ctx, key, procPut, args, core.CallOptions{Timeout: opTimeout, Thread: th})
	if err != nil {
		return err
	}
	if string(got) != key {
		return fmt.Errorf("put %q acknowledged as %q", key, got)
	}
	s.mu.Lock()
	s.acked = append(s.acked, key)
	s.mu.Unlock()
	return nil
}

func (s *kvSystem) op(ctx context.Context, caller, i int, th *thread.Context) (opKind, error) {
	mc := s.clients[caller%len(s.clients)]
	if !s.cfg.readMix {
		return opPrimary, s.put(ctx, mc, fmt.Sprintf("%s.w%d.%d", s.prefix, caller, i), th)
	}
	m := s.mix[caller][i%opsPerCaller]
	kind := opKind(m >> 24)
	if kind == opWrite {
		return kind, s.put(ctx, mc, fmt.Sprintf("%s.w%d.%d", s.prefix, caller, i), th)
	}
	key := s.preload[m&0xFFFFFF]
	copts := core.CallOptions{Timeout: opTimeout, Thread: th}
	var got []byte
	var err error
	if kind == opStrictRead {
		got, err = mc.Call(ctx, key, procGet, []byte(key), copts)
	} else {
		got, err = mc.SpreadRead(ctx, key, procGet, []byte(key), copts)
	}
	if err == nil && !isValueFor(got, key) {
		err = fmt.Errorf("read of %q returned %d bytes that are not its value", key, len(got))
	}
	return kind, err
}

func (s *kvSystem) counters() counters {
	c := counters{msg: sumMsg(s.runtimes)}
	c.netSendOps, c.netDgrams, _, c.netDropped = s.sim.Stats()
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	for _, mc := range s.clients {
		m := mc.Stats()
		c.mesh.Redirects += m.Redirects
		c.mesh.Refreshes += m.Refreshes
		c.mesh.SpreadReads += m.SpreadReads
		c.mesh.StaleBounces += m.StaleBounces
		c.mesh.Escalations += m.Escalations
		c.mesh.HotWidenings += m.HotWidenings
		c.mesh.StaleServes += m.StaleServes
		for _, key := range s.shardKey {
			if _, rc, err := mc.ShardCaller(ctx, key); err == nil {
				r := rc.Stats()
				c.attempts += r.Attempts
				c.rebinds += r.Rebinds
				c.suspected += r.Suspected
			}
		}
	}
	for _, l := range s.logs {
		w := l.Stats()
		c.wal.Appends += w.Appends
		c.wal.Fsyncs += w.Fsyncs
		c.wal.Snapshots += w.Snapshots
		c.wal.Segments += w.Segments
	}
	for _, d := range s.disks {
		c.diskFsyncs += d.Fsyncs()
	}
	return c
}

// verify checks the mesh after the load has drained: every
// acknowledged write reads back with its value through a strict
// (unanimous) read, the members of each shard sit at one position, no
// member executed a replicated call twice or saw conflicting values,
// and no client was served below its position token.
func (s *kvSystem) verify(ctx context.Context) error {
	const readers = 32
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		go func(r int) {
			mc := s.clients[r%len(s.clients)]
			for i := r; i < len(s.acked); i += readers {
				key := s.acked[i]
				got, err := mc.Call(ctx, key, procGet, []byte(key), core.CallOptions{Timeout: opTimeout})
				if err == nil && !isValueFor(got, key) {
					err = fmt.Errorf("acknowledged write %q does not read back", key)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(r)
	}
	var first error
	for r := 0; r < readers; r++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		return first
	}
	for sh, members := range s.kvs {
		for i, kv := range members {
			if v := kv.Violations(); len(v) > 0 {
				return fmt.Errorf("shard %d member %d: %s", sh, i, v[0])
			}
			if p, p0 := kv.Position(), members[0].Position(); p != p0 {
				return fmt.Errorf("shard %d: member %d at position %d, member 0 at %d", sh, i, p, p0)
			}
		}
	}
	if n := s.counters().mesh.StaleServes; n > 0 {
		return fmt.Errorf("%d spread reads served below the position token", n)
	}
	return nil
}

func (s *kvSystem) close() {
	for _, n := range s.nodes {
		n.Close()
	}
	for _, l := range s.logs {
		l.Close()
	}
}
