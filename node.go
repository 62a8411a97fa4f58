package circus

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"circus/internal/collate"
	"circus/internal/core"
	"circus/internal/pairedmsg"
	"circus/internal/ringmaster"
	"circus/internal/thread"
	"circus/internal/trace"
	"circus/internal/trace/monitor"
	"circus/internal/transport"
	"circus/internal/udptrans"
)

// Option configures a Node.
type Option func(*nodeConfig)

type nodeConfig struct {
	binder    []ModuleAddr
	msg       pairedmsg.Options
	m2oWait   time.Duration
	multicast bool
	trace     []trace.Sink
	metrics   bool
	monitor   *monitor.Options
	durable   *Durability
}

// WithMulticast enables the multicast implementation of one-to-many
// calls (§4.3.3) when the transport supports it (the simulated network
// does; plain UDP does not): call messages reach the whole server
// troupe in one send operation.
func WithMulticast() Option {
	return func(c *nodeConfig) { c.multicast = true }
}

// WithBinder points the node at a Ringmaster troupe, given the module
// addresses of its members (the degenerate bootstrap binding of §6.3).
func WithBinder(members []ModuleAddr) Option {
	return func(c *nodeConfig) { c.binder = append([]ModuleAddr(nil), members...) }
}

// WithTrace attaches a structured event sink to the node: the paired
// message layer, the call layers, and any Ringmaster service hosted on
// this node emit trace events into it. Multiple WithTrace options
// compose. A nil sink is ignored; with no sink the tracing hot paths
// compile to a single nil check.
func WithTrace(sink trace.Sink) Option {
	return func(c *nodeConfig) {
		if sink != nil {
			c.trace = append(c.trace, sink)
		}
	}
}

// WithMetrics attaches an in-process metrics aggregator — per-kind
// event counters, per-peer message counters, per-troupe call counters,
// and a call-latency histogram — queryable via Node.Metrics().
func WithMetrics() Option {
	return func(c *nodeConfig) { c.metrics = true }
}

// WithMonitor attaches the online protocol monitor as a trace sink:
// invariant breaches (duplicate execution, ack-before-send, …) surface
// the moment they happen, queryable via Node.Monitor(). When combined
// with WithMetrics, every breach is also counted per invariant in the
// node's metrics snapshot, unless opts.Metrics already routes the
// counts elsewhere.
func WithMonitor(opts monitor.Options) Option {
	return func(c *nodeConfig) { c.monitor = &opts }
}

// WithTimers overrides the paired message protocol timers: the
// retransmission interval and the probe interval; retry bounds scale
// accordingly (§4.2.3).
func WithTimers(retransmit, probe time.Duration) Option {
	return func(c *nodeConfig) {
		c.msg.RetransmitInterval = retransmit
		c.msg.ProbeInterval = probe
	}
}

// WithManyToOneWait overrides how long a server waits for the
// remaining call messages of a replicated call after the first arrives
// (§4.3.2).
func WithManyToOneWait(d time.Duration) Option {
	return func(c *nodeConfig) { c.m2oWait = d }
}

// fastSimTimers are brisk defaults appropriate to an in-memory
// network.
func fastSimTimers() pairedmsg.Options {
	return pairedmsg.Options{
		RetransmitInterval: 20 * time.Millisecond,
		MaxRetries:         20,
		ProbeInterval:      40 * time.Millisecond,
		ProbeMissLimit:     5,
	}
}

// Node is one Circus process: a runtime bound to a network endpoint,
// optionally attached to a binding agent. On a SimNetwork each node is
// also its own simulated machine.
type Node struct {
	rt      *core.Runtime
	binder  *ringmaster.Client
	metrics *trace.Metrics   // nil unless WithMetrics
	monitor *monitor.Monitor // nil unless WithMonitor
	durable *Durability      // nil unless WithDurability

	// suspicion is shared by every resilient stub of this node, so one
	// stub's crash evidence spares the others a timeout.
	suspicion *core.Suspicion

	mu        sync.Mutex
	exports   map[string]uint16 // name -> module number
	ringSvc   *ringmaster.Service
	ringAddrs []ModuleAddr
}

// NewNode creates a node on a fresh simulated machine.
func (s *SimNetwork) NewNode(opts ...Option) (*Node, error) {
	ep, err := s.net.Listen(s.net.NewHost(), 0)
	if err != nil {
		return nil, err
	}
	return newNode(ep, fastSimTimers(), opts...)
}

// NewNodeOnHost creates an additional node (process) on the machine of
// an existing node, sharing its failure mode.
func (s *SimNetwork) NewNodeOnHost(peer *Node, opts ...Option) (*Node, error) {
	ep, err := s.net.Listen(peer.rt.Addr().Host, 0)
	if err != nil {
		return nil, err
	}
	return newNode(ep, fastSimTimers(), opts...)
}

// ListenUDP creates a node on a real UDP loopback socket (port 0
// selects a free port), the multi-process deployment of §4.2.
func ListenUDP(port uint16, opts ...Option) (*Node, error) {
	ep, err := udptrans.Listen(port)
	if err != nil {
		return nil, err
	}
	return newNode(ep, pairedmsg.Options{}, opts...)
}

func newNode(ep transport.Endpoint, msg pairedmsg.Options, opts ...Option) (*Node, error) {
	cfg := nodeConfig{msg: msg}
	for _, o := range opts {
		o(&cfg)
	}
	var metrics *trace.Metrics
	if cfg.metrics {
		metrics = trace.NewMetrics()
		cfg.trace = append(cfg.trace, metrics)
	}
	var mon *monitor.Monitor
	if cfg.monitor != nil {
		if cfg.monitor.Metrics == nil {
			cfg.monitor.Metrics = metrics // nil when metrics are off: monitor counts alone
		}
		mon = monitor.New(*cfg.monitor)
		cfg.trace = append(cfg.trace, mon)
	}
	rt := core.NewRuntime(ep, core.Options{
		Message:          cfg.msg,
		ManyToOneTimeout: cfg.m2oWait,
		Multicast:        cfg.multicast,
		Trace:            trace.Multi(cfg.trace...),
	})
	if metrics != nil {
		metrics.SetTableSource(func() trace.TableGauges {
			ct := rt.CallTable()
			return trace.TableGauges{LiveCalls: ct.Live, CallTombstones: ct.Tombstones,
				CompletedRecords: rt.MessageStats().CompletedRecords}
		})
	}
	n := &Node{rt: rt, metrics: metrics, monitor: mon, durable: cfg.durable, suspicion: core.NewSuspicion(), exports: make(map[string]uint16)}
	if len(cfg.binder) > 0 {
		n.binder = ringmaster.NewClient(rt, Troupe{Members: cfg.binder})
		rt.SetResolver(n.binder)
	}
	return n, nil
}

// Addr returns the node's process address.
func (n *Node) Addr() Addr { return n.rt.Addr() }

// Runtime exposes the underlying runtime for advanced use (the
// experiment harness and tests).
func (n *Node) Runtime() *core.Runtime { return n.rt }

// Metrics returns the node's metrics aggregator, or nil unless the
// node was created with WithMetrics.
func (n *Node) Metrics() *trace.Metrics { return n.metrics }

// Monitor returns the node's online protocol monitor, or nil unless
// the node was created with WithMonitor.
func (n *Node) Monitor() *monitor.Monitor { return n.monitor }

// Close shuts the node down.
func (n *Node) Close() error { return n.rt.Close() }

// Context returns a context carrying a fresh distributed thread rooted
// at this node (§3.4.1). Calls made with contexts derived from it
// propagate the thread ID.
func (n *Node) Context(parent context.Context) context.Context {
	return thread.NewContext(parent, n.rt.NewThread())
}

// ExportOption configures an export.
type ExportOption func(*core.ExportOptions)

// WithArgFirstCome makes the module execute a replicated call as soon
// as the first client member's call message arrives (§4.3.4).
func WithArgFirstCome() ExportOption {
	return func(o *core.ExportOptions) { o.Policy = core.ArgFirstCome }
}

// WithArgMajority makes the module wait for call messages from a
// majority of the client troupe (§4.3.5).
func WithArgMajority() ExportOption {
	return func(o *core.ExportOptions) { o.Policy = core.ArgMajority }
}

// WithDivergentArgs permits client troupe members to send different
// argument messages, for modules using explicit replication that
// collate arguments themselves via ServerCall.Args (§7.4).
func WithDivergentArgs() ExportOption {
	return func(o *core.ExportOptions) { o.AllowDivergentArgs = true }
}

// Export makes the module available under the given interface name:
// the module is exported on this node and, when a binder is
// configured, added as a member of the troupe registered under name
// (§6.3: if no troupe is associated with the name, a new one is
// created with this module as its only member).
func (n *Node) Export(name string, m Module, opts ...ExportOption) (ModuleAddr, error) {
	var eo core.ExportOptions
	for _, o := range opts {
		o(&eo)
	}
	addr := n.rt.Export(m, eo)
	n.mu.Lock()
	n.exports[name] = addr.Module
	n.mu.Unlock()
	if n.binder != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if _, err := n.binder.AddMember(ctx, name, addr); err != nil {
			n.rt.Unexport(addr.Module)
			return ModuleAddr{}, fmt.Errorf("circus: registering %q: %w", name, err)
		}
	}
	return addr, nil
}

// ExportLocal exports a module on this node without registering it
// with the binding agent; a third party — typically the configuration
// manager (§7.5.3) — registers the assembled troupe afterwards.
func (n *Node) ExportLocal(name string, m Module, opts ...ExportOption) ModuleAddr {
	var eo core.ExportOptions
	for _, o := range opts {
		o(&eo)
	}
	addr := n.rt.Export(m, eo)
	n.mu.Lock()
	n.exports[name] = addr.Module
	n.mu.Unlock()
	return addr
}

// FetchState retrieves the externalized module state of the troupe
// registered under name via its get_state procedure (§6.4.1), for
// initializing a fresh replica.
func (n *Node) FetchState(ctx context.Context, name string) ([]byte, error) {
	if n.binder == nil {
		return nil, errors.New("circus: FetchState requires a binder")
	}
	existing, err := n.binder.LookupByName(ctx, name)
	if err != nil {
		return nil, err
	}
	return n.rt.Call(ctx, existing, core.ProcGetState, nil, core.CallOptions{})
}

// JoinTroupe adds this node as a new member of an existing troupe,
// first bringing the module into a state consistent with the other
// members by calling their get_state procedure (§6.4.1), then
// registering with the binding agent. The module must implement
// StateProvider if the troupe already exists.
func (n *Node) JoinTroupe(ctx context.Context, name string, m Module, opts ...ExportOption) (ModuleAddr, error) {
	if n.binder == nil {
		return ModuleAddr{}, errors.New("circus: JoinTroupe requires a binder")
	}
	existing, err := n.binder.LookupByName(ctx, name)
	if err == nil && existing.Degree() > 0 {
		sp, ok := m.(StateProvider)
		if !ok {
			return ModuleAddr{}, fmt.Errorf("circus: module %q does not support state transfer", name)
		}
		// The states of the existing members are consistent and
		// get_state is side-effect free, so an unreplicated call to
		// any member would suffice (§6.4.1); calling the whole troupe
		// with the unanimous collator additionally verifies troupe
		// consistency at no algorithmic cost.
		state, err := n.rt.Call(ctx, existing, core.ProcGetState, nil, core.CallOptions{})
		if err != nil {
			return ModuleAddr{}, fmt.Errorf("circus: get_state from %q: %w", name, err)
		}
		if err := sp.SetState(state); err != nil {
			return ModuleAddr{}, fmt.Errorf("circus: internalizing state: %w", err)
		}
	}
	return n.Export(name, m, opts...)
}

// ServeRingmaster starts a Ringmaster binding agent member on this
// node (§6.3). Returns its module address, to be handed to other nodes
// via WithBinder.
func (n *Node) ServeRingmaster() (ModuleAddr, error) {
	n.mu.Lock()
	if n.ringSvc == nil {
		n.ringSvc = ringmaster.NewService()
		n.ringSvc.Tracer = n.rt.Tracer()
	}
	svc := n.ringSvc
	n.mu.Unlock()
	addr := n.rt.Export(svc, core.ExportOptions{})
	n.mu.Lock()
	n.ringAddrs = append(n.ringAddrs, addr)
	n.mu.Unlock()
	// The Ringmaster resolves client troupe IDs from its own registry:
	// it is its own resolver.
	n.rt.SetResolver(resolverFunc(func(id TroupeID) ([]ModuleAddr, error) {
		res, err := svc.Dispatch(nil, ringmaster.ProcLookupByID, mustMarshal(uint64(id)))
		if err != nil {
			return nil, err
		}
		var rep struct {
			ID      uint64
			Members []struct {
				Host   uint32
				Port   uint16
				Module uint16
			}
		}
		if err := Unmarshal(res, &rep); err != nil {
			return nil, err
		}
		var members []ModuleAddr
		for _, w := range rep.Members {
			members = append(members, ModuleAddr{
				Addr:   Addr{Host: w.Host, Port: w.Port},
				Module: w.Module,
			})
		}
		return members, nil
	}))
	return addr, nil
}

type resolverFunc func(TroupeID) ([]ModuleAddr, error)

func (f resolverFunc) LookupByID(id TroupeID) ([]ModuleAddr, error) { return f(id) }

func mustMarshal(v any) []byte {
	b, err := Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// Binder returns the node's Ringmaster client, or nil.
func (n *Node) Binder() *ringmaster.Client { return n.binder }

// BinderAddrs returns the binding-agent member addresses this node
// serves (after ServeRingmaster), suitable for WithBinder on other
// nodes.
func (n *Node) BinderAddrs() []ModuleAddr {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]ModuleAddr(nil), n.ringAddrs...)
}

// Import binds to the troupe registered under name and returns a stub
// for calling it. The binding is cached; stale bindings are detected
// via troupe IDs and refreshed transparently (§6.1–6.2).
func (n *Node) Import(ctx context.Context, name string) (*Stub, error) {
	if n.binder == nil {
		return nil, errors.New("circus: Import requires a binder")
	}
	t, err := n.binder.LookupByName(ctx, name)
	if err != nil {
		return nil, err
	}
	return &Stub{node: n, name: name, troupe: t}, nil
}

// StubFor returns a stub for an explicitly supplied troupe, bypassing
// the binding agent (used with static configurations and the
// configuration manager).
func (n *Node) StubFor(t Troupe) *Stub {
	return &Stub{node: n, troupe: t}
}

// ImportResilient binds to the troupe registered under name and
// returns a self-healing stub: calls through it retry member crashes
// and transient partitions with exponential backoff, rebind on stale
// bindings, and skip members recently presumed crashed instead of
// timing out against them anew (suspicion is shared node-wide). See
// ResilientOptions for retry safety: a retried call may re-execute
// the procedure, so operations should be idempotent.
func (n *Node) ImportResilient(ctx context.Context, name string, opts ResilientOptions) (*ResilientStub, error) {
	if n.binder == nil {
		return nil, errors.New("circus: ImportResilient requires a binder")
	}
	if opts.Suspicion == nil {
		opts.Suspicion = n.suspicion
	}
	rc, err := n.binder.NewResilientCaller(ctx, name, opts)
	if err != nil {
		return nil, err
	}
	return &ResilientStub{rc: rc}, nil
}

// ResilientStub is a self-healing client-side handle on a troupe,
// produced by ImportResilient.
type ResilientStub struct {
	rc *core.ResilientCaller
}

// Call performs a replicated procedure call, transparently riding out
// member crashes, partitions, and binder-driven reconfigurations
// within the retry budget.
func (s *ResilientStub) Call(ctx context.Context, proc uint16, args []byte, opts ...CallOption) ([]byte, error) {
	var co core.CallOptions
	for _, o := range opts {
		o(&co)
	}
	return s.rc.Call(ctx, proc, args, co)
}

// Troupe returns the stub's current binding.
func (s *ResilientStub) Troupe() Troupe { return s.rc.Troupe() }

// Stats reports the stub's recovery counters.
func (s *ResilientStub) Stats() ResilientStats { return s.rc.Stats() }

// GarbageCollect probes every registered troupe member and removes
// those that do not answer (§6.1).
func (n *Node) GarbageCollect(ctx context.Context, probeTimeout time.Duration) (int, error) {
	if n.binder == nil {
		return 0, errors.New("circus: GarbageCollect requires a binder")
	}
	return n.binder.GarbageCollect(ctx, probeTimeout)
}

// CallOption tunes one replicated call.
type CallOption func(*core.CallOptions)

// WithCollator selects the collator applied to the return messages.
func WithCollator(mk func(n int) Collator) CallOption {
	return func(o *core.CallOptions) {
		o.Collator = func(n int) collate.Collator { return mk(n) }
	}
}

// WithFirstCome is shorthand for the first-come collator (§4.3.4).
func WithFirstCome() CallOption { return WithCollator(FirstCome) }

// WithMajority is shorthand for the majority collator.
func WithMajority() CallOption { return WithCollator(Majority) }

// WithTimeout bounds the call.
func WithTimeout(d time.Duration) CallOption {
	return func(o *core.CallOptions) { o.Timeout = d }
}

// AsTroupe marks the caller as a member of the given troupe so the
// callee collates the calls of all its members (§4.3.2); used with
// explicit replication.
func AsTroupe(id TroupeID) CallOption {
	return func(o *core.CallOptions) { o.AsTroupe = id }
}

// Stub is a client-side handle on a troupe. It performs replicated
// procedure calls with exactly-once execution at all members and
// transparently rebinds when the cached troupe membership proves stale
// (§6.1).
type Stub struct {
	node *Node
	name string

	mu     sync.Mutex
	troupe Troupe
}

// Troupe returns the stub's current binding.
func (s *Stub) Troupe() Troupe {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.troupe
}

// Call performs a replicated procedure call: proc is the procedure
// number within the module interface, args the externalized
// parameters. On a stale binding the stub rebinds via the binding
// agent and retries (§6.1).
func (s *Stub) Call(ctx context.Context, proc uint16, args []byte, opts ...CallOption) ([]byte, error) {
	var co core.CallOptions
	for _, o := range opts {
		o(&co)
	}
	const rebindAttempts = 3
	for attempt := 0; ; attempt++ {
		res, err := s.node.rt.Call(ctx, s.Troupe(), proc, args, co)
		var stale *StaleBindingError
		if err == nil || !errors.As(err, &stale) || attempt >= rebindAttempts ||
			s.node.binder == nil || s.name == "" {
			return res, err
		}
		fresh, rerr := s.node.binder.Rebind(ctx, s.name, s.Troupe())
		if rerr != nil {
			return nil, fmt.Errorf("circus: rebinding %q: %w", s.name, rerr)
		}
		if tr := s.node.rt.Tracer(); tr.Enabled() {
			tr.Emit(trace.Event{Kind: trace.KindRebind,
				Troupe: uint64(fresh.ID), N: fresh.Degree(), Detail: s.name})
		}
		s.mu.Lock()
		s.troupe = fresh
		s.mu.Unlock()
	}
}

// CallEach performs the one-to-many call and returns the raw generator
// of member replies, for explicit replication (§7.4): the caller
// collates them itself, may stop early, and every member still
// executes exactly once.
func (s *Stub) CallEach(ctx context.Context, proc uint16, args []byte, opts ...CallOption) (<-chan Reply, int) {
	var co core.CallOptions
	for _, o := range opts {
		o(&co)
	}
	t := s.Troupe()
	return s.node.rt.CallEach(ctx, t, proc, args, co), t.Degree()
}

// Ping runs the null procedure at every member (§6.1).
func (s *Stub) Ping(ctx context.Context, opts ...CallOption) error {
	_, err := s.Call(ctx, core.ProcPing, nil, opts...)
	return err
}

// CallWatchdog implements the watchdog scheme of §4.3.4: computation
// proceeds with the first result, while a watchdog keeps collecting
// the remaining replies. The returned channel yields exactly one
// value, the verdict of the unanimous collator fed every reply: nil if
// the members agreed, ErrDisagreement or the deciding member error if
// not — the signal to abort the surrounding transaction. A call that
// yields no result fails with that verdict. Exactly-once execution at
// all members is unaffected.
func (s *Stub) CallWatchdog(ctx context.Context, proc uint16, args []byte, opts ...CallOption) ([]byte, <-chan error, error) {
	items, n := s.CallEach(ctx, proc, args, opts...)
	verdict := make(chan error, 1)
	u := collate.Unanimous(n)
	var first []byte
	got, done := false, false
	consumed := 0
	for consumed < n && !got && !done {
		it := <-items
		consumed++
		done = u.Add(it)
		if it.Err == nil {
			first, got = it.Data, true
		}
	}
	if !got {
		_, err := u.Result()
		verdict <- err
		close(verdict)
		return nil, verdict, err
	}

	go func() {
		defer close(verdict)
		for ; consumed < n && !done; consumed++ {
			done = u.Add(<-items)
		}
		_, err := u.Result()
		verdict <- err
	}()
	return first, verdict, nil
}
