// Package circus is the public face of a Go implementation of
// troupes and replicated procedure call, after Eric C. Cooper,
// "Replicated Distributed Programs" (UC Berkeley, 1985) and the Circus
// system it describes.
//
// A replicated distributed program is built from troupes: sets of
// replicas of a module executing on machines with independent failure
// modes. Troupe members do not communicate among themselves and are
// unaware of one another's existence; clients reach a troupe through
// replicated procedure calls whose semantics are exactly-once
// execution at all members. Replication is therefore transparent at
// the programming-in-the-small level: a module is written once, as if
// unreplicated, and its degree of replication is chosen — and changed
// at run time — as a programming-in-the-large decision.
//
// The package wraps the building blocks implemented under internal/:
// a simulated internet with fault injection (or real UDP), the paired
// message protocol of §4.2, the replicated call runtime of §4.3, the
// Ringmaster binding agent of §6.3, collators (§4.3.6), and
// replicated lightweight transactions (§5).
//
// A minimal replicated service:
//
//	sim := circus.NewSimNetwork(1)
//	binder, _ := sim.NewNode()             // host the binding agent
//	binder.ServeRingmaster()
//	boot := binder.BinderAddrs()
//
//	for i := 0; i < 3; i++ {               // a troupe of three echoes
//		n, _ := sim.NewNode(circus.WithBinder(boot))
//		n.Export("echo", circus.ModuleFunc(
//			func(call *circus.ServerCall, proc uint16, args []byte) ([]byte, error) {
//				return args, nil
//			}))
//	}
//
//	client, _ := sim.NewNode(circus.WithBinder(boot))
//	stub, _ := client.Import(context.Background(), "echo")
//	reply, _ := stub.Call(context.Background(), 1, []byte("hi"))
package circus

import (
	"time"

	"circus/internal/collate"
	"circus/internal/core"
	"circus/internal/netsim"
	"circus/internal/trace"
	"circus/internal/transport"
	"circus/internal/wire"
)

// Re-exported core types. These aliases are the public names of the
// runtime's types; user code never imports internal packages.
type (
	// Troupe is a set of replicas of a module together with its
	// troupe ID (§3.5.1).
	Troupe = core.Troupe
	// TroupeID uniquely identifies a troupe incarnation (§6.2).
	TroupeID = core.TroupeID
	// ModuleAddr identifies one instance of a module.
	ModuleAddr = core.ModuleAddr
	// Addr is an internet-style process address.
	Addr = transport.Addr
	// Module is the server side of an exported interface. Its
	// arguments are reused once Dispatch returns.
	Module = core.Module
	// ModuleFunc adapts a function to Module.
	ModuleFunc = core.ModuleFunc
	// ServerCall is the context of one procedure execution, valid
	// until Dispatch returns.
	ServerCall = core.ServerCall
	// StateProvider is implemented by modules supporting state
	// transfer to new troupe members (§6.4.1).
	StateProvider = core.StateProvider
	// AppError is an application-level error raised by a remote
	// procedure.
	AppError = core.AppError
	// StaleBindingError reports an obsolete cached binding (§6.2).
	StaleBindingError = core.StaleBindingError
	// ResilientOptions configures a self-healing stub's retry budget,
	// backoff, suspicion, and rebinding.
	ResilientOptions = core.ResilientOptions
	// Backoff shapes retry delays: exponential growth with jitter.
	Backoff = core.Backoff
	// Suspicion tracks members recently presumed crashed; shared
	// trackers let one caller's evidence benefit others.
	Suspicion = core.Suspicion
	// ResilientStats counts a resilient stub's recovery actions.
	ResilientStats = core.ResilientStats
	// Reply is one troupe member's response in a generator stream
	// (§7.4).
	Reply = collate.Item
	// Collator reduces the set of messages from a troupe to a single
	// result (§4.3.6). A Reply's Data is valid only during the Add
	// that receives it, so a Collator copies any bytes it keeps.
	Collator = collate.Collator
	// TraceEvent is one structured protocol event (see WithTrace).
	TraceEvent = trace.Event
	// TraceKind discriminates trace events.
	TraceKind = trace.Kind
	// TraceSink consumes trace events; implementations must not call
	// back into the emitting node.
	TraceSink = trace.Sink
	// TraceRecorder is an in-memory sink with predicate waits, for
	// tests and the chaos checker.
	TraceRecorder = trace.Recorder
	// Metrics aggregates per-kind, per-peer, and per-troupe counters
	// plus a call-latency histogram (see WithMetrics).
	Metrics = trace.Metrics
	// MetricsSnapshot is a point-in-time copy of a node's metrics.
	MetricsSnapshot = trace.Snapshot
)

// NewTraceRecorder returns an empty in-memory trace recorder, to be
// attached with WithTrace.
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }

// Re-exported errors.
var (
	ErrNoSuchProc   = core.ErrNoSuchProc
	ErrNoSuchModule = core.ErrNoSuchModule
	ErrMemberDown   = core.ErrMemberDown
	ErrTroupeDown   = core.ErrTroupeDown
	ErrDisagreement = collate.ErrDisagreement
	ErrNoMajority   = collate.ErrNoMajority
	ErrAllFailed    = collate.ErrAllFailed
)

// Collator constructors (§4.3.6): Unanimous is the error-detecting
// default; FirstCome trades detection for latency; Majority masks a
// minority of diverging members; Quorum generalizes to k-of-n;
// NewCollator wraps an application-specific collating function (§7.4).
// Each counts a member's refusal (AppError) as a vote, as it counts a
// result, and masks only a presumed crash (ErrMemberDown).
var (
	Unanimous = collate.Unanimous
	FirstCome = collate.FirstCome
	Majority  = collate.Majority
	Quorum    = collate.Quorum
)

// NewCollator wraps an application-specific collating function, which
// sees every member's item and so decides for itself what to mask. f
// is called only when at least one member returned a result; when none
// did the call fails with what the members reported.
func NewCollator(n int, f func(items []Reply) ([]byte, error)) Collator {
	return collate.New(n, f)
}

// Marshal externalizes a value into the standard external
// representation (§7.1); generated stubs and hand-written modules use
// it for parameters and results.
func Marshal(v any) ([]byte, error) { return wire.Marshal(v) }

// Unmarshal internalizes data produced by Marshal.
func Unmarshal(data []byte, out any) error { return wire.Unmarshal(data, out) }

// LinkConfig configures simulated datagram delivery: loss and
// duplication probabilities, propagation delay bounds, and an optional
// bandwidth (bits per second) adding per-datagram serialization delay
// — 10_000_000 models the paper's 10 Mb/s Ethernet.
type LinkConfig struct {
	LossRate      float64
	DupRate       float64
	MinDelay      time.Duration
	MaxDelay      time.Duration
	BitsPerSecond int64
}

// SimNetwork is an in-memory simulated internet on which nodes
// (simulated machines running one Circus process each) are created. It
// supports the fault injection the paper's model assumes: lost,
// delayed and duplicated datagrams, fail-stop machine crashes, and
// network partitions.
type SimNetwork struct {
	net *netsim.Network
}

// NewSimNetwork creates a simulated internet whose fault injection is
// driven deterministically by seed.
func NewSimNetwork(seed int64) *SimNetwork {
	return &SimNetwork{net: netsim.New(seed)}
}

// SetLink sets the default link behaviour between all machines.
func (s *SimNetwork) SetLink(cfg LinkConfig) {
	s.net.SetLink(netsim.LinkConfig(cfg))
}

// Crash fail-stops the machine hosting the node (§2.1.1).
func (s *SimNetwork) Crash(n *Node) { s.net.Crash(n.rt.Addr().Host) }

// CrashAddr fail-stops the machine hosting the given address.
func (s *SimNetwork) CrashAddr(a Addr) { s.net.Crash(a.Host) }

// Restart clears a machine's crashed state.
func (s *SimNetwork) Restart(n *Node) { s.net.Restart(n.rt.Addr().Host) }

// Partition splits the simulated machines into isolated groups; nodes
// in different groups cannot communicate (§4.3.5).
func (s *SimNetwork) Partition(groups ...[]*Node) {
	hostGroups := make([][]uint32, len(groups))
	for i, g := range groups {
		for _, n := range g {
			hostGroups[i] = append(hostGroups[i], n.rt.Addr().Host)
		}
	}
	s.net.Partition(hostGroups...)
}

// Heal removes any partition.
func (s *SimNetwork) Heal() { s.net.Heal() }

// Stats reports datagram-level counters.
func (s *SimNetwork) Stats() (sendOps, datagrams, delivered, dropped int64) {
	st := s.net.Stats()
	return st.SendOps, st.Datagrams, st.Delivered, st.Dropped
}
