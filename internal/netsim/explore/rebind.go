package explore

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"circus/internal/core"
	"circus/internal/netsim"
	"circus/internal/pairedmsg"
	"circus/internal/thread"
	"circus/internal/trace"
	"circus/internal/trace/check"
	"circus/internal/wire"
)

// exploreOpts are runtime options for systems under exploration:
// every protocol timer is pushed far past the schedule's horizon, so
// nothing happens except when the explorer delivers a message, and
// acks go out immediately rather than on a piggyback timer. No
// scenario has the six transfers to one peer in flight that would arm
// pairedmsg's pacing timer.
func exploreOpts(rec trace.Sink, resolver core.Resolver) core.Options {
	return core.Options{
		Message: pairedmsg.Options{
			RetransmitInterval: 30 * time.Second,
			MaxRetries:         4,
			ProbeInterval:      time.Minute,
			ProbeMissLimit:     5,
			AckDelay:           -1, // immediate: no delayed-ack timer in the schedule
		},
		ManyToOneTimeout:   time.Minute,
		CallRetention:      time.Minute,
		DefaultCallTimeout: core.NoTimeout,
		Resolver:           resolver,
		Trace:              rec,
	}
}

// counterMod counts executions; the echo of the at-most-once tests.
type counterMod struct{ execs atomic.Int32 }

func (m *counterMod) Dispatch(call *core.ServerCall, proc uint16, args []byte) ([]byte, error) {
	m.execs.Add(1)
	return args, nil
}

// RebindScenario targets the §6.2 repair window: a replicated client
// troupe of two members makes one logical call to a server while a
// repairman concurrently rebinds the server's troupe ID (the
// set_troupe_id of a reconfiguration). Under every interleaving the
// server must execute the call exactly once — the second member's
// call message, whenever it lands, must collate with (or replay the
// buffered return of) the first. The invariant is checked both
// directly (the module's execution count) and through the trace
// conformance rules, so a violating schedule pins the exact event.
type RebindScenario struct{}

func (RebindScenario) Name() string { return "rebind" }

// Build implements Scenario.
func (RebindScenario) Build(net *netsim.Network, seed int64) (func() error, func() []string, func(), error) {
	rec := trace.NewRecorder()
	resolver := core.StaticResolver{}
	opts := exploreOpts(rec, resolver)

	var rts []*core.Runtime
	stop := func() {
		for _, rt := range rts {
			rt.Close()
		}
	}
	newRT := func() (*core.Runtime, error) {
		ep, err := net.Listen(net.NewHost(), 0)
		if err != nil {
			return nil, err
		}
		rt := core.NewRuntime(ep, opts)
		rts = append(rts, rt)
		return rt, nil
	}

	server, err := newRT()
	if err != nil {
		return nil, nil, stop, err
	}
	mod := &counterMod{}
	// ArgFirstCome keeps the server fully message-driven: it executes
	// on the first member's message with no availability timer, and
	// later siblings read the buffered return (§4.3.4).
	saddr := server.Export(mod, core.ExportOptions{Policy: core.ArgFirstCome})
	// Troupe ID zero means direct addressing: the rebind changes the
	// server's registered ID mid-flight, and the point is to exercise
	// the collation state across that change, not the staleness check.
	serverTroupe := core.Troupe{Members: []core.ModuleAddr{saddr}}

	c1, err := newRT()
	if err != nil {
		return nil, nil, stop, err
	}
	c2, err := newRT()
	if err != nil {
		return nil, nil, stop, err
	}
	repair, err := newRT()
	if err != nil {
		return nil, nil, stop, err
	}
	const clientTroupe = core.TroupeID(0xc1)
	resolver[clientTroupe] = []core.ModuleAddr{
		{Addr: c1.Addr(), Module: 0},
		{Addr: c2.Addr(), Module: 0},
	}

	tid := thread.ID{Host: 701, Proc: 1}
	drive := func() error {
		ctx := context.Background()
		var wg sync.WaitGroup
		errs := make(chan error, 3)
		for i, rt := range []*core.Runtime{c1, c2} {
			i, rt := i, rt
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Identical thread contexts: the two calls are one
				// logical call from a replicated caller (§4.3.2).
				tc := thread.Child(tid, []uint32{1})
				out, err := rt.Call(ctx, serverTroupe, 1, []byte("once"), core.CallOptions{
					Thread: tc, AsTroupe: clientTroupe,
				})
				if err != nil {
					errs <- fmt.Errorf("member %d call: %w", i+1, err)
				} else if string(out) != "once" {
					errs <- fmt.Errorf("member %d got %q", i+1, out)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			arg, err := wire.Marshal(uint64(0x7e))
			if err != nil {
				errs <- err
				return
			}
			if _, err := repair.Call(ctx, serverTroupe, core.ProcSetTroupeID, arg, core.CallOptions{}); err != nil {
				errs <- fmt.Errorf("rebind call: %w", err)
			}
		}()
		wg.Wait()
		close(errs)
		return <-errs
	}

	checkFn := func() []string {
		var vs []string
		if n := mod.execs.Load(); n != 1 {
			vs = append(vs, fmt.Sprintf("replicated call executed %d times, want exactly once", n))
		}
		for _, v := range check.Check(rec.Events(), check.Config{}) {
			vs = append(vs, "trace: "+v.String())
		}
		return vs
	}
	return drive, checkFn, stop, nil
}
