package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"circus"
	"circus/internal/chaos"
	"circus/internal/collate"
	"circus/internal/mesh"
	"circus/internal/netsim"
	"circus/internal/pairedmsg"
	"circus/internal/transport"
	"circus/internal/udptrans"
	"circus/internal/wal"
	"circus/internal/wire"
)

// The layer probes time one public call of one layer from a single
// goroutine, a fixed number of times, on the inputs the workloads use.
// They give each layer a number of its own to set beside the spans.

// probeSizes are the iteration counts; the smoke test shrinks them.
type probeSizes struct {
	fast  int // sub-microsecond calls
	call  int // calls that cross a runtime
	timed int // calls that wait on a timer or a disk
}

var fullProbes = probeSizes{fast: 200000, call: 3000, timed: 300}

// measure runs fn n times and returns nanoseconds and heap allocations
// per run.
func measure(n int, fn func()) (ns, allocs float64) {
	fn() // first-call paths
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(d.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// putArgs has the shape of the KV's put arguments, whose own type is
// not exported.
type putArgs struct {
	Key, Val string
	Del      bool
}

// probeFailure carries a probe's error out through panic, so that the
// probe bodies read as straight-line code.
type probeFailure struct{ err error }

func must(err error) {
	if err != nil {
		panic(probeFailure{err})
	}
}

func probes(l map[string]float64, n probeSizes) (err error) {
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(probeFailure)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("layer probe: %w", f.err)
		}
	}()
	key := "s1.w0.12345"
	val := valueFor(key)

	// wire: the put arguments every KV write marshals.
	var enc []byte
	l["wire.marshal_ns"], l["wire.marshal_allocs"] = measure(n.fast, func() { enc, _ = chaos.PutArgs(key, val) })
	l["wire.unmarshal_ns"], _ = measure(n.fast, func() {
		var p putArgs
		must(wire.Unmarshal(enc, &p))
	})

	coll := []collate.Item{{Member: 0, Data: []byte(val)}, {Member: 1, Data: []byte(val)}, {Member: 2, Data: []byte(val)}}
	l["collate.unanimous3_ns"], _ = measure(n.fast, func() {
		c := collate.Unanimous(3)
		for _, it := range coll {
			c.Add(it)
		}
		_, err := c.Result()
		must(err)
	})

	ring := mesh.NewRing([]string{kvService + "/s0", kvService + "/s1"}, 0)
	l["mesh.owner_ns"], _ = measure(n.fast, func() { ring.Owner(key) })

	// netsim: one datagram across an instant link, and how far a 300 us
	// link overshoots in an otherwise idle process (Go arms timers of
	// idle processors late, which inflates every injected delay).
	net := netsim.New(1)
	a, err := net.Listen(net.NewHost(), 0)
	must(err)
	b, err := net.Listen(net.NewHost(), 0)
	must(err)
	dgram := make([]byte, 64)
	hop := func() {
		must(a.Send(b.Addr(), dgram))
		pkt := <-b.Recv()
		if pkt.Buf != nil {
			pkt.Buf.Release()
		}
	}
	l["netsim.hop_ns"], _ = measure(n.fast/10, hop)
	const linkDelay = 300 * time.Microsecond
	net.SetLink(netsim.LinkConfig{MinDelay: linkDelay, MaxDelay: linkDelay})
	over := make([]time.Duration, n.timed)
	for i := range over {
		t0 := time.Now()
		hop()
		over[i] = time.Since(t0) - linkDelay
	}
	l["netsim.delay_overshoot_us"] = us(quantile(sortDurations(over), 0.5))
	a.Close()
	b.Close()

	// udptrans: a datagram there and back over loopback, and a 16-datagram
	// batch handed to SendBatch.
	ua, err := udptrans.Listen(0)
	must(err)
	ub, err := udptrans.Listen(0)
	must(err)
	recv := func(ep *udptrans.Endpoint) {
		pkt := <-ep.Recv()
		if pkt.Buf != nil {
			pkt.Buf.Release()
		}
	}
	l["udptrans.rtt_ns"], _ = measure(n.call, func() {
		must(ua.Send(ub.Addr(), dgram))
		recv(ub)
		must(ub.Send(ua.Addr(), dgram))
		recv(ua)
	})
	batch := make([]transport.Datagram, 16)
	for i := range batch {
		batch[i] = transport.Datagram{To: ub.Addr(), Data: dgram}
	}
	var inBatch time.Duration
	for i := 0; i < n.call/4; i++ {
		t0 := time.Now()
		must(ua.SendBatch(batch))
		inBatch += time.Since(t0)
		for range batch {
			recv(ub)
		}
	}
	l["udptrans.batch_ns_per_dgram"] = float64(inBatch.Nanoseconds()) / float64(n.call/4*len(batch))
	ua.Close()
	ub.Close()
	l["udptrans.iouring_active"] = 0
	if sh, err := udptrans.ListenSharded(0, 1); err == nil {
		if sh.UsingIOUring() {
			l["udptrans.iouring_active"] = 1
		}
		sh.Close()
	}

	// pairedmsg: one call message answered by one return message, 16 B
	// and 4096 B, over an instant netsim.
	net = netsim.New(2)
	ca, err := net.Listen(net.NewHost(), 0)
	must(err)
	cb, err := net.Listen(net.NewHost(), 0)
	must(err)
	cli, srv := pairedmsg.New(ca, pairedmsg.Options{}), pairedmsg.New(cb, pairedmsg.Options{})
	go func() {
		for m := range srv.Incoming() {
			if _, err := srv.StartSend(m.From, pairedmsg.Return, m.CallNum, m.Data); err != nil {
				return
			}
			m.Release()
		}
	}()
	exchange := func(msg []byte) func() {
		return func() {
			t, err := cli.BeginCall(srv.Addr(), msg)
			must(err)
			cli.Transmit(t)
			m := <-cli.Incoming()
			m.Release()
		}
	}
	l["pairedmsg.exchange_ns"], l["pairedmsg.exchange_allocs"] = measure(n.call, exchange(make([]byte, smallPayload)))
	l["pairedmsg.exchange_4k_ns"], _ = measure(n.call, exchange(make([]byte, largePayload)))
	cli.Close()
	srv.Close()

	// core: one replicated echo call at degree 1 and 3, as echo_serial
	// makes them.
	for _, d := range []int{1, echoDegree} {
		s, err := newEchoSim(3, d, nil)
		must(err)
		ns, allocs := measure(n.call, func() {
			_, err := s.op(context.Background(), 0, 0, nil)
			must(err)
		})
		if d == 1 {
			l["core.call_d1_ns"] = ns
		} else {
			l["core.call_d3_ns"], l["core.call_d3_allocs"] = ns, allocs
		}
		s.close()
	}

	// wal: a durable append on a 200 us disk, alone and with 16 appenders
	// sharing group commits.
	disk := wal.NewMemFS(4)
	disk.SetSyncDelay(200 * time.Microsecond)
	log, _, err := wal.Open(wal.Options{FS: disk})
	must(err)
	rec := []byte(val)
	ns, _ := measure(n.timed, func() {
		_, err := log.AppendSync(rec)
		must(err)
	})
	l["wal.append_sync_c1_us"] = ns / 1000
	before := log.Stats()
	const appenders = 16
	var wg sync.WaitGroup
	appendErrs := make([]error, appenders)
	t0 := time.Now()
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n.timed && appendErrs[g] == nil; i++ {
				_, appendErrs[g] = log.AppendSync(rec)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range appendErrs {
		must(err)
	}
	after := log.Stats()
	l["wal.append_sync_c16_us"] = us(time.Since(t0)) / float64(n.timed)
	l["wal.appends_per_fsync_c16"] = ratio(float64(after.Appends-before.Appends), float64(after.Fsyncs-before.Fsyncs))
	log.Close()

	// ringmaster: one name lookup that misses the client's binding cache.
	sim := circus.NewSimNetwork(5)
	binder, err := sim.NewNode()
	must(err)
	_, err = binder.ServeRingmaster()
	must(err)
	member, err := sim.NewNode(circus.WithBinder(binder.BinderAddrs()))
	must(err)
	_, err = member.Export("probe", echoModule())
	must(err)
	client, err := sim.NewNode(circus.WithBinder(binder.BinderAddrs()))
	must(err)
	ns, _ = measure(n.call/3, func() {
		client.Binder().InvalidateAll()
		_, err := client.Binder().LookupByName(context.Background(), "probe")
		must(err)
	})
	l["ringmaster.lookup_us"] = ns / 1000
	for _, nd := range []*circus.Node{client, member, binder} {
		nd.Close()
	}
	return nil
}
