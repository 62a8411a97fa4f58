// Circus-kv is a replicated key-value service for driving the stack
// across real OS processes on one machine (the paper's deployment
// environment, §4.4.1). Run a binding agent, any number of replicas,
// and clients, each in its own process:
//
//	# terminal 1: the binding agent
//	go run ./cmd/ringmaster -port 911
//
//	# terminals 2..4: three replicas (state transfer on join)
//	go run ./cmd/circus-kv -binder 127.0.0.1:911 serve
//
//	# terminal 5: use it
//	go run ./cmd/circus-kv -binder 127.0.0.1:911 put color red
//	go run ./cmd/circus-kv -binder 127.0.0.1:911 get color
//	go run ./cmd/circus-kv -binder 127.0.0.1:911 members
//
// Kill a replica mid-session: gets and puts keep working (partial
// failures masked); start a new one and it joins with state transfer.
package main

import (
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"net/netip"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"time"

	"circus"
)

const serviceName = "circus-kv"

// kvArgs is the wire format of put/get arguments.
type kvArgs struct {
	K string
	V string
}

// kv is the replicated module: an ordinary map with deterministic
// state transitions and sorted state transfer.
type kv struct {
	mu   sync.Mutex
	data map[string]string
}

func newKV() *kv { return &kv{data: map[string]string{}} }

func (m *kv) Dispatch(call *circus.ServerCall, proc uint16, args []byte) ([]byte, error) {
	var a kvArgs
	if err := circus.Unmarshal(args, &a); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	switch proc {
	case 1: // put
		m.data[a.K] = a.V
		return circus.Marshal(uint32(len(m.data)))
	case 2: // get
		v, ok := m.data[a.K]
		if !ok {
			return nil, &circus.AppError{Msg: "no such key: " + a.K}
		}
		return circus.Marshal(v)
	case 3: // del
		delete(m.data, a.K)
		return circus.Marshal(uint32(len(m.data)))
	case 4: // list
		keys := make([]string, 0, len(m.data))
		for k := range m.data {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return circus.Marshal(keys)
	default:
		return nil, circus.ErrNoSuchProc
	}
}

func (m *kv) GetState() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return circus.Marshal(m.data)
}

func (m *kv) SetState(b []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.data = map[string]string{}
	return circus.Unmarshal(b, &m.data)
}

// parseBinder reads comma-separated binder addresses, each four dotted
// octets and a port in 0–65535.
func parseBinder(s string) ([]circus.ModuleAddr, error) {
	var members []circus.ModuleAddr
	for _, part := range strings.Split(s, ",") {
		ap, err := netip.ParseAddrPort(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("binder address %q: %v", part, err)
		}
		if !ap.Addr().Is4() {
			return nil, fmt.Errorf("binder address %q is not IPv4", part)
		}
		ip := ap.Addr().As4()
		members = append(members, circus.ModuleAddr{
			Addr: circus.Addr{Host: binary.BigEndian.Uint32(ip[:]), Port: ap.Port()},
		})
	}
	return members, nil
}

func main() {
	binder := flag.String("binder", "127.0.0.1:911", "comma-separated binding agent addresses")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: circus-kv [-binder host:port[,host:port]] serve | put K V | get K | del K | list | members | gc")
		os.Exit(2)
	}
	boot, err := parseBinder(*binder)
	if err != nil {
		log.Fatal(err)
	}
	node, err := circus.ListenUDP(0, circus.WithBinder(boot))
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	switch cmd := flag.Arg(0); cmd {
	case "serve":
		addr, err := node.JoinTroupe(ctx, serviceName, newKV())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("replica serving at %v (joined troupe %q; state transferred if peers existed)\n",
			addr.Addr, serviceName)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
	case "put", "get", "del":
		if flag.NArg() < 2 {
			log.Fatalf("%s needs a key", cmd)
		}
		stub, err := node.Import(ctx, serviceName)
		if err != nil {
			log.Fatal(err)
		}
		a := kvArgs{K: flag.Arg(1)}
		proc := map[string]uint16{"put": 1, "get": 2, "del": 3}[cmd]
		if cmd == "put" {
			if flag.NArg() < 3 {
				log.Fatal("put needs a value")
			}
			a.V = flag.Arg(2)
		}
		args, _ := circus.Marshal(a)
		res, err := stub.Call(node.Context(ctx), proc, args)
		if err != nil {
			log.Fatal(err)
		}
		switch cmd {
		case "get":
			var v string
			circus.Unmarshal(res, &v)
			fmt.Println(v)
		default:
			var n uint32
			circus.Unmarshal(res, &n)
			fmt.Printf("ok (%d keys, %d replicas unanimous)\n", n, stub.Troupe().Degree())
		}
	case "list":
		stub, err := node.Import(ctx, serviceName)
		if err != nil {
			log.Fatal(err)
		}
		args, _ := circus.Marshal(kvArgs{})
		res, err := stub.Call(node.Context(ctx), 4, args)
		if err != nil {
			log.Fatal(err)
		}
		var keys []string
		circus.Unmarshal(res, &keys)
		for _, k := range keys {
			fmt.Println(k)
		}
	case "members":
		stub, err := node.Import(ctx, serviceName)
		if err != nil {
			log.Fatal(err)
		}
		t := stub.Troupe()
		fmt.Printf("troupe %v, degree %d\n", t.ID, t.Degree())
		for _, m := range t.Members {
			fmt.Printf("  %v\n", m)
		}
	case "gc":
		removed, err := node.GarbageCollect(ctx, 2*time.Second)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("removed %d unreachable members\n", removed)
	default:
		log.Fatalf("unknown command %q", cmd)
	}
}
