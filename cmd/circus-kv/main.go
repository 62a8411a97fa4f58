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
	"strings"
	"time"

	"circus"
	"circus/internal/kv"
)

const serviceName = "circus-kv"

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

// request maps a command onto the store's procedure and arguments.
func request(cmd string, args []string) (uint16, []byte, error) {
	want := map[string]int{"put": 2, "get": 1, "del": 1, "list": 0}[cmd]
	if len(args) < want {
		return 0, nil, fmt.Errorf("%s needs %d argument(s)", cmd, want)
	}
	switch cmd {
	case "put":
		b, err := kv.PutArgs(args[0], args[1])
		return kv.ProcPut, b, err
	case "get":
		return kv.ProcGet, []byte(args[0]), nil
	case "del":
		b, err := circus.Marshal([]string{args[0]})
		return kv.ProcDel, b, err
	default:
		return kv.ProcDump, nil, nil
	}
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
		addr, err := node.JoinTroupe(ctx, serviceName, kv.New())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("replica serving at %v (joined troupe %q; state transferred if peers existed)\n",
			addr.Addr, serviceName)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
	case "put", "get", "del", "list":
		stub, err := node.Import(ctx, serviceName)
		if err != nil {
			log.Fatal(err)
		}
		proc, args, err := request(cmd, flag.Args()[1:])
		if err != nil {
			log.Fatal(err)
		}
		res, err := stub.Call(node.Context(ctx), proc, args)
		if err != nil {
			log.Fatal(err)
		}
		switch cmd {
		case "get":
			fmt.Println(string(res))
		case "list":
			pairs, err := kv.DecodePairs(res)
			if err != nil {
				log.Fatal(err)
			}
			for _, p := range pairs {
				fmt.Println(p.Key)
			}
		default:
			fmt.Printf("ok (%d replicas unanimous)\n", stub.Troupe().Degree())
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
