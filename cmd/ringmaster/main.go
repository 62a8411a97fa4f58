// Ringmaster runs a standalone binding agent member over real UDP
// (§6.3): other OS processes on this machine point circus.WithBinder
// at its printed address. Start several (on different ports) to form a
// replicated binding agent troupe.
//
//	ringmaster -port 911           # the well-known port of §6.3
//	ringmaster -port 0 -gc 30s     # ephemeral port, sweep every 30 s
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"circus"
)

func main() {
	port := flag.Uint("port", 911, "UDP port to listen on (0 = ephemeral)")
	gcEvery := flag.Duration("gc", 0, "garbage-collect unreachable members at this interval (0 = never)")
	flag.Parse()
	if *port > 65535 {
		log.Fatalf("-port %d is not in 0-65535", *port)
	}

	node, err := circus.ListenUDP(uint16(*port))
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()
	addr, err := node.ServeRingmaster()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ringmaster serving at %v (module %d)\n", addr.Addr, addr.Module)

	if *gcEvery > 0 {
		// The sweeper needs a binder client pointing at ourselves.
		sweeper, err := circus.ListenUDP(0, circus.WithBinder([]circus.ModuleAddr{addr}))
		if err != nil {
			log.Fatal(err)
		}
		defer sweeper.Close()
		go func() {
			ticker := time.NewTicker(*gcEvery)
			defer ticker.Stop()
			for range ticker.C {
				ctx, cancel := context.WithTimeout(context.Background(), *gcEvery)
				removed, err := sweeper.GarbageCollect(ctx, 2*time.Second)
				cancel()
				if err != nil {
					log.Printf("gc: %v", err)
				} else if removed > 0 {
					log.Printf("gc: removed %d unreachable members", removed)
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("shutting down")
}
