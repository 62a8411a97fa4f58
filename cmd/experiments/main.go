// Experiments regenerates every table and figure of the dissertation's
// evaluation, printing model/measured rows beside the paper's
// published numbers. EXPERIMENTS.md records a snapshot of this output.
// The native rows are shape checks against the paper; this
// implementation's performance numbers come from the repository
// benchmark (`bash benchmark/run.sh`).
//
//	go run ./cmd/experiments             # everything
//	go run ./cmd/experiments -run table4.1
//
// Experiment IDs: table4.1 table4.2 table4.3 figure4.8 multicast
// eq5.1 figure5.1 figure6.3 ablation native
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime/pprof"
	"strings"

	"circus/internal/bench"
	"circus/internal/trace"
)

type experiment struct {
	id  string
	run func() (string, error)
}

func main() {
	runID := flag.String("run", "", "run only the experiment with this ID")
	seed := flag.Int64("seed", 1985, "random seed for Monte-Carlo experiments")
	quick := flag.Bool("quick", false, "smaller iteration counts")
	traceFile := flag.String("trace", "", "write a JSONL protocol trace of the native experiments to this file")
	cpuProf := flag.String("cpuprofile", "", "record a CPU profile during the run and write it to this file")
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			log.Fatalf("creating trace file: %v", err)
		}
		jsonl := trace.NewJSONL(f)
		defer func() {
			if err := jsonl.Close(); err != nil {
				log.Printf("writing trace: %v", err)
			}
		}()
		bench.Trace = jsonl
	}

	trials := 200000
	callIters, bcast := 200, 40
	if *quick {
		trials = 20000
		callIters, bcast = 30, 10
	}

	experiments := []experiment{
		{"table4.1", func() (string, error) { return bench.Table41(), nil }},
		{"table4.2", func() (string, error) { return bench.Table42(), nil }},
		{"table4.3", func() (string, error) { return bench.Table43(), nil }},
		{"figure4.8", func() (string, error) { return bench.Figure48(), nil }},
		{"multicast", func() (string, error) { return bench.MulticastAnalysis(*seed), nil }},
		{"eq5.1", func() (string, error) { return bench.Eq51(*seed, trials), nil }},
		{"figure5.1", func() (string, error) {
			return bench.OrderedBroadcastNative(*seed, 3, 3, bcast)
		}},
		{"figure6.3", func() (string, error) { return bench.Figure63(*seed), nil }},
		{"ablation", func() (string, error) {
			a := bench.CollatorAblation(*seed)
			b, err := bench.WaitPolicyNative(*seed, callIters/4)
			if err != nil {
				return "", err
			}
			c, err := bench.MulticastAblation(*seed, callIters/2)
			if err != nil {
				return "", err
			}
			d, err := bench.RetransmitAblation(*seed, callIters/10)
			if err != nil {
				return "", err
			}
			return a + "\n" + b + "\n" + c + "\n" + d, nil
		}},
		{"native", func() (string, error) {
			return bench.NativeReplicatedCall(*seed, []int{1, 2, 3, 4, 5}, callIters)
		}},
	}

	ran := 0
	for _, e := range experiments {
		if *runID != "" && e.id != *runID {
			continue
		}
		out, err := e.run()
		if err != nil {
			log.Fatalf("%s: %v", e.id, err)
		}
		fmt.Printf("==== %s %s\n%s\n", e.id, strings.Repeat("=", 60-len(e.id)), out)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *runID)
		os.Exit(2)
	}
}
