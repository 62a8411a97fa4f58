// Command benchmark is the one benchmark of this repository: four
// workloads, nine end-to-end metrics and a per-layer budget, all
// measured from outside the program through functions that are already
// public to the module. See README.md in this directory.
//
//	go run ./benchmark -workload echo_serial -seed 1 -seconds 15 -trace 0
//	go run ./benchmark -workload all -out runs.jsonl
//	go run ./benchmark -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// environment is recorded with every result, so that two sets of runs
// can be told apart when they disagree.
type environment struct {
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GitSHA     string `json:"git_sha"`
	Network    string `json:"network"`
}

func env() environment {
	e := environment{Go: runtime.Version(), CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GitSHA: "unknown", Kernel: "unknown",
		Network: "netsim in process; echo_udp on host loopback"}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	// The commit is stamped into the binary when it is built inside a git
	// checkout; the driver's checkout is not one.
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				e.GitSHA = s.Value
			}
		}
	}
	return e
}

// contractLine is the last line of standard output: what the driver
// reads.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) line(correct bool) contractLine {
	l := contractLine{Correct: correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]contractMetric{}}
	values, defs := r.EndToEnd, endToEnd
	if r.Trace {
		values, defs = r.PerLayer, perLayer()
	}
	for _, d := range defs {
		l.Metrics[d.name] = contractMetric{Value: values[d.name], Unit: d.unit}
	}
	return l
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Int("seconds", 15, "length of the measured window")
		trace   = flag.Int("trace", 0, "1: also run the traced pass and the layer probes, and print the per-layer metrics")
		out     = flag.String("out", "", "append each run's full result to this file, one JSON object per line")
		compare = flag.Bool("compare", false, "compare two files written with -out: benchmark -compare a.jsonl b.jsonl")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two result files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 {
		fatal(errors.New("-seconds must be at least 1"))
	}

	var chosen []workload
	for _, w := range workloads() {
		if *name == "all" || *name == w.name {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 {
		fatal(fmt.Errorf("no workload %q", *name))
	}
	for _, w := range chosen {
		res, err := w.run(defaultOptions(*seed, *seconds, *trace == 1))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			if res == nil || !errors.Is(err, errIncorrect) {
				os.Exit(1)
			}
		}
		if *out != "" {
			if err := appendResult(*out, res); err != nil {
				fatal(err)
			}
		}
		// The full result first; the contract's line last.
		full, _ := json.Marshal(res)
		line, _ := json.Marshal(res.line(err == nil))
		fmt.Printf("%s\n%s\n", full, line)
	}
}

func appendResult(path string, res *result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
