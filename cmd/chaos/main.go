// Command chaos runs seeded fault campaigns against a replicated
// key-value troupe on the simulated internet and checks the
// survivability invariants after each: replica state convergence,
// exactly-once execution per replicated call, and no acknowledged
// update lost. It exits nonzero if any campaign finds a violation.
//
// With -durable every member write-ahead logs its acked writes to an
// injected disk, crashes become power losses (page cache discarded,
// log tail possibly torn), and the schedule adds disk faults; with
// -restart-all the campaign additionally power-fails the entire
// troupe at once — survivable only because of the logs.
//
// With -shards N (N > 1) the campaign runs against a partitioned
// mesh instead of a single troupe: N consistent-hash shards of
// -servers members each behind ownership guards, clients routing by
// key through the epoch-versioned shard map, per-shard repairmen, a
// live split migrating a range onto a spare shard mid-campaign, and
// whole-shard kills and partitions joining the fault schedule.
//
// With -explore the command runs deterministic schedule exploration
// instead of fault campaigns: a seeded search over message delivery
// interleavings of the commit-protocol and repair-window scenarios.
// A violating schedule prints its seed and decision list; re-running
// with -seed <n> -schedules 1 replays it exactly.
//
// Usage:
//
//	go run ./cmd/chaos -seeds 20
//	go run ./cmd/chaos -seed 7 -servers 5 -clients 4 -v
//	go run ./cmd/chaos -seeds 5 -trace /tmp/traces   # seed<N>.jsonl per campaign
//	go run ./cmd/chaos -seeds 10 -durable -restart-all
//	go run ./cmd/chaos -seeds 5 -shards 2 -durable -linearize
//	go run ./cmd/chaos -seeds 5 -shards 2 -linearize -spread-reads -zipf 1.2
//	go run ./cmd/chaos -explore -schedules 10
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"circus/internal/chaos"
	"circus/internal/netsim/explore"
	"circus/internal/trace"
)

// runExplore searches delivery schedules of every exploration scenario
// and reports the first violating interleaving, if any. Returns true
// if a violation was found.
func runExplore(seed int64, schedules int, verbose bool) bool {
	scenarios := []explore.Scenario{explore.RebindScenario{}, explore.BroadcastScenario{}}
	violated := false
	for _, sc := range scenarios {
		opts := explore.Options{Seed: seed, Schedules: schedules}
		if verbose {
			opts.Log = func(format string, args ...any) {
				fmt.Printf(format+"\n", args...)
			}
		}
		rep, err := explore.Run(sc, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "explore %s: %v\n", sc.Name(), err)
			os.Exit(1)
		}
		status := "ok"
		if rep.Violating != nil {
			status = "VIOLATED"
			violated = true
		}
		fmt.Printf("explore %-10s %-8s schedules=%-3d steps=%d\n",
			sc.Name(), status, rep.Explored, rep.TotalSteps)
		if s := rep.Violating; s != nil {
			fmt.Printf("    violating schedule: seed %d (replay with -explore -seed %d -schedules 1)\n", s.Seed, s.Seed)
			for _, d := range s.Decisions {
				fmt.Printf("    %s\n", d)
			}
			for _, v := range s.Violations {
				fmt.Printf("    violation: %s\n", v)
			}
		}
	}
	return violated
}

func main() {
	var (
		seeds      = flag.Int("seeds", 1, "run campaigns for seeds 1..N")
		seed       = flag.Int64("seed", 0, "run a single campaign with this seed (overrides -seeds)")
		servers    = flag.Int("servers", 3, "KV troupe degree")
		shards     = flag.Int("shards", 1, "consistent-hash shards; above 1 runs the partitioned-mesh campaign with a live split")
		clients    = flag.Int("clients", 3, "concurrent client processes")
		ops        = flag.Int("ops", 20, "minimum put operations per client caller")
		callers    = flag.Int("callers", 1, "concurrent caller goroutines per client process")
		monitored  = flag.Bool("monitor", false, "run the online runtime monitor live against each campaign's trace stream")
		monSample  = flag.Int("monitor-sample", 0, "monitor 1-in-N identity sampling rate (0 = observe everything)")
		linearize  = flag.Bool("linearize", false, "interleave reads and check the operation history for per-key linearizability")
		spread     = flag.Bool("spread-reads", false, "route the linearized reads through the mesh spread-read path (one member per read, position tokens); requires -shards > 1 and -linearize")
		readFrac   = flag.Float64("read-frac", 0.5, "probability each caller follows a write with a read (with -linearize)")
		zipf       = flag.Float64("zipf", 0, "Zipfian exponent (>1) skewing read-key popularity toward a few hot keys; 0 = uniform")
		plantStale = flag.Bool("plant-stale-read", false, "plant the stale-read guard defect; the campaign must catch it and report VIOLATED (with -spread-reads)")
		durable    = flag.Bool("durable", false, "write-ahead log every member; crashes become power losses, disk faults join the schedule")
		restartAll = flag.Bool("restart-all", false, "power-fail the whole troupe at once mid-campaign (requires -durable)")
		snapEvery  = flag.Int("snapshot-every", 64, "snapshot cadence in log records (durable mode)")
		verbose    = flag.Bool("v", false, "log schedule events and repair actions")
		traceDir   = flag.String("trace", "", "write per-seed JSONL traces (seed<N>.jsonl) into this directory")
		exploreRun = flag.Bool("explore", false, "run deterministic schedule exploration instead of fault campaigns")
		schedules  = flag.Int("schedules", 10, "delivery schedules to search per exploration scenario (with -explore)")
	)
	flag.Parse()

	if *exploreRun {
		first := int64(1)
		if *seed != 0 {
			first = *seed
		}
		if runExplore(first, *schedules, *verbose) {
			os.Exit(1)
		}
		return
	}

	if *restartAll && !*durable {
		fmt.Fprintln(os.Stderr, "chaos: -restart-all requires -durable (a whole-troupe power loss without logs loses everything)")
		os.Exit(2)
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "chaos: creating trace dir: %v\n", err)
			os.Exit(1)
		}
	}

	var list []int64
	if *seed != 0 {
		list = []int64{*seed}
	} else {
		for s := int64(1); s <= int64(*seeds); s++ {
			list = append(list, s)
		}
	}

	violated := false
	var totals struct {
		acked, failed            int
		retries, rebinds         int64
		suspected                int64
		removed, rejoined, viols int
		recoveries               int
		deltaBytes, fullBytes    int64
		fsyncs, snapshots        uint64
	}
	for _, s := range list {
		cfg := chaos.Config{Seed: s, Servers: *servers, Shards: *shards, Clients: *clients, Ops: *ops, Callers: *callers,
			Durable: *durable, RestartAll: *restartAll, SnapshotEvery: *snapEvery,
			Monitor: *monitored, MonitorSample: *monSample, Linearize: *linearize,
			SpreadReads: *spread, ReadFrac: *readFrac, Zipf: *zipf, PlantStaleReadBug: *plantStale}
		if *verbose {
			cfg.Log = func(format string, args ...any) {
				fmt.Printf(format+"\n", args...)
			}
		}
		var jsonl *trace.JSONL
		if *traceDir != "" {
			f, err := os.Create(filepath.Join(*traceDir, fmt.Sprintf("seed%d.jsonl", s)))
			if err != nil {
				fmt.Fprintf(os.Stderr, "chaos: creating trace file: %v\n", err)
				os.Exit(1)
			}
			jsonl = trace.NewJSONL(f)
			cfg.Trace = jsonl
		}
		res, err := chaos.Run(cfg)
		if jsonl != nil {
			if cerr := jsonl.Close(); cerr != nil {
				fmt.Fprintf(os.Stderr, "seed %d: writing trace: %v\n", s, cerr)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "seed %d: campaign failed to run: %v\n", s, err)
			os.Exit(1)
		}
		status := "ok"
		if len(res.Violations) > 0 {
			status = "VIOLATED"
			violated = true
		}
		fmt.Printf("seed %-4d %-8s events=%-2d acked=%-4d failed=%-3d retries=%-3d rebinds=%-3d suspected=%-3d removed=%d rejoined=%d",
			s, status, len(res.Schedule.Events), res.Acked, res.Failed,
			res.Retries, res.Rebinds, res.Suspected, res.Removed, res.Rejoined)
		if *durable {
			fmt.Printf(" recoveries=%d fsyncs=%d snapshots=%d delta=%d/%dB full=%d/%dB",
				res.Recoveries, res.Fsyncs, res.Snapshots,
				res.DeltaTransfers, res.DeltaBytes, res.FullTransfers, res.FullBytes)
		}
		if *shards > 1 {
			fmt.Printf(" redirects=%d parks=%d refreshes=%d rollbacks=%d",
				res.Redirects, res.Parks, res.MapRefreshes, res.SplitRollbacks)
		}
		if *spread {
			fmt.Printf(" spread=%d bounces=%d escalations=%d widened=%d stale-serves=%d",
				res.SpreadReads, res.StaleBounces, res.Escalations,
				res.HotWidenings, res.StaleServes)
		}
		if *monitored {
			fmt.Printf(" monitored=%d/%d", res.MonitorSampled, res.MonitorEvents)
		}
		if *linearize {
			fmt.Printf(" reads=%d linear=%dops/%dkeys", res.Reads, res.LinearOps, res.LinearKeys)
		}
		fmt.Println()
		for _, v := range res.Violations {
			fmt.Printf("    violation: %s\n", v)
		}
		totals.acked += res.Acked
		totals.failed += res.Failed
		totals.retries += res.Retries
		totals.rebinds += res.Rebinds
		totals.suspected += res.Suspected
		totals.removed += res.Removed
		totals.rejoined += res.Rejoined
		totals.viols += len(res.Violations)
		totals.recoveries += res.Recoveries
		totals.deltaBytes += res.DeltaBytes
		totals.fullBytes += res.FullBytes
		totals.fsyncs += res.Fsyncs
		totals.snapshots += res.Snapshots
	}
	fmt.Printf("total: %d campaign(s), acked=%d failed=%d retries=%d rebinds=%d suspected=%d removed=%d rejoined=%d violations=%d\n",
		len(list), totals.acked, totals.failed, totals.retries, totals.rebinds,
		totals.suspected, totals.removed, totals.rejoined, totals.viols)
	if *durable {
		fmt.Printf("durable: recoveries=%d fsyncs=%d snapshots=%d delta-bytes=%d full-bytes=%d\n",
			totals.recoveries, totals.fsyncs, totals.snapshots, totals.deltaBytes, totals.fullBytes)
	}
	if violated {
		os.Exit(1)
	}
}
