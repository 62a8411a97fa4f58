package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"

	"circus"
	"circus/internal/collate"
)

// workload is one row of the benchmark: how to set the system up and
// what load to put on it. Everything else is shared.
type workload struct {
	name  string
	why   string
	setup func(seed int64, tr *tracer) (system, error)
	// callers is the closed-loop caller count, or for an open loop the
	// number of clients arrivals are dealt to.
	callers int
	// rate, when not zero, makes the loop open: Poisson arrivals per
	// second. An open-loop workload is then driven to saturation by
	// this many closed-loop callers, for rate_ok_per_s.
	rate     float64
	saturate int
	// gomaxprocs is the GOMAXPROCS the workload runs at: procs, except
	// for echo_serial. Its one caller waits for every reply, so no two
	// goroutines are busy for long at the same time, and on a second
	// processor every handoff between them wakes an idle virtual
	// processor, which costs what the host charges that second (README,
	// "GOMAXPROCS").
	gomaxprocs int
}

// procs is min(nproc, 4): GOMAXPROCS of every workload but echo_serial,
// and the caller and client counts that ISSUE states in terms of nproc.
var procs = min(runtime.NumCPU(), 4)

const openRate = 1000 // kv_write_open: writes per second in the measured window

func workloads() []workload {
	writeLink := circus.LinkConfig{MinDelay: 200 * time.Microsecond, MaxDelay: 400 * time.Microsecond}
	return []workload{
		{
			name:       "echo_serial",
			why:        "one caller, degree-3 echo, 16 B, instant netsim: processor time of one replicated call (wire, pairedmsg, core, collate, netsim); no mesh, kv, wal or udptrans",
			callers:    1,
			gomaxprocs: 1,
			setup:      func(seed int64, tr *tracer) (system, error) { return newEchoSim(seed, echoDegree, tr) },
		},
		{
			name:       "kv_write_open",
			why:        "open loop, 1000 durable writes/s from due time, 2x3 mesh, 200 us fsync, 200-400 us links: the only workload where queueing, group commit and batching set the result",
			callers:    2,
			rate:       openRate,
			saturate:   256,
			gomaxprocs: procs,
			setup: func(seed int64, tr *tracer) (system, error) {
				return newKV(seed, kvConfig{link: writeLink, fsync: 200 * time.Microsecond, clients: 2,
					retrans: 100 * time.Millisecond, probeTime: 200 * time.Millisecond}, tr)
			},
		},
		{
			name:       "kv_read_mix",
			why:        "closed loop, Zipf(1.2) over 4096 keys, 80% spread reads, 10% strict reads, 10% writes: the mesh read path beside writes, so a read gain that costs strict reads or writes shows",
			callers:    2 * procs,
			gomaxprocs: procs,
			setup: func(seed int64, tr *tracer) (system, error) {
				return newKV(seed, kvConfig{fsync: 100 * time.Microsecond, clients: procs, callers: 2 * procs, readMix: true,
					retrans: 100 * time.Millisecond, probeTime: 200 * time.Millisecond}, tr)
			},
		},
		{
			name:       "echo_udp",
			why:        "closed loop over real loopback UDP, every 10th call 4096 B: the only workload where udptrans and pairedmsg segmentation and reassembly do any work",
			callers:    procs,
			gomaxprocs: procs,
			setup:      func(seed int64, tr *tracer) (system, error) { return newEchoUDP(seed, tr) },
		},
	}
}

// runOptions are the sizes of one run. The defaults are the contract's;
// the smoke test shrinks them.
type runOptions struct {
	seed        int64
	rounds      int           // fresh systems measured, one after the other
	spare       int           // rounds measured again because the hypervisor disturbed them, at most
	quietWait   time.Duration // time spent waiting for the hypervisor to leave the machine alone, at most
	window      time.Duration // measured stretch of one round
	warmup      time.Duration // discarded stretch before it
	saturateDur time.Duration // measured stretch of an open loop's saturation phase; 0 skips it
	trace       bool          // also run the traced pass and the layer probes
	traceOps    int
	traceDur    time.Duration
	probe       probeSizes
}

// fullRounds is the number of rounds --seconds is divided into.
const fullRounds = 5

func defaultOptions(seed int64, seconds int, trace bool) runOptions {
	o := runOptions{seed: seed, rounds: fullRounds, spare: 2, quietWait: 20 * time.Second,
		window: time.Duration(seconds) * time.Second / fullRounds,
		warmup: time.Second, saturateDur: 1600 * time.Millisecond,
		trace: trace, traceOps: 20000, traceDur: 5 * time.Second, probe: fullProbes}
	// A traced run reports per-layer metrics only; two rounds give it
	// the untraced latency its tracing overhead is measured against.
	if trace {
		o.rounds = 2
	}
	return o
}

// result is everything one run measured.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	WindowS   float64            `json:"window_s"` // measured stretch of one round
	Trace     bool               `json:"trace"`
	Env       environment        `json:"env"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FailShare float64            `json:"fail_share"`
	Samples   map[string]int     `json:"samples"` // latency samples behind each metric, all rounds together
	EndToEnd  map[string]float64 `json:"end_to_end"`
	AliasOf   map[string]string  `json:"alias_of,omitempty"` // end-to-end metrics this workload has no operation for
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	// Rounds holds every metric's value in every round kept, and
	// RoundStolen the share of the machine withheld during each; steady
	// makes an end-to-end value of a row.
	Rounds      map[string][]float64 `json:"rounds"`
	RoundStolen []float64            `json:"stolen_share_rounds"`
	Repeated    int                  `json:"rounds_repeated"` // disturbed rounds that were measured again
	QuietWaitS  float64              `json:"quiet_wait_s"`    // time spent waiting for a quiet machine
	Spans       map[string]int       `json:"spans,omitempty"` // join counts of the traced pass
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// load runs one phase of the workload's kind of loop.
func (w *workload) load(ctx context.Context, sys system, dur time.Duration, maxOps int, next []int, rng *rand.Rand, tr *tracer) *phase {
	if w.rate == 0 {
		return closedLoop(ctx, sys, w.callers, dur, maxOps, next, tr)
	}
	p := openLoop(ctx, sys, w.callers, poisson(rng, w.rate, dur), dur, next[0], tr)
	next[0] += len(p.samples)
	return p
}

// errIncorrect marks a run whose outputs failed their check; its
// result is still printed, with "correct": false.
var errIncorrect = errors.New("output check failed")

// round is what one fresh system measured.
type round struct {
	values            map[string]float64 // the end-to-end metrics this workload has an operation for
	samples           map[string]int
	attempted, failed int
	stolen            float64 // largest share of the machine withheld during a measured phase
	win               *phase
	before, after     *layerReading // the layers' counters around the window
}

// latencyMetrics names the operation kind behind each median latency.
var latencyMetrics = map[string]opKind{"op_p50_us": opPrimary, "write_p50_us": opWrite,
	"strict_read_p50_us": opStrictRead, "large_p50_us": opLarge}

// setUp builds the round's system and times it. A set-up of less than
// 20 ms is repeated until that much has been spent on it, at most 20
// times, and the time is the mean: one set-up of half a millisecond says
// more about the scheduler than about the program, and on one processor
// every other one waits a millisecond for a timer, so that their median
// falls on either side from run to run.
func (w *workload) setUp(seed int64) (system, float64, error) {
	var times []float64
	for spent := 0.0; ; {
		t0 := time.Now()
		sys, err := w.setup(seed, nil)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if spent += times[len(times)-1]; spent >= 0.02 || len(times) == 20 {
			return sys, collate.MeanFloat64(times), nil
		}
		sys.close()
	}
}

// round builds a system from the seed, warms it up, measures it and
// checks its outputs. Every round starts from the same state, a new
// system on a collected heap, so what grows with a system's age (above
// all the 60 s of retained call records, which the collector marks
// again in every cycle) grows the same way in every round.
func (w *workload) round(ctx context.Context, o runOptions, seed int64, rng *rand.Rand) (*round, error) {
	runtime.GC() // the last round's system, outside any measurement
	sys, setupS, err := w.setUp(seed)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	rd := &round{values: map[string]float64{"setup_s": setupS}, samples: map[string]int{}}
	v := rd.values

	next := make([]int, w.callers)
	w.load(ctx, sys, o.warmup, 0, next, rng, nil)
	rd.before = readLayers(sys)
	win := w.load(ctx, sys, o.window, 0, next, rng, nil)
	rd.after = readLayers(sys)
	rd.win, rd.stolen, rd.attempted, rd.failed = win, win.stolen, win.attempted(), win.failed()
	if win.done() == 0 {
		return nil, fmt.Errorf("no operation completed")
	}
	v["ops_per_s"] = float64(win.done()) / win.elapsed.Seconds()
	v["cpu_us_per_op"] = us(win.cpu) / float64(win.done())
	for name, kind := range latencyMetrics {
		if lat := latencies(win.samples, kind); len(lat) > 0 {
			v[name], rd.samples[name] = us(quantile(lat, 0.5)), len(lat)
			if kind == opPrimary {
				v["op_p95_us"], v["op_p99_us"] = us(quantile(lat, 0.95)), us(quantile(lat, 0.99))
			}
		}
	}

	if w.saturate > 0 && o.saturateDur > 0 {
		// Fresh keys: sequence numbers no open-loop phase reaches.
		from := make([]int, w.saturate)
		for i := range from {
			from[i] = 1 << 28
		}
		closedLoop(ctx, sys, w.saturate, o.saturateDur/4, 0, from, nil)
		sat := closedLoop(ctx, sys, w.saturate, o.saturateDur, 0, from, nil)
		rd.stolen, rd.attempted, rd.failed = max(rd.stolen, sat.stolen), rd.attempted+sat.attempted(), rd.failed+sat.failed()
		if sat.done() == 0 {
			return nil, fmt.Errorf("no operation completed while saturated")
		}
		// The processor time of a write is taken here, where the
		// processors are busy: at the open loop's rate they idle between
		// arrivals, and most of what the process then uses is the cost of
		// parking and waking threads, which the host sets.
		v["rate_ok_per_s"] = float64(sat.done()) / sat.elapsed.Seconds()
		v["cpu_us_per_op"] = us(sat.cpu) / float64(sat.done())
		v["saturated_p50_us"] = us(quantile(latencies(sat.samples, opPrimary), 0.5))
	}

	if err := sys.verify(ctx); err != nil {
		return rd, fmt.Errorf("%w: %v", errIncorrect, err)
	}
	return rd, nil
}

// run measures one workload once.
func (w *workload) run(o runOptions) (*result, error) {
	ctx := context.Background()
	runtime.GOMAXPROCS(w.gomaxprocs)
	res := &result{Workload: w.name, Seed: o.seed, WindowS: o.window.Seconds(), Trace: o.trace, Env: env(),
		Samples: map[string]int{}, EndToEnd: map[string]float64{}, AliasOf: map[string]string{},
		Rounds: map[string][]float64{}}

	// The arrival schedules of an open loop come from their own
	// generator, so the schedule depends only on the seed. Each round's
	// system takes a seed of its own from the run's, so that a run sees
	// several placements of the keys on the ring, not one.
	rng := rand.New(rand.NewSource(o.seed ^ 0x5eed))
	var last *round
	for r := 0; r < o.rounds; r++ {
		res.QuietWaitS += awaitQuiet(o.quietWait - time.Duration(res.QuietWaitS*float64(time.Second))).Seconds()
		rd, err := w.round(ctx, o, o.seed<<4|int64(r), rng)
		if rd != nil {
			res.Attempted, res.Failed = res.Attempted+rd.attempted, res.Failed+rd.failed
		}
		if err != nil {
			if rd == nil {
				return nil, err
			}
			return res, err
		}
		if rd.stolen > maxStolen && res.Repeated < o.spare {
			res.Repeated++
			r--
			continue
		}
		last = rd
		res.RoundStolen = append(res.RoundStolen, rd.stolen)
		for name, x := range rd.values {
			res.Rounds[name] = append(res.Rounds[name], x)
		}
		for name, n := range rd.samples {
			res.Samples[name] += n
		}
	}
	res.FailShare = float64(res.Failed) / float64(max(res.Attempted, 1))

	// Every run prints every end-to-end metric. A workload without the
	// operation a metric describes repeats its nearest own metric, so
	// that row can neither fail nor pass on its own.
	e := res.EndToEnd
	for _, d := range endToEnd {
		if v := res.Rounds[d.name]; len(v) > 0 {
			e[d.name] = steady(v, res.RoundStolen, higherIsBetter[d.name])
		}
	}
	for _, name := range endToEndNames {
		if _, ok := e[name]; ok {
			continue
		}
		alias := "op_p50_us"
		if name == "rate_ok_per_s" {
			alias = "ops_per_s"
		}
		e[name], res.AliasOf[name] = e[alias], alias
	}
	if !o.trace {
		return res, nil
	}

	// Per-layer metrics: counters over the last round's window, spans
	// from a traced pass on another system, probes of single layers.
	res.PerLayer = map[string]float64{"op_p99_us": steady(res.Rounds["op_p99_us"], res.RoundStolen, false)}
	counterMetrics(res.PerLayer, last.before, last.after, last.win)
	runtime.GC()
	tr := newTracer()
	sys, err := w.setup(o.seed<<4|int64(o.rounds), tr)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	defer sys.close()
	next := make([]int, w.callers)
	w.load(ctx, sys, o.warmup, 0, next, rng, nil)
	tr.reset()
	traced := w.load(ctx, sys, o.traceDur, o.traceOps, next, rng, tr)
	if err := spanMetrics(res, tr, traced); err != nil {
		return res, err
	}
	return res, probes(res.PerLayer, o.probe)
}

// maxStolen is the share of the machine's processor time the hypervisor
// may withhold during a round before the round counts as disturbed.
// The evidence is the kernel's (/proc/stat), not the program's own
// timing, so acting on it does not flatter the program.
const maxStolen = 0.02

// awaitQuiet returns once the hypervisor has withheld at most maxStolen
// of the machine's processor time for a quarter of a second, or when
// budget has been spent waiting for that, and says how long it waited. A
// neighbour's burst lasts a minute or two here; a run that measures
// through it is an outlier however it is summarised.
func awaitQuiet(budget time.Duration) time.Duration {
	const look = 250 * time.Millisecond
	start := time.Now()
	for time.Since(start)+look <= budget {
		var p phase
		r := read()
		time.Sleep(look)
		if p.since(r); p.stolen <= maxStolen {
			break
		}
	}
	return time.Since(start)
}

// steady is the value a run reports for a metric it has one value of
// per round: the mean of the better half of the rounds (three of five).
// What the host does to a round (a busy neighbour, a processor taken
// away) only ever makes it slower, for tens of seconds at a time, so the
// better rounds are the ones that say most about the program; a change to
// the program moves all of them. Rounds during which the hypervisor
// withheld more than maxStolen that could not be measured again are left
// out first, unless fewer than three would remain.
func steady(values, stolen []float64, higher bool) float64 {
	var calm []float64
	for i, x := range values {
		if stolen[i] <= maxStolen {
			calm = append(calm, x)
		}
	}
	if len(calm) < 3 {
		calm = append([]float64(nil), values...)
	}
	sort.Float64s(calm)
	if higher {
		slices.Reverse(calm)
	}
	return collate.MeanFloat64(calm[:(len(calm)+1)/2])
}

// spanMetrics joins the traced pass and reports its spans.
func spanMetrics(res *result, tr *tracer, traced *phase) error {
	l, st := res.PerLayer, tr.joinSpans(opPrimary)
	for _, name := range spanNames {
		d := st.durs[name]
		l[name+".p50"], l[name+".p99"] = us(quantile(d, 0.5)), us(quantile(d, 0.99))
	}
	l["trace.overhead_share"] = us(quantile(latencies(traced.samples, opPrimary), 0.5))/res.EndToEnd["op_p50_us"] - 1
	res.Spans = map[string]int{"ops": st.ops, "joined": st.joined, "multi_attempt": st.multiAttempt}
	if st.joined == 0 {
		return fmt.Errorf("traced pass: none of %d operations could be joined", st.ops)
	}
	if math.Abs(st.unattribShare) > 0.1 {
		return fmt.Errorf("traced pass: %.0f%% of span.root_us is unattributed", 100*st.unattribShare)
	}
	return nil
}
