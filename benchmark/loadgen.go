package main

import (
	"context"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"circus/internal/collate"
	"circus/internal/thread"
)

// opKind classifies an operation for the latency tables. Every workload
// has a primary operation (the one op_p50_us / op_p99_us describe); the
// other kinds exist only in the workloads that mix operations.
type opKind uint8

const (
	opPrimary    opKind = iota // echo call, durable write, spread read, 16 B UDP call
	opWrite                    // kv_read_mix: fresh-key write
	opStrictRead               // kv_read_mix: unanimous replicated read
	opLarge                    // echo_udp: 4096 B call
	numKinds
)

// system is one workload's set-up: the program under test plus the
// inputs generated from the seed. The load generators drive it only
// through op.
type system interface {
	// op issues operation i of the given caller. th, when not nil, is
	// the distributed thread the call must run under (the traced pass
	// gives every operation its own thread ID, which is how its events
	// are found again); nil lets the runtime allocate one as usual.
	op(ctx context.Context, caller, i int, th *thread.Context) (opKind, error)
	// counters returns the cumulative layer counters.
	counters() counters
	// verify checks the outputs the run produced.
	verify(ctx context.Context) error
	close()
}

// sample is one completed (or failed) operation. at is the time the
// slices are cut by: the due time in an open loop, the completion time
// in a closed one, both as offsets from the start of the phase.
type sample struct {
	at     time.Duration
	lat    time.Duration
	kind   opKind
	failed bool
}

// phase is what one stretch of load produced.
type phase struct {
	elapsed time.Duration
	cpu     time.Duration // process CPU time used during the phase
	stolen  float64       // share of the machine's processor time the hypervisor withheld during it
	samples []sample
	// Open loop only.
	late        []time.Duration // how late the generator issued each arrival
	inflightMax int64
	inflightEnd float64 // mean in flight over the last tenth of the phase
}

func (p *phase) attempted() int { return len(p.samples) }

func (p *phase) done() int { return p.attempted() - p.failed() }

func (p *phase) failed() int {
	n := 0
	for _, s := range p.samples {
		if s.failed {
			n++
		}
	}
	return n
}

// threadFor gives a traced operation a thread ID no other operation
// has: the generator's tag in Host, the caller and the sequence number
// in Proc. Untraced phases pass nil threads.
func threadFor(caller, i int) *thread.Context {
	return thread.NewRoot(thread.ID{Host: tracedThreadHost, Proc: uint32(caller)<<24 | uint32(i)&0xFFFFFF})
}

// tracedThreadHost marks thread IDs allocated by the traced pass.
const tracedThreadHost = 0xBE7C0000

// closedLoop runs callers goroutines, each issuing its next operation
// when the previous one returns, for dur or until maxOps operations
// have been issued (0 = no cap). next holds each caller's sequence
// number across phases, so fresh-key writes stay fresh.
func closedLoop(ctx context.Context, sys system, callers int, dur time.Duration, maxOps int, next []int, tr *tracer) *phase {
	per := make([][]sample, callers)
	var issued atomic.Int64
	var wg sync.WaitGroup
	r0 := read()
	start := r0.at
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := make([]sample, 0, 1<<14)
			i := next[c]
			for {
				t0 := time.Since(start)
				if t0 >= dur || (maxOps > 0 && issued.Add(1) > int64(maxOps)) {
					break
				}
				var th *thread.Context
				if tr != nil {
					th = threadFor(c, i)
				}
				kind, err := sys.op(ctx, c, i, th)
				t1 := time.Since(start)
				if tr != nil {
					tr.root(th.ID(), kind, start.Add(t0), start.Add(t1), err != nil)
				}
				out = append(out, sample{at: t1, lat: t1 - t0, kind: kind, failed: err != nil})
				i++
			}
			next[c] = i
			per[c] = out
		}(c)
	}
	wg.Wait()
	p := &phase{}
	p.since(r0)
	for _, s := range per {
		p.samples = append(p.samples, s...)
	}
	return p
}

// inflightCap bounds the operations an open loop keeps in flight; an
// arrival beyond it is refused and counts as failed.
const inflightCap = 512

// poisson draws the due times of Poisson arrivals at the given rate
// per second over dur.
func poisson(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var due []time.Duration
	for t := rng.ExpFloat64() / rate; t < dur.Seconds(); t += rng.ExpFloat64() / rate {
		due = append(due, time.Duration(t*float64(time.Second)))
	}
	return due
}

// openLoop issues one operation at each due time, all drawn before the
// first, regardless of how fast the system answers. Latency runs from
// the time an operation was due, so a stall is charged to every arrival
// it delayed. Arrivals are dealt round-robin to the callers; seq is the
// first sequence number.
func openLoop(ctx context.Context, sys system, callers int, due []time.Duration, dur time.Duration, seq int, tr *tracer) *phase {
	p := &phase{samples: make([]sample, len(due)), late: make([]time.Duration, len(due))}
	var inflight atomic.Int64
	var endSum, endN float64
	var wg sync.WaitGroup
	r0 := read()
	start := r0.at
	for i, d := range due {
		if wait := d - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		p.late[i] = time.Since(start) - d
		n := inflight.Add(1)
		p.inflightMax = max(p.inflightMax, n)
		if float64(d) >= 0.9*float64(dur) {
			endSum, endN = endSum+float64(n), endN+1
		}
		if n > inflightCap {
			inflight.Add(-1)
			p.samples[i] = sample{at: d, kind: opPrimary, failed: true}
			continue
		}
		wg.Add(1)
		go func(i int, d time.Duration) {
			defer wg.Done()
			caller := i % callers
			var th *thread.Context
			if tr != nil {
				th = threadFor(caller, seq+i)
			}
			t0 := time.Now()
			kind, err := sys.op(ctx, caller, seq+i, th)
			t1 := time.Now()
			inflight.Add(-1)
			if tr != nil {
				tr.root(th.ID(), kind, t0, t1, err != nil)
			}
			p.samples[i] = sample{at: d, lat: t1.Sub(start) - d, kind: kind, failed: err != nil}
		}(i, d)
	}
	if wait := dur - time.Since(start); wait > 0 {
		time.Sleep(wait) // the phase lasts dur, whenever its last arrival was
	}
	p.since(r0)
	wg.Wait()
	p.inflightEnd = endSum / math.Max(endN, 1)
	return p
}

// quantile returns the q-quantile of sorted durations by the
// nearest-rank rule, 0 for an empty slice.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortDurations(d []time.Duration) []time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// median is collate.MedianFloat64, 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return collate.MedianFloat64(v)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latencies returns the sorted latencies of the successful samples of
// one kind.
func latencies(samples []sample, kind opKind) []time.Duration {
	var out []time.Duration
	for _, s := range samples {
		if s.kind == kind && !s.failed {
			out = append(out, s.lat)
		}
	}
	return sortDurations(out)
}

// reading is the process's CPU time and the processor time the
// hypervisor withheld from this machine ("steal") at one moment.
type reading struct {
	at         time.Time
	cpu, steal time.Duration
}

func read() reading { return reading{at: time.Now(), cpu: cpuTime(), steal: stealTime()} }

// stealTime is the steal column of /proc/stat's first line, summed over
// the processors; 0 where there is none. It counts in hundredths of a
// second.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(f[8], 10, 64)
	return time.Duration(n) * 10 * time.Millisecond
}

// since fills in what the process and the machine did during the phase.
func (p *phase) since(r reading) {
	now := read()
	p.elapsed, p.cpu = now.at.Sub(r.at), now.cpu-r.cpu
	p.stolen = float64(now.steal-r.steal) / (float64(p.elapsed) * float64(runtime.NumCPU()))
}
